"""Recovery of the selective-Luce structure hiding inside a consistent rule.

Given a rule whose binary comparisons reveal a genuine weak order, this
module recovers the unique rational support correspondence, the revealed
order and its indifference classes, and per-class tie-breaking weights
``v(x) = p(x, {x, aᵢ}) / p(aᵢ, {x, aᵢ})`` against each class's
representative. The weights stay exact rationals in exact mode; ``α = ln v``
is emitted as floats alongside. All of it is read from the rule view's Luce
fit, the certificate that exact ``check_all`` also runs. The fit compares
every cell with ``general_luce_rule(Γ, v)``, by integer cross-multiplication
in exact mode and within eps in float mode, so a rule that merely looks
consistent pairwise cannot decompose silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .axioms import _RuleView, _split_pairs, _warp_report
from .core import (
    EXACT,
    ChoiceCorrespondence,
    ChoiceSet,
    RandomChoiceRule,
    Universe,
    Value,
    WeakOrder,
)
from .errors import (
    DegenerateOddsError,
    MissingPairsError,
    NotRationalError,
    ReconstructionMismatchError,
)
from .synthesize import LuceWeights


@dataclass(frozen=True)
class LuceDecomposition:
    """The recovered pieces: correspondence, order, classes, and weights.

    ``classes`` is the ordered partition into indifference classes (best
    first, members sorted); ``representatives[i]`` is the lexicographically
    smallest member of ``classes[i]`` and has v = 1, α = 0. ``v`` holds the
    within-class odds against the representative (exact in exact mode) and
    ``alpha`` its float logarithm.
    """

    gamma: ChoiceCorrespondence
    order: WeakOrder
    classes: tuple[tuple[str, ...], ...]
    representatives: tuple[str, ...]
    v: Mapping[str, Value]
    alpha: Mapping[str, float]

    @property
    def universe(self) -> Universe:
        return self.order.universe


def revealed_order(rule: RandomChoiceRule) -> WeakOrder:
    """The weak order revealed by binary support: b is at least as good as a
    exactly when p(b, {a, b}) > 0.

    Requires every pair in the family, and refuses the order unless its
    maximizers are the rule's support on every family set. That one test
    decides rationality: the maximizers of a weak order always satisfy the
    contraction-consistency check (WARP), and when the family holds every
    pair a WARP support is the set of maximizers of the relation its pairs
    reveal (Arrow 1959). So the test fails exactly when the support violates
    WARP or the binary supports are not transitive. Only then is the
    support's WARP report built, on the view's own nested pairs and support
    masks, to attach to the refusal. A WARP support can only disagree on a
    pair, and pairs come first in family order, so the first mismatch found
    is that pair.
    """
    return _revealed(rule)[1]


def _revealed(rule: RandomChoiceRule) -> tuple[_RuleView, WeakOrder, list[int], list[Value], Any]:
    """:func:`revealed_order`, its rule view and the rest of the view's Luce fit."""
    if not rule.family.contains_all_pairs():
        raise MissingPairsError("revealed order needs every pair in the family")
    view = _RuleView(rule)
    ranks, gammas, v, misfits = view.luce_fit()
    misfit = misfits[0] if misfits else None
    if misfit is not None and misfit[1] is None:  # a support that is not Γ
        support = view.support_masks(0 if view.exact else view.eps)
        warp = _warp_report(view.pairs, _split_pairs(view.pairs, support))
        if not warp.holds:
            raise NotRationalError(
                "support correspondence violates contraction consistency", report=warp
            )
        raise NotRationalError(
            f"binary supports are not consistent with any weak order "
            f"(first mismatch at {view.sets[misfit[0]]})"
        )
    return view, WeakOrder(rule.universe, dict(zip(view.labels, ranks))), gammas, v, misfit


def recover_v(rule: RandomChoiceRule, order: WeakOrder) -> dict[str, Value]:
    """Within-class weights: v(x) is the binary odds of x against its class
    representative (the lexicographically smallest member), v(rep) = 1.

    Ties in the order mean both binary probabilities are positive, so each
    odds is finite and positive; anything else signals that the rule does
    not have the product structure this recovery presumes.
    """
    one: Value = Fraction(1) if rule.mode == EXACT else 1.0
    v: dict[str, Value] = {}
    for group in order.classes():
        rep = group[0]
        v[rep] = one
        for x in group[1:]:
            P = ChoiceSet((x, rep))
            if P not in rule.family:
                raise MissingPairsError(f"family lacks the pair {P}")
            num, den = rule.p(x, P), rule.p(rep, P)
            if not (rule.is_positive(num) and rule.is_positive(den)):
                raise DegenerateOddsError(
                    f"odds of {x!r} against its class representative {rep!r} "
                    f"is degenerate ({num}/{den}); the class structure is not real"
                )
            v[x] = num / den
    return v


def decompose(rule: RandomChoiceRule) -> LuceDecomposition:
    """Split a rule into (gamma, order, classes, v, alpha) and verify the split.

    The rule view's Luce fit, which exact ``check_all`` also uses as its
    certificate, makes two checks. :func:`revealed_order` requires the
    support on every family set to be the revealed order's maximizers, which
    holds exactly when the support correspondence is contraction-consistent
    and its pairs rank the alternatives. Then every cell must be that of
    ``general_luce_rule(gamma, v)``: by integer cross-multiplication in exact
    mode, within eps in float mode. That comparison is what rejects rules
    that violate the product structure only on larger sets; callers that
    already verified the choice axiom will never see it fire.
    """
    view, order, gammas, odds, misfit = _revealed(rule)
    v = dict(zip(view.labels, odds))
    weights = LuceWeights(rule.universe, v)  # refuses infinite float odds
    gamma = {A: view.pairs.members(g) for A, g in zip(view.sets, gammas)}
    if misfit is not None:
        A, a = view.sets[misfit[0]], view.labels[misfit[1]]
        got = v[a] / sum(v[b] for b in gamma[A])  # in label order, as general_luce_rule sums
        raise ReconstructionMismatchError(
            f"rebuilt rule disagrees at ({a!r}, {A}): {got} vs {rule.p(a, A)}"
        )
    classes = order.classes()
    return LuceDecomposition(
        gamma=ChoiceCorrespondence(rule.family, gamma),
        order=order,
        classes=classes,
        representatives=tuple(group[0] for group in classes),
        v=v,
        alpha=weights.alpha,
    )
