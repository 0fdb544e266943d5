"""Recovery of the selective-Luce structure hiding inside a consistent rule.

Given a rule whose binary comparisons reveal a genuine weak order, this
module recovers the unique rational support correspondence, the revealed
order and its indifference classes, and per-class tie-breaking weights
``v(x) = p(x, {x, aᵢ}) / p(aᵢ, {x, aᵢ})`` against each class's
representative. The weights stay exact rationals in exact mode; ``α = ln v``
is emitted as floats alongside. Reconstructing a rule from the recovered
pieces and comparing it with the input is part of :func:`decompose`, so a
rule that merely looks consistent pairwise cannot decompose silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .axioms import check_warp
from .core import (
    EXACT,
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    RandomChoiceRule,
    Universe,
    Value,
    WeakOrder,
    maximizers,
    support_correspondence,
    within_tolerance,
)
from .errors import (
    DegenerateOddsError,
    MissingPairsError,
    NotRationalError,
    ReconstructionMismatchError,
)
from .synthesize import LuceWeights, _share_rows


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


def _pair(rule: RandomChoiceRule, x: str, y: str) -> ChoiceSet:
    P = ChoiceSet((x, y))
    if P not in rule.family:
        raise MissingPairsError(f"family lacks the pair {P}")
    return P


def revealed_order(
    rule: RandomChoiceRule, *, _support: ChoiceCorrespondence | None = None
) -> WeakOrder:
    """The weak order revealed by binary support: b is at least as good as a
    exactly when p(b, {a, b}) > 0.

    Requires every pair in the family. The support correspondence must pass
    the contraction-consistency check, and the pairwise relation itself must
    come out complete and transitive; a rule with cyclic binary supports
    fails one of the two and is refused rather than ranked. ``_support``,
    when given, is ``support_correspondence(rule)`` already built by the
    caller.
    """
    if not rule.family.contains_all_pairs():
        raise MissingPairsError("revealed order needs every pair in the family")
    warp = check_warp(support_correspondence(rule) if _support is None else _support)
    if not warp.holds:
        raise NotRationalError(
            "support correspondence violates contraction consistency", report=warp
        )
    universe = rule.universe
    labels = universe.alternatives
    beats: dict[str, int] = {a: 0 for a in labels}
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            P = _pair(rule, x, y)
            x_ok = rule.is_positive(rule.p(x, P))
            y_ok = rule.is_positive(rule.p(y, P))
            if not y_ok:
                beats[y] += 1  # x strictly beats y
            if not x_ok:
                beats[x] += 1
    order = WeakOrder(universe, beats)
    # Pairwise supports can be intransitive even when the contraction check
    # is vacuous (families with no nested pairs), so verify the ranking
    # actually reproduces every binary support before returning it.
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            P = ChoiceSet((x, y))
            if rule.is_positive(rule.p(x, P)) != order.weakly_prefers(x, y) or (
                rule.is_positive(rule.p(y, P)) != order.weakly_prefers(y, x)
            ):
                raise NotRationalError(
                    f"binary supports are not consistent with any weak order "
                    f"(first mismatch at {P})"
                )
    return order


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
            P = _pair(rule, x, rep)
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

    Three checks happen along the way: the support correspondence must be
    contraction-consistent, it must equal the revealed order's maximizers on
    every family set, and rebuilding the rule from (gamma, v) must reproduce
    the input table (exactly in exact mode, within eps in float mode). The
    last check is what rejects rules that violate the product structure only
    on larger sets; callers that already verified the choice axiom will
    never see it fire.
    """
    gamma = support_correspondence(rule)
    order = revealed_order(rule, _support=gamma)
    for A in rule.family:
        if gamma.gamma(A) != maximizers(order, A):
            raise NotRationalError(
                f"support of {A} is {gamma.gamma(A)}, not the revealed-order "
                f"maximizers {maximizers(order, A)}"
            )
    v = recover_v(rule, order)
    weights = LuceWeights(rule.universe, v)
    tol = 0.0 if rule.mode == EXACT else rule.eps
    for A in rule.family:
        # revealed_order checked Γ for WARP; these are general_luce_rule(Γ, v)'s rows.
        rebuilt = _share_rows(weights, A, set(gamma.gamma(A).members))
        for a in A:
            got, want = rebuilt[a], rule.p(a, A)
            if rule.mode == EXACT:
                ok = got == want
            else:
                ok = within_tolerance(float(got), want, tol)
            if not ok:
                raise ReconstructionMismatchError(
                    f"rebuilt rule disagrees at ({a!r}, {A}): {got} vs {want}"
                )
    classes = order.classes()
    return LuceDecomposition(
        gamma=gamma,
        order=order,
        classes=classes,
        representatives=tuple(group[0] for group in classes),
        v=v,
        alpha={a: math.log(v[a]) for a in rule.universe},
    )
