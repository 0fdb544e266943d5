"""Reference decomposition for the property tests: WARP scan first.

These are ``revealed_order`` and ``decompose`` as they were before the
maximizers test: the order is refused when the support correspondence
fails ``check_warp``, then when the ranking misses a binary support, and
``decompose`` compares Γ with the order's maximizers on every family set
before rebuilding the rule. ``test_decompose.py`` asserts that the
package's versions return the same value or raise the same refusal.
"""

from __future__ import annotations

import math

from lucekit import (
    EXACT,
    ChoiceSet,
    LuceDecomposition,
    LuceWeights,
    MissingPairsError,
    NotRationalError,
    RandomChoiceRule,
    ReconstructionMismatchError,
    WeakOrder,
    check_warp,
    general_luce_rule,
    maximizers,
    recover_v,
    support_correspondence,
)
from lucekit.core import within_tolerance


def revealed_order(rule: RandomChoiceRule) -> WeakOrder:
    if not rule.family.contains_all_pairs():
        raise MissingPairsError("revealed order needs every pair in the family")
    warp = check_warp(support_correspondence(rule))
    if not warp.holds:
        raise NotRationalError(
            "support correspondence violates contraction consistency", report=warp
        )
    labels = rule.universe.alternatives
    beats = {a: 0 for a in labels}
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            P = ChoiceSet((x, y))
            if not rule.is_positive(rule.p(y, P)):
                beats[y] += 1
            if not rule.is_positive(rule.p(x, P)):
                beats[x] += 1
    order = WeakOrder(rule.universe, beats)
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


def decompose(rule: RandomChoiceRule) -> LuceDecomposition:
    gamma = support_correspondence(rule)
    order = revealed_order(rule)
    for A in rule.family:
        if gamma.gamma(A) != maximizers(order, A):
            raise NotRationalError(
                f"support of {A} is {gamma.gamma(A)}, not the revealed-order "
                f"maximizers {maximizers(order, A)}"
            )
    v = recover_v(rule, order)
    rebuilt = general_luce_rule(gamma, LuceWeights(rule.universe, v))
    for A in rule.family:
        for a in A:
            got, want = rebuilt.p(a, A), rule.p(a, A)
            if rule.mode == EXACT:
                ok = got == want
            else:
                ok = within_tolerance(float(got), want, rule.eps)
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
