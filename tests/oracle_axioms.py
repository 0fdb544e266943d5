"""Reference checkers for the property tests: every nested pair by full scan.

These are the checkers as they were before the nested-pair index and the
exact residual shortcut: each builds its own bitmask view and finds the
pairs B ⊂ A by comparing all |F|² pairs of family sets, then tests every
instance. They are slow and simple on purpose; ``test_axioms_oracle.py``
asserts that the package's checkers encode to the same report bytes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from lucekit.axioms import WITNESS_CAP, Axiom, AxiomReport, Witness
from lucekit.core import (
    EXACT,
    MAX_ENUM_UNIVERSE,
    ChoiceCorrespondence,
    ChoiceSet,
    ExtendedRatio,
    RandomChoiceRule,
    Value,
    _fold_ascending,
    support_correspondence,
)
from lucekit.errors import FamilySizeError


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _RuleView:
    """Bitmask access layer shared by the checkers.

    Sets become bitmasks over the universe; each exact row becomes integer
    numerators over one common denominator so identities reduce to integer
    equalities, while float rows keep probabilities with denominator 1.0.
    """

    def __init__(self, rule: RandomChoiceRule, eps: float | None = None) -> None:
        self.rule = rule
        self.exact = rule.mode == EXACT
        self.eps = rule.eps if eps is None else eps
        universe = rule.universe
        self.n = len(universe)
        self.labels = universe.alternatives
        self.sets: list[ChoiceSet] = list(rule.family)
        self.masks: list[int] = []
        self.dens: list[Value] = []
        self.nums: list[list[Value]] = []
        for A in self.sets:
            row = rule.table[A]
            mask = 0
            for a in A:
                mask |= 1 << universe.index(a)
            self.masks.append(mask)
            if self.exact:
                den = math.lcm(*(v.denominator for v in row.values()))
                num: list[Value] = [0] * self.n
                for a, v in row.items():
                    num[universe.index(a)] = v.numerator * (den // v.denominator)
            else:
                den = 1.0
                num = [0.0] * self.n
                for a, v in row.items():
                    num[universe.index(a)] = float(v)
            self.dens.append(den)
            self.nums.append(num)
        self._sums: dict[int, dict[int, Value]] = {}

    def eq(self, lhs: Value, rhs: Value) -> bool:
        if self.exact:
            return lhs == rhs
        return abs(lhs - rhs) <= self.eps * (1.0 + abs(lhs) + abs(rhs))

    def positive(self, value: Value) -> bool:
        return value > 0 if self.exact else value > self.eps

    def mass(self, i: int, mask: int) -> Value:
        """Numerator mass the row ``i`` assigns to the alternatives in ``mask``."""
        num = self.nums[i]
        return _fold_ascending(num[j] for j in _iter_bits(mask))

    def subset_sums(self, i: int) -> dict[int, Value]:
        """Numerator masses of every submask of set ``i``, built once per set."""
        cached = self._sums.get(i)
        if cached is not None:
            return cached
        num = self.nums[i]
        mask = self.masks[i]
        sums: dict[int, Value] = {0: num[0] * 0}
        sub = (0 - mask) & mask  # ascending submask enumeration
        while sub:
            low = sub & -sub
            sums[sub] = sums[sub ^ low] + num[low.bit_length() - 1]
            sub = (sub - mask) & mask
        self._sums[i] = sums
        return sums

    def subset_pairs(self) -> Iterator[tuple[int, int]]:
        """Indices (iB, iA) with B a proper subset of A, outer loop over A."""
        for iA, mA in enumerate(self.masks):
            for iB, mB in enumerate(self.masks):
                if mB != mA and mB & mA == mB:
                    yield iB, iA

    def members_of(self, mask: int) -> ChoiceSet:
        return ChoiceSet(self.labels[j] for j in _iter_bits(mask))


class _Collector:
    """Accumulates violations under the witness cap."""

    def __init__(self) -> None:
        self.count = 0
        self.witnesses: list[Witness] = []

    def add(self, make: Callable[[], Witness], weight: int = 1) -> None:
        self.count += weight
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append(make())

    def report(self, axiom: Axiom, checked: int, complete: bool) -> AxiomReport:
        return AxiomReport(
            axiom=axiom,
            holds=self.count == 0,
            witnesses=tuple(self.witnesses),
            violation_count=self.count,
            pairs_checked=checked,
            family_complete=complete,
        )


def check_choice_axiom(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does p(a, A) = p(a, B) * p(B, A) for every B ⊆ A in the family, a ∈ B?

    Witness layout: sets = (B, A), elements = (a,), lhs = p(a, A),
    rhs = p(a, B) * p(B, A).
    """
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for iB, iA in view.subset_pairs():
        mass_AB = view.mass(iA, view.masks[iB])
        den_B = view.dens[iB]
        for j in _iter_bits(view.masks[iB]):
            checked += 1
            if view.eq(view.nums[iA][j] * den_B, view.nums[iB][j] * mass_AB):
                continue
            B, A, a = view.sets[iB], view.sets[iA], view.labels[j]
            out.add(lambda B=B, A=A, a=a: Witness(
                axiom=Axiom.CHOICE_AXIOM,
                sets=(B, A),
                elements=(a,),
                lhs=rule.p(a, A),
                rhs=rule.p(a, B) * rule.p_set(B, A),
            ))
    return out.report(Axiom.CHOICE_AXIOM, checked, rule.family.all_subsets)


def _classify(num: Value, den: Value, positive: Callable[[Value], bool]) -> str:
    if positive(den):
        return ExtendedRatio.FINITE
    if positive(num):
        return ExtendedRatio.INFINITE
    return ExtendedRatio.INDETERMINATE


def check_odds_independence(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Do binary odds predict in-set odds: p(a,{a,b})/p(b,{a,b}) = p(a,A)/p(b,A)?

    Both sides are compared as extended ratios (a positive mass against a
    zero mass is an infinite ratio). Instances whose right side is 0/0 are
    skipped, as are universes where the pair {a, b} is not in the family.
    Witness layout: sets = ({a,b}, A), elements = (a, b), lhs and rhs the two
    :class:`ExtendedRatio` values.
    """
    view = _RuleView(rule, eps)
    pair_index = {view.masks[i]: i for i in range(len(view.sets)) if len(view.sets[i]) == 2}
    out = _Collector()
    checked = 0
    for iA, mA in enumerate(view.masks):
        if len(view.sets[iA]) < 3:
            continue
        bits = list(_iter_bits(mA))
        for x, j in enumerate(bits):
            for k in bits[x + 1:]:
                iP = pair_index.get((1 << j) | (1 << k))
                if iP is None:
                    continue
                num_A = view.nums[iA]
                rhs_kind = _classify(num_A[j], num_A[k], view.positive)
                if rhs_kind == ExtendedRatio.INDETERMINATE:
                    continue
                checked += 1
                num_P = view.nums[iP]
                lhs_kind = _classify(num_P[j], num_P[k], view.positive)
                if lhs_kind == rhs_kind and (
                    lhs_kind == ExtendedRatio.INFINITE
                    or view.eq(num_P[j] * num_A[k], num_P[k] * num_A[j])
                ):
                    continue
                P, A = view.sets[iP], view.sets[iA]
                a, b = view.labels[j], view.labels[k]
                tol = 0.0 if view.exact else view.eps
                out.add(lambda P=P, A=A, a=a, b=b, tol=tol: Witness(
                    axiom=Axiom.ODDS_INDEPENDENCE,
                    sets=(P, A),
                    elements=(a, b),
                    lhs=ExtendedRatio.from_parts(rule.p(a, P), rule.p(b, P), eps=tol),
                    rhs=ExtendedRatio.from_parts(rule.p(a, A), rule.p(b, A), eps=tol),
                ))
    return out.report(Axiom.ODDS_INDEPENDENCE, checked, rule.family.all_subsets)


def check_product_rule(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does p(b, B) * p(a, A) = p(a, B) * p(b, A) for all B ⊆ A, a, b ∈ B?

    Witness layout: sets = (B, A), elements = (a, b), lhs = p(b,B) * p(a,A),
    rhs = p(a,B) * p(b,A).
    """
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for iB, iA in view.subset_pairs():
        bits = list(_iter_bits(view.masks[iB]))
        num_A, num_B = view.nums[iA], view.nums[iB]
        for x, j in enumerate(bits):
            for k in bits[x + 1:]:
                checked += 1
                if view.eq(num_B[k] * num_A[j], num_B[j] * num_A[k]):
                    continue
                B, A = view.sets[iB], view.sets[iA]
                a, b = view.labels[j], view.labels[k]
                out.add(lambda B=B, A=A, a=a, b=b: Witness(
                    axiom=Axiom.PRODUCT_RULE,
                    sets=(B, A),
                    elements=(a, b),
                    lhs=rule.p(b, B) * rule.p(a, A),
                    rhs=rule.p(a, B) * rule.p(b, A),
                ))
    return out.report(Axiom.PRODUCT_RULE, checked, rule.family.all_subsets)


def check_set_choice_axiom(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does p(C, A) = p(C, B) * p(B, A) for all C ⊆ B ⊆ A with B, A in the family?

    C ranges over every nonempty subset of B, present in the family or not;
    set masses are sums of the stored rows either way. Witness layout:
    sets = (C, B, A), elements = (), lhs = p(C, A), rhs = p(C, B) * p(B, A).
    """
    largest = max(len(s) for s in rule.family)
    if largest > MAX_ENUM_UNIVERSE:
        raise FamilySizeError(
            f"subset enumeration over a {largest}-element set (limit {MAX_ENUM_UNIVERSE})"
        )
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for iB, iA in view.subset_pairs():
        mB = view.masks[iB]
        sums_A, sums_B = view.subset_sums(iA), view.subset_sums(iB)
        mass_AB = sums_A[mB]
        den_B = view.dens[iB]
        failing: list[int] = []
        sub = (0 - mB) & mB
        while sub:
            checked += 1
            if not view.eq(sums_A[sub] * den_B, sums_B[sub] * mass_AB):
                failing.append(sub)
            sub = (sub - mB) & mB
        for mC in sorted(failing, key=lambda m: (bin(m).count("1"), view.members_of(m).members)):
            C, B, A = view.members_of(mC), view.sets[iB], view.sets[iA]
            out.add(lambda C=C, B=B, A=A: Witness(
                axiom=Axiom.SET_CHOICE_AXIOM,
                sets=(C, B, A),
                elements=(),
                lhs=rule.p_set(C, A),
                rhs=rule.p_set(C, B) * rule.p_set(B, A),
            ))
    return out.report(Axiom.SET_CHOICE_AXIOM, checked, rule.family.all_subsets)


def check_set_intersection_rule(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does p(Y ∩ B, A) = p(Y, B) * p(B, A) for all B ⊆ A in the family, Y ⊆ X?

    Y ranges over all 2^|X| subsets of the universe, so universes above
    ``MAX_ENUM_UNIVERSE`` alternatives are refused. Both sides depend on Y
    only through C = Y ∩ B, so each distinct C is decided once and a failure
    counts all 2^(|X| - |B|) sets Y inducing it; witnesses still name
    concrete Y, first in canonical order. Witness layout: sets = (Y, B, A),
    elements = (), lhs = p(Y ∩ B, A), rhs = p(Y, B) * p(B, A).
    """
    n = len(rule.universe)
    if n > MAX_ENUM_UNIVERSE:
        raise FamilySizeError(
            f"Y ranges over all subsets of a {n}-element universe (limit {MAX_ENUM_UNIVERSE})"
        )
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    # All subsets of the universe in (size, labels) order, for witness naming.
    canonical_masks: list[int] | None = None
    for iB, iA in view.subset_pairs():
        mB = view.masks[iB]
        sums_A, sums_B = view.subset_sums(iA), view.subset_sums(iB)
        mass_AB = sums_A[mB]
        den_B = view.dens[iB]
        checked += 1 << n
        failing: set[int] = set()
        sub = (0 - mB) & mB
        while sub:
            if not view.eq(sums_A[sub] * den_B, sums_B[sub] * mass_AB):
                failing.add(sub)
            sub = (sub - mB) & mB
        if not failing:
            continue
        weight = 1 << (n - len(view.sets[iB]))
        if len(out.witnesses) >= WITNESS_CAP:
            out.count += weight * len(failing)
            continue
        if canonical_masks is None:
            all_masks = range(1, 1 << n)
            canonical_masks = sorted(
                all_masks, key=lambda m: (bin(m).count("1"), view.members_of(m).members)
            )
        remaining = {c: weight for c in failing}
        for mY in canonical_masks:
            c = mY & mB
            if c not in remaining:
                continue
            Y, B, A = view.members_of(mY), view.sets[iB], view.sets[iA]
            inter = [y for y in Y if y in B]
            out.add(lambda Y=Y, B=B, A=A, inter=inter: Witness(
                axiom=Axiom.SET_INTERSECTION_RULE,
                sets=(Y, B, A),
                elements=(),
                lhs=rule.p_set(inter, A),
                rhs=rule.p_set(Y, B) * rule.p_set(B, A),
            ))
            if len(out.witnesses) >= WITNESS_CAP:
                remaining[c] -= 1
                for count_left in remaining.values():
                    out.count += count_left
                break
            remaining[c] -= 1
            if remaining[c] == 0:
                del remaining[c]
                if not remaining:
                    break
    return out.report(Axiom.SET_INTERSECTION_RULE, checked, rule.family.all_subsets)


def check_positivity(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Is every binary probability p(a, {a, b}) strictly positive?

    Quantifies over the pair sets present in the family; the report's
    completeness flag is True only when every pair of the universe is there.
    Witness layout: sets = ({a,b},), elements = (a,), lhs = p(a, {a,b}),
    rhs = None (the requirement is positivity, not an identity).
    """
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for i, P in enumerate(view.sets):
        if len(P) != 2:
            continue
        for j in _iter_bits(view.masks[i]):
            checked += 1
            if view.positive(view.nums[i][j]):
                continue
            a = view.labels[j]
            out.add(lambda P=P, a=a: Witness(
                axiom=Axiom.POSITIVITY,
                sets=(P,),
                elements=(a,),
                lhs=rule.p(a, P),
                rhs=None,
                detail="binary probability must be positive",
            ))
    return out.report(Axiom.POSITIVITY, checked, rule.family.contains_all_pairs())


def check_full_support(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does every alternative of every family set get positive probability?

    Witness layout: sets = (A,), elements = (a,), lhs = p(a, A), rhs = None.
    """
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for i, A in enumerate(view.sets):
        for j in _iter_bits(view.masks[i]):
            checked += 1
            if view.positive(view.nums[i][j]):
                continue
            a = view.labels[j]
            out.add(lambda A=A, a=a: Witness(
                axiom=Axiom.FULL_SUPPORT,
                sets=(A,),
                elements=(a,),
                lhs=rule.p(a, A),
                rhs=None,
                detail="support must be the whole set",
            ))
    return out.report(Axiom.FULL_SUPPORT, checked, rule.family.all_subsets)


def check_warp(corr: ChoiceCorrespondence) -> AxiomReport:
    """Does Γ(B) = Γ(A) ∩ B whenever B ⊆ A in the family and the cut is nonempty?

    Witness layout: sets = (B, A), elements = (), lhs/rhs = None; the detail
    string spells out Γ(B) against Γ(A) ∩ B.
    """
    family = corr.family
    universe = family.universe
    masks: list[int] = []
    gammas: list[int] = []
    for A in family:
        mask = 0
        for a in A:
            mask |= 1 << universe.index(a)
        masks.append(mask)
        gmask = 0
        for a in corr.gamma(A):
            gmask |= 1 << universe.index(a)
        gammas.append(gmask)
    out = _Collector()
    checked = 0
    for iA, mA in enumerate(masks):
        for iB, mB in enumerate(masks):
            if mB == mA or mB & mA != mB:
                continue
            cut = gammas[iA] & mB
            if cut == 0:
                continue
            checked += 1
            if gammas[iB] == cut:
                continue
            B, A = family.sets[iB], family.sets[iA]
            chosen_B, chosen_A = corr.gamma(B), corr.gamma(A)
            cut_set = ChoiceSet(a for a in chosen_A if a in B)
            out.add(lambda B=B, A=A, chosen_B=chosen_B, cut_set=cut_set: Witness(
                axiom=Axiom.WARP,
                sets=(B, A),
                elements=(),
                lhs=None,
                rhs=None,
                detail=f"Γ({B})={chosen_B} but Γ({A})∩{B}={cut_set}",
            ))
    return out.report(Axiom.WARP, checked, family.all_subsets)


def check_renyi_conditioning(rule: RandomChoiceRule, *, eps: float | None = None) -> AxiomReport:
    """Does p(a, B) = p(a, A) / p(B, A) for all B ⊆ A and a in B ∩ supp p_A?

    Restricting a to the support of p_A keeps the denominator positive, so
    every instance is a genuine identity rather than a 0/0 convention.
    Witness layout: sets = (B, A), elements = (a,), lhs = p(a, B),
    rhs = p(a, A) / p(B, A).
    """
    view = _RuleView(rule, eps)
    out = _Collector()
    checked = 0
    for iB, iA in view.subset_pairs():
        mass_AB = view.mass(iA, view.masks[iB])
        den_B = view.dens[iB]
        num_A, num_B = view.nums[iA], view.nums[iB]
        for j in _iter_bits(view.masks[iB]):
            if not view.positive(num_A[j]):
                continue
            checked += 1
            if view.eq(num_B[j] * mass_AB, num_A[j] * den_B):
                continue
            B, A, a = view.sets[iB], view.sets[iA], view.labels[j]
            out.add(lambda B=B, A=A, a=a: Witness(
                axiom=Axiom.RENYI_CONDITIONING,
                sets=(B, A),
                elements=(a,),
                lhs=rule.p(a, B),
                rhs=rule.p(a, A) / rule.p_set(B, A),
            ))
    return out.report(Axiom.RENYI_CONDITIONING, checked, rule.family.all_subsets)


def check_all(rule: RandomChoiceRule, *, eps: float | None = None) -> dict[Axiom, AxiomReport]:
    """Run every checker on the rule; WARP is applied to its support correspondence."""
    return {
        Axiom.CHOICE_AXIOM: check_choice_axiom(rule, eps=eps),
        Axiom.ODDS_INDEPENDENCE: check_odds_independence(rule, eps=eps),
        Axiom.PRODUCT_RULE: check_product_rule(rule, eps=eps),
        Axiom.SET_CHOICE_AXIOM: check_set_choice_axiom(rule, eps=eps),
        Axiom.SET_INTERSECTION_RULE: check_set_intersection_rule(rule, eps=eps),
        Axiom.POSITIVITY: check_positivity(rule, eps=eps),
        Axiom.FULL_SUPPORT: check_full_support(rule, eps=eps),
        Axiom.WARP: check_warp(support_correspondence(rule)),
        Axiom.RENYI_CONDITIONING: check_renyi_conditioning(rule, eps=eps),
    }
