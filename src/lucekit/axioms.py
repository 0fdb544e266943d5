"""Decision procedures for stochastic-choice consistency conditions.

Each checker scans every instance of its identity that the rule's family can
express, and returns an :class:`AxiomReport` with a verdict, the first
:data:`WITNESS_CAP` violations in a canonical order, the total violation
count, and the number of instances examined. Verdicts are relative to the
family: on partial families a pass may be vacuous, which is why reports also
carry a completeness flag.

Exact rules are checked by integer cross-multiplication of the rows a rule
keeps as integer numerators over one common denominator; float rules with
the relative tolerance ``|lhs - rhs| <= eps * (1 + |lhs| + |rhs|)``.
Witnesses carry the probabilities themselves, not the cross-multiplied
forms, so :func:`replay_witness` replays them against the raw definitions.

All checkers but positivity and full support quantify over nested pairs
B ⊂ A of the family (odds independence over those with |B| = 2), listed by
:class:`_NestedPairs`. One split of those pairs per rule view serves every
checker: it counts their instances and reads WARP off the support. In exact
mode it lists the pairs with a nonzero residual r_j = N_A[j]·D_B − N_B[j]·M_AB
for some j ∈ B (N a row's numerators, D_B B's denominator, M_AB = Σ_{j∈B} N_A[j]).
Every pair-based identity is an integer combination of these residuals, so
only those pairs are scanned instance by instance.

On a complete family :func:`_split_pairs` walks few pairs, by the source
paper's theorem: a rule satisfies the choice axiom exactly when it is
``general_luce_rule(Γ, v)`` with Γ a weak order's maximizers, and with every
pair present such a Γ is the one :func:`_least_rank` reads off the pairs
(Arrow 1959). Every instance count follows in closed form from |A| and
|supp p_A|. A pair with neither set among the misfits M holds WARP, and has
zero residuals when M are the Luce-fit misfits of :meth:`_RuleView.luce_fit`,
whatever v is, so only the pairs with a set in M are walked, once: all proper
subsets of each A ∈ M, and the members of M inside each other A that holds
one; a set that holds none is not visited. That is never more than every
pair, and lists no pairs. Without rows, M are the sets whose
support is not Γ(A). Partial families walk every pair.

Float mode compares every instance of the requested axioms in one numpy pass
over chunks of pairs of one size |B|, with the scalar scan's operations in
the same order, so each boolean equals the scalar one; the scalar loops then
rerun on the failing pairs only, in scan order, until the witness cap. WARP
alone is split in Python, without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, compress, islice, repeat
from operator import lt
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Union

from .core import (
    EXACT,
    MAX_ENUM_UNIVERSE,
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    ExtendedRatio,
    RandomChoiceRule,
    Value,
    _fold_ascending,
    _over_lcm,
    check_eps,
    support_correspondence,
    within_tolerance,
)
from .errors import FamilySizeError

# Reports keep at most this many witnesses (the first in canonical order)
# so adversarial inputs cannot exhaust memory; the full count is separate.
WITNESS_CAP = 100


class Axiom(str, Enum):
    """The conditions the checkers decide."""

    CHOICE_AXIOM = "choice-axiom"
    ODDS_INDEPENDENCE = "odds-independence"
    PRODUCT_RULE = "product-rule"
    SET_CHOICE_AXIOM = "set-choice-axiom"
    SET_INTERSECTION_RULE = "set-intersection-rule"
    POSITIVITY = "positivity"
    FULL_SUPPORT = "full-support"
    WARP = "warp"
    RENYI_CONDITIONING = "renyi-conditioning"

    def __str__(self) -> str:  # keep CLI/report output free of the enum prefix
        return self.value


WitnessValue = Union[Value, ExtendedRatio, None]


@dataclass(frozen=True)
class Witness:
    """One concrete violation: the sets and alternatives involved plus both sides.

    The meaning of ``sets``/``elements`` depends on the axiom; see the
    emitting checker. ``lhs``/``rhs`` hold the directly-evaluated values of
    the two sides of the identity (:class:`ExtendedRatio` for odds), or
    ``None`` where a side is a bare positivity requirement.
    """

    axiom: Axiom
    sets: tuple[ChoiceSet, ...]
    elements: tuple[str, ...]
    lhs: WitnessValue
    rhs: WitnessValue
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one checker run.

    ``holds`` is False exactly when ``violation_count > 0``; ``witnesses``
    then holds the first ``min(violation_count, WITNESS_CAP)`` violations in
    canonical order. ``pairs_checked`` counts the identity instances
    examined (instances that hold by pure algebra, such as a set compared
    with itself, are skipped). ``family_complete`` reports whether the
    family contained every instance the condition quantifies over: all
    nonempty subsets of the universe, or, for Positivity, all pairs.
    """

    axiom: Axiom
    holds: bool
    witnesses: tuple[Witness, ...]
    violation_count: int
    pairs_checked: int
    family_complete: bool

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def __post_init__(self) -> None:
        if self.holds != (self.violation_count == 0):
            raise ValueError("verdict inconsistent with violation count")
        if bool(self.witnesses) != (self.violation_count > 0):
            raise ValueError("witness list inconsistent with violation count")


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _NestedPairs:
    """The set encoding of one family and its nested pairs (B, A), B ⊂ A.

    A set is a bitmask over the universe, bit j for the j-th label. ``masks``
    are the family's sets in canonical family order (by size, then labels),
    so every proper subset of set ``iA`` has a smaller index. Pairs come out
    with the outer loop over A and B in family order.
    """

    def __init__(self, family: ChoiceFamily) -> None:
        self.family = family
        self.sets = family.sets
        self.labels = family.universe.alternatives
        self._bit = {a: 1 << j for j, a in enumerate(self.labels)}
        self.masks = [self.mask(A.members) for A in self.sets]
        self.index = {m: i for i, m in enumerate(self.masks)}

    def mask(self, members: Iterable[str]) -> int:
        return sum(map(self._bit.__getitem__, members))

    def members(self, mask: int) -> ChoiceSet:
        labels = self.labels
        return ChoiceSet(labels[j] for j in _iter_bits(mask))

    @staticmethod
    def canonical(masks: Iterable[int]) -> list[int]:
        """``masks`` by size, then labels (labels are sorted, so bit positions order them)."""
        return sorted(masks, key=lambda m: (m.bit_count(), tuple(_iter_bits(m))))

    @staticmethod
    def every_mask(n: int) -> Iterator[int]:
        """Every nonempty mask over ``n`` bits in canonical order, generated lazily."""
        bits = [1 << j for j in range(n)]
        for k in range(1, n + 1):
            yield from map(sum, combinations(bits, k))

    def subsets_of(self, iA: int, among: dict[int, int] | None = None) -> list[int]:
        """Family indices of the proper subsets of set ``iA``, ascending: of all sets,
        or of ``among`` (mask to index, ascending, all before ``iA``). Scans the
        family, or ``among``, when 2^|A| exceeds its size, else walks A's submasks."""
        masks = self.masks
        mA = masks[iA]
        index = self.index if among is None else among
        if 1 << mA.bit_count() > len(index):
            pool = range(iA) if among is None else index.values()
            return [iB for iB in pool if masks[iB] & mA == masks[iB]]
        hits = []
        sub = (mA - 1) & mA
        while sub:
            iB = index.get(sub)
            if iB is not None:
                hits.append(iB)
            sub = (sub - 1) & mA
        hits.sort()
        return hits


def _least_rank(pairs: _NestedPairs, chosen: list[int]) -> tuple[list[int], ...]:
    """Ranks (pairs whose ``chosen`` mask leaves an alternative out; every pair is
    needed), tiers (one rank's bitmask) best first, per set Γ(A), the members of A
    of least rank: a weak order's maximizers, so Γ satisfies WARP, and the misfits:
    the sets whose ``chosen`` mask is not Γ(A), none exactly when ``chosen`` is rational."""
    n, index = len(pairs.labels), pairs.index
    ranks = [0] * n
    for k in range(n):
        for j in range(k):
            pair = chosen[index[(1 << j) | (1 << k)]]
            ranks[j] += not pair >> j & 1
            ranks[k] += not pair >> k & 1
    tiers: dict[int, int] = {}  # rank -> its alternatives, as a bitmask
    for j, rank in enumerate(ranks):
        tiers[rank] = tiers.get(rank, 0) | 1 << j
    best_first = [tiers[rank] for rank in sorted(tiers)]
    gammas = [next(mask & tier for tier in best_first if mask & tier) for mask in pairs.masks]
    return ranks, best_first, gammas, [i for i, (c, g) in enumerate(zip(chosen, gammas)) if c != g]


class _PairShares(NamedTuple):
    """Instance counts summed over every nested pair (B, A) of the family."""

    pairs: int  # one per pair
    members: int  # |B|
    supported: int  # j ∈ B with p(j, A) positive
    odds: int  # one if |B| = 2 and some j ∈ B has p(j, A) positive
    member_pairs: int  # C(|B|, 2)
    subsets: int  # 2^|B| − 1

    @classmethod
    def from_sizes(cls, per_size: list[int], supported: int, odds: int) -> "_PairShares":
        """The other counts from ``per_size[k]``, the pairs with |B| = k."""
        sizes = list(enumerate(per_size))
        return cls(
            pairs=sum(c for _, c in sizes),
            members=sum(c * k for k, c in sizes),
            supported=supported,
            odds=odds,
            member_pairs=sum(c * (k * (k - 1) // 2) for k, c in sizes),
            subsets=sum(c * ((1 << k) - 1) for k, c in sizes),
        )


# Float pass arrays hold about this many instances (128 KiB of floats): a
# chunk gathers at most _CHUNK cells p(j, A), _CHUNK // b pairs of one size
# b, and set choice, with 2^b instances per pair, takes _CHUNK >> b at a time.
_CHUNK = 1 << 14

def _complete_counts(masks: list[int], support: list[int]) -> tuple[_PairShares, int]:
    """The shares and WARP instances of a complete family with nonempty supports.

    They depend only on the histogram of (|A|, |supp p_A|) = (k, g): C(k, b)
    subsets of size b, 2^(k−1) − 1 holding each j ∈ supp p_A, C(k, 2) − C(k − g, 2)
    2-subsets meeting the support (k ≥ 3), and 2^k − 2^(k−g) − 1 meeting it.
    """
    per_size = [0] * (max(map(int.bit_count, masks)) + 1)
    supported = odds = warp_checked = 0
    histogram = Counter(zip(map(int.bit_count, masks), map(int.bit_count, support)))
    for (k, g), count in histogram.items():
        for b in range(1, k):
            per_size[b] += count * math.comb(k, b)
        supported += count * g * ((1 << (k - 1)) - 1)
        if k >= 3:
            odds += count * (math.comb(k, 2) - math.comb(k - g, 2))
        warp_checked += count * ((1 << k) - (1 << (k - g)) - 1)
    return _PairShares.from_sizes(per_size, supported, odds), warp_checked


def _float_choice(XA, XB, eps):
    """Choice axiom: p(j, A) against p(j, B)·p(B, A) for each j ∈ B."""
    mass = _fold_ascending(XA.T)
    return ~within_tolerance(XA, XB * mass[:, None], eps)


def _float_renyi(XA, XB, eps):
    """Rényi conditioning: p(j, B)·p(B, A) against p(j, A) where p(j, A) > eps."""
    mass = _fold_ascending(XA.T)
    return (XA > eps) & ~within_tolerance(XB * mass[:, None], XA, eps)


def _float_product(XA, XB, eps):
    """Product rule: p(k, B)·p(j, A) against p(j, B)·p(k, A) for j < k in B."""
    import numpy as np

    J, K = np.triu_indices(XA.shape[1], 1)
    return ~within_tolerance(XB[:, K] * XA[:, J], XB[:, J] * XA[:, K], eps)


def _float_odds(XA, XB, eps):
    """Odds independence on B = {j, k}: the kinds of p(j, ·)/p(k, ·) by ``> eps``
    (0/0 on A has no instance), then p(j, B)·p(k, A) against p(k, B)·p(j, A)."""
    (jA, kA), (jB, kB) = (XA > eps).T, (XB > eps).T
    finite = kA & kB & within_tolerance(XB[:, 0] * XA[:, 1], XB[:, 1] * XA[:, 0], eps)
    infinite = ~kA & ~kB & jA & jB
    return ((jA | kA) & ~finite & ~infinite)[:, None]


def _subset_sums(X):
    """Masses of every submask c of X's columns (rows) per row of X (columns).

    ``T[c] = T[c − low(c)] + X[low(c)]`` adds the highest member first, as
    :meth:`_RuleView.subset_sums` does. Row r holds the c with r's k bits
    reversed, so the rows adding one member are one block; the last is B.
    """
    import numpy as np

    k = X.shape[1]
    T = np.zeros((1 << k, X.shape[0]))
    for h in range(k):
        np.add(T[:1 << h], X[:, k - 1 - h], out=T[1 << h:2 << h])
    return T


def _float_set_choice(XA, XB, eps):
    """Set choice: p(C, A) against p(C, B)·p(B, A) for every nonempty C ⊆ B, per pair.

    A pair passes for every C when Σ_{j∈B} |p(j, A) − p(j, B)·p(B, A)| plus a
    bound on all rounding (b·2^-46 times the masses, 8 times the worst case) is
    below eps/2: each computed difference is then below eps, each computed
    tolerance eps·(1 + |lhs| + |rhs|) at least eps. Other pairs compare all
    2^|B| − 1 subset masses, ``_CHUNK`` instances at a time.
    """
    import numpy as np

    b = XA.shape[1]
    mass = _fold_ascending(XA.T)[:, None]
    slop = np.abs(XA - XB * mass).sum(axis=1) * (1 + 2.0 ** -40)
    slop += 2.0 ** -46 * b * (1 + np.abs(XA).sum(axis=1)) * (1 + np.abs(XB).sum(axis=1))
    counts = np.zeros((len(XA), 1), dtype=np.int64)
    loose = np.flatnonzero(~(slop < eps / 2))
    step = max(1, _CHUNK >> b)
    for s in range(0, len(loose), step):
        rows = loose[s:s + step]
        TA, TB = _subset_sums(XA[rows]), _subset_sums(XB[rows])
        held = within_tolerance(TA[1:], TB[1:] * TA[-1], eps)
        counts[rows, 0] = (1 << b) - 1 - np.count_nonzero(held, axis=0)
    return counts


# Each float kernel maps the gathered rows of a chunk of pairs, p(j, A) and
# p(j, B) for j ∈ B (one row per pair), to one boolean per instance; a pair
# has at most 2^|B| instances.
_FLOAT_KERNELS: dict[Axiom, Callable] = {
    Axiom.CHOICE_AXIOM: _float_choice,
    Axiom.ODDS_INDEPENDENCE: _float_odds,
    Axiom.RENYI_CONDITIONING: _float_renyi,
    Axiom.PRODUCT_RULE: _float_product,
    Axiom.SET_CHOICE_AXIOM: _float_set_choice,
}


class _RuleView:
    """Bitmask access layer shared by the checkers.

    Sets become bitmasks over the universe. The rows are the rule's own
    (D_A, N_A), built with the rule and only read here: exact rows are integer
    numerators over one common denominator, so identities reduce to integer
    equalities, and float rows keep probabilities with denominator 1.0.
    Witnesses read their values off the same rows, through :meth:`p` and
    :meth:`p_set`.
    """

    def __init__(
        self, rule: RandomChoiceRule, eps: float | None = None, axioms=tuple(Axiom)
    ) -> None:
        self.rule = rule
        self.axioms: Collection[Axiom] = axioms  # float mode runs these kernels only
        self.exact = rule.mode == EXACT
        self.eps = rule.eps if eps is None else check_eps(eps)
        self.n = len(rule.universe)
        self.pairs = _NestedPairs(rule.family)
        self.labels = self.pairs.labels
        self.sets = self.pairs.sets
        self.masks = self.pairs.masks
        self.dens: list[Value] = rule._dens  # type: ignore[attr-defined]
        self.nums: list[list[Value]] = rule._nums  # type: ignore[attr-defined]
        self._sums: dict[int, dict[int, Value]] = {}
        self._supports: dict[Value, list[int]] = {}
        # The pair split serves both modes and is built on first use; float
        # mode also keeps each axiom's failing pairs from the same pass.
        self._walked: _Split | None = None
        self._failures: dict[Axiom, tuple] = {}

    def eq(self, lhs: Value, rhs: Value) -> bool:
        if self.exact:
            return lhs == rhs
        return within_tolerance(lhs, rhs, self.eps)

    def positive(self, value: Value) -> bool:
        return value > 0 if self.exact else value > self.eps

    def mass(self, i: int, mask: int) -> Value:
        """Numerator mass the row ``i`` assigns to the alternatives in ``mask``."""
        num = self.nums[i]
        return _fold_ascending(num[j] for j in _iter_bits(mask))

    def p(self, i: int, j: int) -> Value:
        """``rule.p``: the cell N_i[j] / D_i as stored, so a float −0.0 stays −0.0."""
        return Fraction(self.nums[i][j], self.dens[i]) if self.exact else self.nums[i][j]

    def p_set(self, i: int, mask: int) -> Value:
        """``rule.p_set``: the mass of ``mask`` in row ``i``, summed from zero in label
        order, so a one-member set holding a float −0.0 reads +0.0."""
        mass = self.mass(i, mask)
        return Fraction(mass, self.dens[i]) if self.exact else mass / self.dens[i]

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

    def scan_pairs(self, axiom: Axiom, out: "_Collector") -> Iterator[tuple[int, int]]:
        """The nested pairs, in scan order, that ``axiom``'s checker must scan one by
        one: exact mode's nonzero residuals, or float mode's failing pairs, whose
        rest adds its counts to ``out`` once it holds :data:`WITNESS_CAP` witnesses."""
        split = self._split()
        if self.exact:
            yield from split.failing
            return
        inner, outer, counts = self._failures[axiom]
        for t, pair in enumerate(zip(inner.tolist(), outer.tolist())):
            if len(out.witnesses) >= WITNESS_CAP:
                out.count += int(counts[t:].sum())
                return
            yield pair

    def shares(self) -> _PairShares:
        """Instance counts over all nested pairs, which checkers credit in bulk."""
        return self._split().shares

    def support_masks(self, floor: Value) -> list[int]:
        """Per set A, the bitmask of the members j with p(j, A) > ``floor`` ≥ 0."""
        found = self._supports.get(floor)
        if found is None:
            bits = [1 << j for j in range(self.n)]
            found = [sum(compress(bits, map(lt, repeat(floor), num))) for num in self.nums]
            self._supports[floor] = found
        return found

    def luce_fit(self) -> tuple[list[int], list[int], list[Value], list[tuple]]:
        """How the rule fits ``general_luce_rule(Γ, v)``, Γ a weak order's maximizers.

        Needs every pair. Returns (ranks, Γ, v, misfits): ranks count the pairs
        that give an alternative no mass, Γ(A) is A's members of least rank (a
        bitmask per set), v the binary odds against each rank's lowest index (1
        where that pair is a misfit: any v keeps the split sound, and ``decompose``
        refuses on the pair first). Misfits (indices) are (A, None) for each set
        whose support is not Γ(A), then (A, j) for each other set's first cell of
        Γ(A) off the Luce rule: N_A[j]·Σ_{Γ(A)} w = w_j·D_A (w the v over one lcm),
        or within eps of v_j / Σ_{Γ(A)} v summed in label order.
        """
        nums, n, index, exact, eps = self.nums, self.n, self.pairs.index, self.exact, self.eps
        support = self.support_masks(0 if exact else eps)
        ranks, best_first, gammas, unfit = _least_rank(self.pairs, support)
        misfits: list[tuple[int, int | None]] = [(i, None) for i in unfit]
        off = set(unfit)
        v: list[Value] = [Fraction(1) if exact else 1.0] * n
        for tier in best_first:
            r = (tier & -tier).bit_length() - 1  # the tier's lowest index
            for j in _iter_bits(tier & (tier - 1)):
                pair = index[(1 << j) | (1 << r)]
                if pair not in off:
                    num = nums[pair]
                    v[j] = Fraction(num[j], num[r]) if exact else num[j] / num[r]
        w = _over_lcm(v)[1] if exact else v
        for i, (gamma, num, den) in enumerate(zip(gammas, nums, self.dens)):
            if i in off:
                continue
            bits = list(_iter_bits(gamma))
            total = sum(map(w.__getitem__, bits))
            for j in bits:
                if not (num[j] * total == w[j] * den if exact
                        else within_tolerance(w[j] / total, num[j], eps)):
                    misfits.append((i, j))
                    break
        return ranks, gammas, v, misfits

    def _split(self) -> "_Split":
        """The pair split, built on first use: float mode's array pass, or in exact
        mode :func:`_split_pairs` around the Luce fit's misfits."""
        if self._walked is None and not self.exact:
            self._walked = self._float_split()
        elif self._walked is None:
            fit = self.luce_fit()[3] if self.pairs.family.all_subsets else []
            misfits, rows = [i for i, _ in fit], (self.dens, self.nums)
            self._walked = _split_pairs(self.pairs, self.support_masks(0), rows, misfits)
        return self._walked

    def _float_split(self) -> "_Split":
        """Float mode's one numpy pass: shares at the view's eps, WARP at the rule's,
        and per axiom the failing pairs in scan order with their failure counts
        (set intersection's are set choice's, times 2^(n − |B|) sets Y per C)."""
        import numpy as np

        eps, floor = self.eps, self.rule.eps
        wanted = set(self.axioms)
        if Axiom.SET_INTERSECTION_RULE in wanted:  # it reads set choice's failures
            wanted.add(Axiom.SET_CHOICE_AXIOM)
        if max(map(int.bit_count, self.masks)) > MAX_ENUM_UNIVERSE:  # both refuse such sets
            wanted.discard(Axiom.SET_CHOICE_AXIOM)
        kernels = {axiom: f for axiom, f in _FLOAT_KERNELS.items() if axiom in wanted}
        rows = np.array(self.nums, dtype=float)
        found: dict[Axiom, list] = {axiom: [] for axiom in (*kernels, Axiom.WARP)}
        per_size = [0] * (self.n + 1)
        supported = odds = warp_checked = 0
        for iA, iB, cols in self._pair_chunks(np):
            b = cols.shape[1]
            XA, XB = rows[iA[:, None], cols], rows[iB[:, None], cols]
            per_size[b] += len(iA)
            cut = XA > eps
            supported += int(np.count_nonzero(cut))
            if b == 2:
                odds += int(np.count_nonzero(cut.any(axis=1)))
            if floor != eps:
                cut = XA > floor
            hit = cut.any(axis=1)
            warp_checked += int(np.count_nonzero(hit))
            counts = {Axiom.WARP: hit & (cut != (XB > floor)).any(axis=1)}
            for axiom, kernel in kernels.items():
                if axiom != Axiom.ODDS_INDEPENDENCE or b == 2:  # odds: |B| = 2 only
                    counts[axiom] = kernel(XA, XB, eps).sum(axis=1)
            for axiom, count in counts.items():
                at = count.nonzero()[0]
                if len(at):
                    found[axiom].append((iB[at], iA[at], count[at].astype(np.int64)))
        for axiom, parts in found.items():
            parts = parts or [[np.zeros(0, dtype=int)] * 3]
            inner, outer, count = (np.concatenate(x) for x in zip(*parts))
            order = np.lexsort((inner, outer))
            self._failures[axiom] = (inner[order], outer[order], count[order])
        if Axiom.SET_CHOICE_AXIOM in kernels and self.n <= MAX_ENUM_UNIVERSE:
            inner, outer, count = self._failures[Axiom.SET_CHOICE_AXIOM]
            count = count << (self.n - np.array(list(map(int.bit_count, self.masks)))[inner])
            self._failures[Axiom.SET_INTERSECTION_RULE] = (inner, outer, count)
        inner, outer, _ = self._failures.pop(Axiom.WARP)
        shares = _PairShares.from_sizes(per_size, supported, odds)
        warp_failing = list(zip(inner.tolist(), outer.tolist()))
        return _Split([], shares, self.support_masks(floor), warp_checked, warp_failing)

    def _pair_chunks(self, np) -> Iterator[tuple[Any, Any, Any]]:
        """The nested pairs as chunks (iA, iB, cols) of one size |B| = b, cols B's members.

        Up to ``MAX_ENUM_UNIVERSE`` alternatives a k-set with 2^k ≤ |F| takes its
        b-subsets from the b-combinations of its k members, and a dense 2^n table
        maps their masks to family indices (-1 if absent); other sets scan the
        family's membership matrix. The pairs of a chunk come in no set order.
        """
        masks, n, size = self.masks, self.n, len(self.masks)
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
        member = np.unpackbits(packed.reshape(size, width), axis=1, count=n, bitorder="little") > 0
        sizes = member.sum(axis=1)
        members = np.argsort(~member, axis=1, kind="stable")  # each row's members first
        dense = n <= MAX_ENUM_UNIVERSE
        if dense:
            index = np.full(1 << n, -1, dtype=np.intp)
            index[np.array(masks, dtype=np.int64)] = np.arange(size)
        start = 0
        for k in range(1, int(sizes.max()) + 1):
            first = start
            start += int(np.count_nonzero(sizes == k))  # the family is in size order
            if dense and 1 << k <= size:
                for b in range(1, k):
                    local = np.array(list(combinations(range(k), b)), dtype=np.intp)
                    total, step = (start - first) * len(local), _CHUNK // b
                    for s in range(0, total, step):
                        p = np.arange(s, min(s + step, total))
                        iA = first + p // len(local)
                        cols = members[iA[:, None], local[p % len(local)]]
                        iB = index[(1 << cols).sum(axis=1)]
                        keep = iB >= 0
                        if keep.any():
                            yield iA[keep], iB[keep], cols[keep]
                continue
            for iA in range(first, start):
                subsets = np.flatnonzero(~(member[:first] & ~member[iA]).any(axis=1))
                for b in range(1, k):
                    of_size, step = subsets[sizes[subsets] == b], _CHUNK // b
                    for s in range(0, len(of_size), step):
                        iB = of_size[s:s + step]
                        yield np.full(len(iB), iA), iB, members[iB, :b]


class _Split(NamedTuple):
    """What the split of the nested pairs finds."""

    failing: list[tuple[int, int]]  # exact mode: pairs with a nonzero residual, in scan order
    shares: _PairShares | None  # instance counts; None from a walk without rows
    support: list[int]  # supp p_A per set at the rule's eps, as a bitmask
    warp_checked: int  # pairs whose cut supp p_A ∩ B is nonempty
    warp_failing: list[tuple[int, int]]  # of those, where supp p_B differs from the cut


def _walk_pairs(
    index: _NestedPairs,
    support: list[int],
    rows: tuple[list[Value], list[list[Value]]] | None = None,
    misfits: Collection[int] | None = None,
) -> _Split:
    """Walk the nested pairs (B, A) in scan order, all or, on a complete family,
    those with a set among ``misfits`` (each misfit's proper subsets, and the
    misfits inside each other set that holds one; no other set is visited),
    for WARP off ``support``; given exact rows (D_A, N_A), also for the pairs with a
    nonzero residual and, in a walk of every pair, for the shares (else None). The
    one Python scan of nested pairs; :func:`_split_pairs` calls it.
    """
    masks = index.masks
    full = (1 << len(index.labels)) - 1
    flagged = set(misfits or ())
    seen: dict[int, int] = {}  # the misfits walked so far, mask to index, ascending
    holders: set[int] = set()  # the sets that hold a walked misfit
    dens, nums = rows or ([], [])
    bits = [list(_iter_bits(m)) for m in masks] if rows and (misfits is None or flagged) else []
    failing: list[tuple[int, int]] = []
    warp_failing: list[tuple[int, int]] = []
    per_size = [0] * (len(index.labels) + 1)
    supported = odds = warp_checked = 0
    for iA in range(0 if misfits is None else min(flagged, default=len(masks)), len(masks)):
        if misfits is None:
            inner = index.subsets_of(iA)
        elif iA in flagged:
            mA = masks[iA]
            seen[mA] = iA
            if iA not in holders:  # else its supersets hold an earlier misfit already
                rest = sub = full ^ mA
                while sub:  # mark A's proper supersets, all in a complete family
                    holders.add(index.index[mA | sub])
                    sub = (sub - 1) & rest
            inner = index.subsets_of(iA)
        elif iA in holders:
            inner = index.subsets_of(iA, seen)
        else:
            continue
        support_A = support[iA]
        for iB in inner:
            cut = support_A & masks[iB]
            if rows:
                num_A, num_B, den_B = nums[iA], nums[iB], dens[iB]
                mass_AB = sum(map(num_A.__getitem__, bits[iB]))
                for j in bits[iB]:
                    if num_A[j] * den_B != num_B[j] * mass_AB:
                        failing.append((iB, iA))
                        break
            if rows and misfits is None:
                size = len(bits[iB])
                per_size[size] += 1
                supported += cut.bit_count()
                odds += size == 2 and cut != 0
            if cut:
                warp_checked += 1
                if support[iB] != cut:
                    warp_failing.append((iB, iA))
    shares = _PairShares.from_sizes(per_size, supported, odds) if rows and misfits is None else None
    return _Split(failing, shares, support, warp_checked, warp_failing)


def _split_pairs(
    index: _NestedPairs,
    support: list[int],
    rows: tuple[list[Value], list[list[Value]]] | None = None,
    misfits: Collection[int] | None = None,
) -> _Split:
    """The split of the nested pairs: WARP off ``support`` and, given exact rows,
    the pairs with a nonzero residual and the shares.

    On a complete family only the pairs with a misfit are walked, once, in scan
    order, and the counts come in closed form (:func:`_complete_counts`); see
    the module docstring. Rows need the Luce-fit misfits; without rows they
    default to the sets whose support is not Γ(A). Partial families walk every pair.
    """
    if not index.family.all_subsets:
        return _walk_pairs(index, support, rows)
    if misfits is None:
        misfits = _least_rank(index, support)[3]
    walked = _walk_pairs(index, support, rows, misfits)
    shares, warp_checked = _complete_counts(index.masks, support)
    return walked._replace(shares=shares if rows else None, warp_checked=warp_checked)


class _Collector:
    """Accumulates one axiom's violations under the witness cap."""

    def __init__(self, axiom: Axiom) -> None:
        self.axiom = axiom
        self.count = 0
        self.witnesses: list[Witness] = []

    def add(self, make: Callable[[], tuple], weight: int = 1) -> None:
        """Count a violation; under the cap, ``make()`` gives its witness's fields
        after the axiom: (sets, elements, lhs, rhs[, detail])."""
        self.count += weight
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append(Witness(self.axiom, *make()))

    def report(self, checked: int, complete: bool) -> AxiomReport:
        return AxiomReport(
            axiom=self.axiom,
            holds=self.count == 0,
            witnesses=tuple(self.witnesses),
            violation_count=self.count,
            pairs_checked=checked,
            family_complete=complete,
        )


def check_choice_axiom(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Does p(a, A) = p(a, B) * p(B, A) for every B ⊆ A in the family, a ∈ B?

    Witness layout: sets = (B, A), elements = (a,), lhs = p(a, A),
    rhs = p(a, B) * p(B, A).
    """
    view = _view or _RuleView(rule, eps, [Axiom.CHOICE_AXIOM])
    out = _Collector(Axiom.CHOICE_AXIOM)
    for iB, iA in view.scan_pairs(Axiom.CHOICE_AXIOM, out):
        mass_AB = view.mass(iA, view.masks[iB])
        den_B = view.dens[iB]
        for j in _iter_bits(view.masks[iB]):
            if view.eq(view.nums[iA][j] * den_B, view.nums[iB][j] * mass_AB):
                continue
            out.add(lambda iB=iB, iA=iA, j=j: (
                (view.sets[iB], view.sets[iA]), (view.labels[j],),
                view.p(iA, j), view.p(iB, j) * view.p_set(iA, view.masks[iB]),
            ))
    return out.report(view.shares().members, rule.family.all_subsets)


def check_odds_independence(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Do binary odds predict in-set odds: p(a,{a,b})/p(b,{a,b}) = p(a,A)/p(b,A)?

    Both sides are compared as extended ratios (a positive mass against a
    zero mass is infinite). The instances are the nested pairs ({a, b}, A)
    without 0/0 on A; each pair the split yields fails, since extended odds
    fix a distribution on two points. Witness layout: sets = ({a,b}, A),
    elements = (a, b), lhs and rhs the two :class:`ExtendedRatio` values.
    """
    view = _view or _RuleView(rule, eps, [Axiom.ODDS_INDEPENDENCE])
    out = _Collector(Axiom.ODDS_INDEPENDENCE)
    for iP, iA in view.scan_pairs(Axiom.ODDS_INDEPENDENCE, out):
        mP = view.masks[iP]
        if mP.bit_count() != 2:
            continue
        j, k = _iter_bits(mP)
        tol = 0.0 if view.exact else view.eps
        out.add(lambda iP=iP, iA=iA, j=j, k=k, tol=tol: (
            (view.sets[iP], view.sets[iA]), (view.labels[j], view.labels[k]),
            ExtendedRatio.from_parts(view.p(iP, j), view.p(iP, k), eps=tol),
            ExtendedRatio.from_parts(view.p(iA, j), view.p(iA, k), eps=tol),
        ))
    return out.report(view.shares().odds, rule.family.all_subsets)


def check_product_rule(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Does p(b, B) * p(a, A) = p(a, B) * p(b, A) for all B ⊆ A, a, b ∈ B?

    Witness layout: sets = (B, A), elements = (a, b), lhs = p(b,B) * p(a,A),
    rhs = p(a,B) * p(b,A).
    """
    view = _view or _RuleView(rule, eps, [Axiom.PRODUCT_RULE])
    out = _Collector(Axiom.PRODUCT_RULE)
    for iB, iA in view.scan_pairs(Axiom.PRODUCT_RULE, out):
        bits = list(_iter_bits(view.masks[iB]))
        num_A, num_B = view.nums[iA], view.nums[iB]
        for x, j in enumerate(bits):
            for k in bits[x + 1:]:
                if view.eq(num_B[k] * num_A[j], num_B[j] * num_A[k]):
                    continue
                out.add(lambda iB=iB, iA=iA, j=j, k=k: (
                    (view.sets[iB], view.sets[iA]), (view.labels[j], view.labels[k]),
                    view.p(iB, k) * view.p(iA, j), view.p(iB, j) * view.p(iA, k),
                ))
    return out.report(view.shares().member_pairs, rule.family.all_subsets)


def _failing_subsets(view: _RuleView, iB: int, iA: int) -> list[int]:
    """Nonempty C ⊆ B, as ascending submasks, where p(C, A) ≠ p(C, B)·p(B, A)."""
    mB = view.masks[iB]
    sums_A, sums_B = view.subset_sums(iA), view.subset_sums(iB)
    mass_AB = sums_A[mB]
    den_B = view.dens[iB]
    failing: list[int] = []
    sub = (0 - mB) & mB
    while sub:
        if not view.eq(sums_A[sub] * den_B, sums_B[sub] * mass_AB):
            failing.append(sub)
        sub = (sub - mB) & mB
    return failing


def check_set_choice_axiom(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
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
    view = _view or _RuleView(rule, eps, [Axiom.SET_CHOICE_AXIOM])
    out = _Collector(Axiom.SET_CHOICE_AXIOM)
    for iB, iA in view.scan_pairs(Axiom.SET_CHOICE_AXIOM, out):
        for mC in view.pairs.canonical(_failing_subsets(view, iB, iA)):
            out.add(lambda mC=mC, iB=iB, iA=iA: (
                (view.pairs.members(mC), view.sets[iB], view.sets[iA]), (),
                view.p_set(iA, mC), view.p_set(iB, mC) * view.p_set(iA, view.masks[iB]),
            ))
    return out.report(view.shares().subsets, rule.family.all_subsets)


def check_set_intersection_rule(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
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
    view = _view or _RuleView(rule, eps, [Axiom.SET_INTERSECTION_RULE])
    out = _Collector(Axiom.SET_INTERSECTION_RULE)
    for iB, iA in view.scan_pairs(Axiom.SET_INTERSECTION_RULE, out):
        mB = view.masks[iB]
        failing = set(_failing_subsets(view, iB, iA))
        total = len(failing) << (n - mB.bit_count())
        out.count += total
        named = (mY for mY in view.pairs.every_mask(n) if mY & mB in failing)
        for mY in islice(named, min(total, WITNESS_CAP - len(out.witnesses))):
            out.add(lambda mY=mY, mC=mY & mB, iB=iB, iA=iA: (
                (view.pairs.members(mY), view.sets[iB], view.sets[iA]), (),
                view.p_set(iA, mC), view.p_set(iB, mC) * view.p_set(iA, view.masks[iB]),
            ), weight=0)
    checked = view.shares().pairs << n
    return out.report(checked, rule.family.all_subsets)


def _check_zero_cells(
    view: _RuleView, axiom: Axiom, sets: Iterable[int], detail: str, complete: bool
) -> AxiomReport:
    """The scan behind positivity and full support: is p(a, A) > 0 for A in ``sets``?

    The zero cells are the members missing from the view's support masks;
    past the witness cap they are only counted.
    """
    support = view.support_masks(0 if view.exact else view.eps)
    out = _Collector(axiom)
    checked = 0
    for i in sets:
        checked += view.masks[i].bit_count()
        zeros = view.masks[i] & ~support[i]
        if len(out.witnesses) >= WITNESS_CAP:
            out.count += zeros.bit_count()
            continue
        for j in _iter_bits(zeros):
            out.add(lambda i=i, j=j: ((view.sets[i],), (view.labels[j],), view.p(i, j), None, detail))
    return out.report(checked, complete)


def check_positivity(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Is every binary probability p(a, {a, b}) strictly positive?

    Quantifies over the pair sets present in the family; the report's
    completeness flag is True only when every pair of the universe is there.
    Witness layout: sets = ({a,b},), elements = (a,), lhs = p(a, {a,b}),
    rhs = None (the requirement is positivity, not an identity).
    """
    view = _view or _RuleView(rule, eps)
    pairs = (i for i, P in enumerate(view.sets) if len(P) == 2)
    return _check_zero_cells(
        view, Axiom.POSITIVITY, pairs,
        "binary probability must be positive", rule.family.contains_all_pairs(),
    )


def check_full_support(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Does every alternative of every family set get positive probability?

    Witness layout: sets = (A,), elements = (a,), lhs = p(a, A), rhs = None.
    """
    view = _view or _RuleView(rule, eps)
    return _check_zero_cells(
        view, Axiom.FULL_SUPPORT, range(len(view.sets)),
        "support must be the whole set", rule.family.all_subsets,
    )


def check_warp(corr: ChoiceCorrespondence) -> AxiomReport:
    """Does Γ(B) = Γ(A) ∩ B whenever B ⊆ A in the family and the cut is nonempty?

    Witness layout: sets = (B, A), elements = (), lhs/rhs = None; the detail
    string spells out Γ(B) against Γ(A) ∩ B.
    """
    pairs = _NestedPairs(corr.family)
    gammas = [pairs.mask(corr.table[A].members) for A in pairs.sets]
    return _warp_report(pairs, _split_pairs(pairs, gammas))


def _warp_report(pairs: _NestedPairs, split: _Split) -> AxiomReport:
    """The WARP report of a split: its failing pairs, in scan order, and its instance count."""
    masks, sets, members, gammas = pairs.masks, pairs.sets, pairs.members, split.support
    out = _Collector(Axiom.WARP)
    for iB, iA in split.warp_failing:
        B, A = sets[iB], sets[iA]
        out.add(lambda B=B, A=A, chosen_B=gammas[iB], cut=gammas[iA] & masks[iB]: (
            (B, A), (), None, None, f"Γ({B})={members(chosen_B)} but Γ({A})∩{B}={members(cut)}",
        ))
    return out.report(split.warp_checked, pairs.family.all_subsets)


def check_renyi_conditioning(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """Does p(a, B) = p(a, A) / p(B, A) for all B ⊆ A and a in B ∩ supp p_A?

    Restricting a to the support of p_A keeps the denominator positive, so
    every instance is a genuine identity rather than a 0/0 convention.
    Witness layout: sets = (B, A), elements = (a,), lhs = p(a, B),
    rhs = p(a, A) / p(B, A).
    """
    view = _view or _RuleView(rule, eps, [Axiom.RENYI_CONDITIONING])
    out = _Collector(Axiom.RENYI_CONDITIONING)
    for iB, iA in view.scan_pairs(Axiom.RENYI_CONDITIONING, out):
        mass_AB = view.mass(iA, view.masks[iB])
        den_B = view.dens[iB]
        num_A, num_B = view.nums[iA], view.nums[iB]
        for j in _iter_bits(view.masks[iB]):
            if not view.positive(num_A[j]):
                continue
            if view.eq(num_B[j] * mass_AB, num_A[j] * den_B):
                continue
            out.add(lambda iB=iB, iA=iA, j=j: (
                (view.sets[iB], view.sets[iA]), (view.labels[j],),
                view.p(iB, j), view.p(iA, j) / view.p_set(iA, view.masks[iB]),
            ))
    return out.report(view.shares().supported, rule.family.all_subsets)


def _check_support_warp(
    rule: RandomChoiceRule, *, eps: float | None = None, _view: _RuleView | None = None
) -> AxiomReport:
    """WARP of the rule's support at the rule's own eps, from the view's split in
    exact mode and after the float pass; float WARP alone splits the support masks."""
    view = _view or _RuleView(rule)
    if view.exact or view._walked:
        return _warp_report(view.pairs, view._split())
    return _warp_report(view.pairs, _split_pairs(view.pairs, view.support_masks(rule.eps)))


# One entry per axiom, in report order; every rule-level checker call goes
# through this table.
_CHECKERS: dict[Axiom, Callable[..., AxiomReport]] = {
    Axiom.CHOICE_AXIOM: check_choice_axiom,
    Axiom.ODDS_INDEPENDENCE: check_odds_independence,
    Axiom.PRODUCT_RULE: check_product_rule,
    Axiom.SET_CHOICE_AXIOM: check_set_choice_axiom,
    Axiom.SET_INTERSECTION_RULE: check_set_intersection_rule,
    Axiom.POSITIVITY: check_positivity,
    Axiom.FULL_SUPPORT: check_full_support,
    Axiom.WARP: _check_support_warp,
    Axiom.RENYI_CONDITIONING: check_renyi_conditioning,
}


def _run_checkers(
    rule: RandomChoiceRule, axioms: Collection[Axiom], eps: float | None = None
) -> list[AxiomReport]:
    """Run the named checkers in the given order over one shared rule view."""
    view = _RuleView(rule, eps, axioms)
    return [_CHECKERS[axiom](rule, eps=eps, _view=view) for axiom in axioms]


def check_all(rule: RandomChoiceRule, *, eps: float | None = None) -> dict[Axiom, AxiomReport]:
    """Run every checker on the rule; WARP is applied to its support correspondence."""
    return dict(zip(_CHECKERS, _run_checkers(rule, _CHECKERS, eps)))


def replay_witness(
    subject: RandomChoiceRule | ChoiceCorrespondence,
    witness: Witness,
    *,
    eps: float | None = None,
) -> bool:
    """Re-evaluate a witness against the raw definitions; True means it is genuine.

    This path shares no arithmetic with the checkers but the tolerance test
    :func:`within_tolerance`: it works from the rule's probability lookups
    (or the correspondence) directly. The checkers read everything, witness
    values included, off the bitmask rows and never call these lookups, so a
    replay, or these lookups set beside a witness's ``lhs`` and ``rhs``, is an
    independent check of it. A WARP
    witness needs a :class:`ChoiceCorrespondence`; passing a rule checks its
    support correspondence instead.
    """
    if witness.axiom == Axiom.WARP:
        corr = subject if isinstance(subject, ChoiceCorrespondence) else support_correspondence(subject)
        B, A = witness.sets
        cut = ChoiceSet(a for a in corr.gamma(A) if a in B)
        return corr.gamma(B) != cut
    if not isinstance(subject, RandomChoiceRule):
        raise TypeError(f"{witness.axiom} witnesses replay against a rule")
    rule = subject
    exact = rule.mode == EXACT
    eps = rule.eps if eps is None else check_eps(eps)
    tol = 0.0 if exact else eps
    eq = lambda x, y: x == y if exact else within_tolerance(x, y, tol)
    pos = lambda v: v > 0 if exact else v > tol

    if witness.axiom == Axiom.CHOICE_AXIOM:
        (B, A), (a,) = witness.sets, witness.elements
        return not eq(rule.p(a, A), rule.p(a, B) * rule.p_set(B, A))
    if witness.axiom == Axiom.ODDS_INDEPENDENCE:
        (P, A), (a, b) = witness.sets, witness.elements
        lhs = ExtendedRatio.from_parts(rule.p(a, P), rule.p(b, P), eps=tol)
        rhs = ExtendedRatio.from_parts(rule.p(a, A), rule.p(b, A), eps=tol)
        if rhs.is_indeterminate:
            return False
        if lhs.kind != rhs.kind:
            return True
        return lhs.is_finite and not eq(lhs.value, rhs.value)
    if witness.axiom == Axiom.PRODUCT_RULE:
        (B, A), (a, b) = witness.sets, witness.elements
        return not eq(rule.p(b, B) * rule.p(a, A), rule.p(a, B) * rule.p(b, A))
    if witness.axiom == Axiom.SET_CHOICE_AXIOM:
        C, B, A = witness.sets
        return not eq(rule.p_set(C, A), rule.p_set(C, B) * rule.p_set(B, A))
    if witness.axiom == Axiom.SET_INTERSECTION_RULE:
        Y, B, A = witness.sets
        inter = [y for y in Y if y in B]
        return not eq(rule.p_set(inter, A), rule.p_set(Y, B) * rule.p_set(B, A))
    if witness.axiom == Axiom.POSITIVITY:
        (P,), (a,) = witness.sets, witness.elements
        return not pos(rule.p(a, P))
    if witness.axiom == Axiom.FULL_SUPPORT:
        (A,), (a,) = witness.sets, witness.elements
        return not pos(rule.p(a, A))
    if witness.axiom == Axiom.RENYI_CONDITIONING:
        (B, A), (a,) = witness.sets, witness.elements
        if not pos(rule.p(a, A)):
            return False
        return not eq(rule.p(a, B) * rule.p_set(B, A), rule.p(a, A))
    raise ValueError(f"unknown axiom {witness.axiom!r}")
