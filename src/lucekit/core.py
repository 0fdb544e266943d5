"""Domain types for finite-universe stochastic choice.

Everything here is immutable after construction and safe to share across
threads. Exact rules carry rational probabilities, kept as integer numerators
over one denominator per set and read as :class:`fractions.Fraction`, and all
identities on them are decided exactly; float rules carry an explicit
comparison tolerance ``eps``. All iteration is in lexicographic label order
so that derived reports and witnesses are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Collection, Iterable, Iterator, Mapping
from typing import Union

from .errors import FamilySizeError, SubsetViolationError, UnknownChoiceSetError

Value = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS = 1e-9

# Enumerating all subsets (or all Y <= X in the set-intersection checker) is
# exponential in the universe size; refuse past this point.
MAX_ENUM_UNIVERSE = 16


def _finite(x: object) -> float:
    """``x`` as a float if it is a real number (a bool is not) that is finite as a float,
    else NaN. Every range test (``y > 0``, ``y >= 0``) is false on NaN, so each caller
    refuses a non-number, NaN, ±inf or a value beyond the float range with its own message.
    Every number that comes from outside is tested for finiteness here."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            return math.nan
        try:
            x = float(x)
        except OverflowError:  # an int or a rational beyond the float range
            return math.nan
    return x if math.isfinite(x) else math.nan


def check_eps(eps: float) -> float:
    """Return ``eps`` if it is a usable float tolerance, else raise ``ValueError``."""
    if not _finite(eps) > 0.0:
        raise ValueError("eps must be positive and finite")
    return eps


def within_tolerance(lhs, rhs, eps: float):
    """Float-mode equality: ``|lhs - rhs| <= eps * (1 + |lhs| + |rhs|)``.

    Every tolerant equality test of the package goes through here. The same
    expression works elementwise on numpy arrays with the same operations in
    the same order, so an array verdict equals the scalar one bit for bit.
    (A row's sum is checked against ``eps * |A|`` instead, in
    :class:`RandomChoiceRule`.)
    """
    return abs(lhs - rhs) <= eps * (1.0 + abs(lhs) + abs(rhs))


@dataclass(frozen=True)
class Universe:
    """Finite set of alternatives, stored in lexicographic label order."""

    alternatives: tuple[str, ...]

    def __init__(self, alternatives: Iterable[str]) -> None:
        labels = tuple(sorted(alternatives))
        if not labels:
            raise ValueError("universe must contain at least one alternative")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"labels must be nonempty strings, got {label!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "alternatives", labels)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.alternatives)

    def __iter__(self) -> Iterator[str]:
        return iter(self.alternatives)

    def __contains__(self, label: object) -> bool:
        return label in self._index  # type: ignore[attr-defined]

    def index(self, label: str) -> int:
        """Position of ``label`` in the lexicographic ordering."""
        return self._index[label]  # type: ignore[attr-defined]

    def subsets(self, *, min_size: int = 1) -> Iterator["ChoiceSet"]:
        """All subsets of at least ``min_size`` elements, in (size, labels) order."""
        if len(self) > MAX_ENUM_UNIVERSE:
            raise FamilySizeError(
                f"refusing to enumerate subsets of a {len(self)}-element universe "
                f"(limit {MAX_ENUM_UNIVERSE})"
            )
        for k in range(min_size, len(self) + 1):
            for combo in itertools.combinations(self.alternatives, k):
                yield ChoiceSet(combo)


@dataclass(frozen=True)
class ChoiceSet:
    """Nonempty set of alternative labels, stored sorted."""

    members: tuple[str, ...]

    def __init__(self, members: Iterable[str]) -> None:
        mem = tuple(sorted(members))
        if not mem:
            raise ValueError("choice sets must be nonempty")
        if len(set(mem)) != len(mem):
            raise ValueError(f"duplicate members in choice set: {mem}")
        object.__setattr__(self, "members", mem)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __contains__(self, label: object) -> bool:
        return label in self.members

    def __repr__(self) -> str:
        return "{" + ",".join(self.members) + "}"

    def issubset(self, other: "ChoiceSet") -> bool:
        return set(self.members) <= set(other.members)


def set_sort_key(cs: ChoiceSet) -> tuple[int, tuple[str, ...]]:
    """Canonical family ordering: by size, then lexicographically."""
    return (len(cs.members), cs.members)


@dataclass(frozen=True)
class ChoiceFamily:
    """Finite collection of choice sets over one universe.

    ``all_subsets`` is True exactly when the family is every nonempty subset
    of the universe; checkers report it so that vacuous passes on partial
    data stay visible.
    """

    universe: Universe
    sets: tuple[ChoiceSet, ...]
    all_subsets: bool

    def __init__(self, universe: Universe, sets: Iterable[ChoiceSet]) -> None:
        canon = sorted(sets, key=set_sort_key)
        if not canon:
            raise ValueError("family must contain at least one choice set")
        for prev, cur in zip(canon, canon[1:]):
            if prev.members == cur.members:
                raise ValueError(f"duplicate choice set in family: {cur}")
        labels = universe._index  # type: ignore[attr-defined]
        for cs in canon:
            if not all(map(labels.__contains__, cs.members)):
                a = next(a for a in cs.members if a not in labels)
                raise ValueError(f"{cs} contains {a!r}, not in the universe")
        complete = len(canon) == 2 ** len(universe) - 1
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "sets", tuple(canon))
        object.__setattr__(self, "all_subsets", complete)
        object.__setattr__(self, "_pos", {cs: i for i, cs in enumerate(canon)})

    @classmethod
    def of_all_subsets(cls, universe: Universe) -> "ChoiceFamily":
        return cls(universe, universe.subsets())

    @classmethod
    def of_pairs(cls, universe: Universe) -> "ChoiceFamily":
        """All two-element sets plus the full universe."""
        sets = {ChoiceSet(pair) for pair in itertools.combinations(universe, 2)}
        return cls(universe, sets | {ChoiceSet(universe.alternatives)})

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[ChoiceSet]:
        return iter(self.sets)

    def __contains__(self, cs: object) -> bool:
        return cs in self._pos  # type: ignore[attr-defined]

    def position(self, cs: ChoiceSet) -> int:
        """Stable index of ``cs`` in the canonical ordering."""
        try:
            return self._pos[cs]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownChoiceSetError(f"{cs} is not in the family") from None

    def contains_all_pairs(self) -> bool:
        if len(self.universe) < 2:
            return True
        return all(
            ChoiceSet(pair) in self
            for pair in itertools.combinations(self.universe, 2)
        )


def _fold_ascending(values, total=0):
    """Σ of ``values`` added left to right onto ``total``, alike on every Python: the
    one label-order fold (builtin ``sum`` compensates float sums from 3.12 on)."""
    for value in values:
        total = total + value
    return total


def _over_lcm(values: Collection[Fraction]) -> tuple[int, list[int]]:
    """(D, N): ``values`` as integer numerators N over D, the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _as_exact(row: Mapping[str, object], cs: ChoiceSet) -> dict[str, tuple[int, int]]:
    """An exact row's cells as {label: (numerator, denominator)}, checked in member order."""
    for a in cs.members:
        if not isinstance(x := row.get(a, 0), (Fraction, int)) or isinstance(x, bool):
            raise ValueError(
                f"exact rules need Fraction or int probabilities, got {type(x).__name__} at ({a}, {cs})"
            )
    return {a: (x.numerator, x.denominator) for a, x in row.items()}


def _as_float(row: Mapping[str, object], cs: ChoiceSet) -> list[float]:
    """A float row's cells, in member order; a number beyond the float range reads as NaN."""
    cells = list(map(row.get, cs.members, _FLOAT_ZEROS))
    for a, x in zip(cs.members, cells):
        if isinstance(x, (bool, str)):
            raise ValueError(f"float cells must be numbers, got {type(x).__name__} at ({a}, {cs})")
    try:
        return list(map(float, cells))
    except OverflowError:  # an int or a Fraction beyond the float range
        return list(map(_finite, cells))


def _cells(family: ChoiceFamily, value, dens: list, nums: list) -> dict[ChoiceSet, dict[str, Value]]:
    """Each set's row as {label: value(N_A[label], D_A)}, in family and label order."""
    position = family.universe._index  # type: ignore[attr-defined]
    return {
        A: {a: value(num[position[a]], den) for a in A.members}
        for A, den, num in zip(family.sets, dens, nums)
    }


_MISSING = object()
_FLOAT_ZEROS = itertools.repeat(0.0)
_DENOMINATOR_OF_PAIR = operator.itemgetter(1)

# A cell N / D as the table holds it: a Fraction, or the float N itself (D = 1.0).
_CELL = {EXACT: Fraction, FLOAT: operator.truediv}


@dataclass(frozen=True, init=False)
class RandomChoiceRule:
    """A probability distribution over each set of a family.

    The table holds one full row per family set (zeros included), keyed by
    member label. ``mode`` is ``"exact"`` (Fraction arithmetic, identities
    decided exactly) or ``"float"`` (tolerance ``eps``; a value is treated as
    positive when it exceeds ``eps``).

    Rows are checked and kept only as N_A (by universe position) over D_A:
    integer numerators over the least common denominator in exact mode, floats
    over 1.0 in float mode. Every reader works on them; ``table`` is built
    from them the first time it is read.
    """

    family: ChoiceFamily
    table: Mapping[ChoiceSet, Mapping[str, Value]]
    mode: str
    eps: float

    @functools.cached_property
    def table(self) -> dict[ChoiceSet, dict[str, Value]]:  # type: ignore[no-redef]
        """{set: {label: Fraction, or float}}, built from the rows when first read."""
        return _cells(self.family, _CELL[self.mode], self._dens, self._nums)  # type: ignore[attr-defined]

    def __init__(
        self,
        family: ChoiceFamily,
        table: Mapping[ChoiceSet, Mapping[str, Value]],
        mode: str = EXACT,
        eps: float = DEFAULT_EPS,
    ) -> None:
        self._set_rows(family, table, mode, eps, _as_exact if mode == EXACT else _as_float)

    @classmethod
    def _of_pairs(cls, family: ChoiceFamily, table: Mapping, eps: float) -> "RandomChoiceRule":
        """An exact rule from cells given as {label: (numerator, denominator > 0)},
        checked as the constructor checks Fraction cells, with the same errors."""
        rule = cls.__new__(cls)
        rule._set_rows(family, table, EXACT, eps, lambda row, cs: row)
        return rule

    def _set_rows(self, family, table, mode, eps, read) -> None:
        """Check ``table`` row by row in family order, reading each row's cells with
        ``read``, and keep it as rows: the one validation path of every rule."""
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        check_eps(eps)
        rows = [table.get(cs, _MISSING) for cs in family.sets]
        if len(table) + rows.count(_MISSING) > len(rows):  # a key outside the family
            extra = set(table) - set(family.sets)
            raise ValueError(f"table rows for sets outside the family: {sorted(map(repr, extra))}")
        position = family.universe._index  # type: ignore[attr-defined]
        dens: list[Value] = []  # D_A and N_A per set, in family order
        nums: list[list[Value]] = []
        for cs, row in zip(family.sets, rows):
            if row is _MISSING:
                raise ValueError(f"missing table row for {cs}")
            unknown = row.keys() - cs.members
            if unknown:
                raise ValueError(f"mass assigned outside {cs}: {sorted(unknown)}")
            num = [0 if mode == EXACT else 0.0] * len(position)
            if mode == EXACT:
                cells = read(row, cs)
                den = math.lcm(*map(_DENOMINATOR_OF_PAIR, cells.values()))
                for a, (n, d) in cells.items():
                    num[position[a]] = n * (den // d)
                common = math.gcd(den, *num)  # > 1 only for unreduced cells
                if common > 1:
                    den //= common
                    num = [x // common for x in num]
                total = sum(num)
                if not (total == den and min(num) >= 0):  # else no cell exceeds D_A either
                    if min(num) < 0 or max(num) > den:
                        raise ValueError(f"probabilities outside [0, 1] on {cs}")
                    raise ValueError(f"masses on {cs} sum to {Fraction(total, den)}, not 1")
            else:
                cells = read(row, cs)
                total = sum(cells)
                if not math.isfinite(total):  # a non-finite cell, or finite ones too large
                    for a in cs.members:
                        if math.isnan(_finite(x := row.get(a, 0.0))):
                            raise ValueError(f"non-finite probability {reprlib.repr(x)} at ({a}, {cs})")
                high = max(cells)
                if min(cells) < -eps or high > 1.0 + eps:
                    raise ValueError(f"probabilities outside [0, 1] (eps={eps}) on {cs}")
                if abs(total - 1.0) > eps * len(cs):
                    raise ValueError(f"masses on {cs} sum to {total}, not 1")
                if not high > eps:
                    raise ValueError(f"empty support on {cs}")
                for a, v in zip(cs.members, cells):
                    num[position[a]] = v
                den = 1.0
            dens.append(den)
            nums.append(num)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_nums", nums)

    def _row_of(self, A: ChoiceSet) -> tuple[list[Value], Value, Mapping[str, int]]:
        """(N_A, D_A, the universe positions) of set ``A``."""
        try:
            i = self.family._pos[A]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownChoiceSetError(f"{A} is not in the rule's family") from None
        return self._nums[i], self._dens[i], self.universe._index  # type: ignore[attr-defined]

    @property
    def universe(self) -> Universe:
        return self.family.universe

    @property
    def zero(self) -> Value:
        return Fraction(0) if self.mode == EXACT else 0.0

    def is_positive(self, value: Value) -> bool:
        """Mode-aware positivity: exact ``> 0``, float ``> eps``."""
        if self.mode == EXACT:
            return value > 0
        return value > self.eps

    def row(self, A: ChoiceSet) -> Mapping[str, Value]:
        return {a: self.p(a, A) for a in A.members}

    def p(self, a: str, A: ChoiceSet) -> Value:
        """Probability of choosing ``a`` from ``A`` (zero off ``A``)."""
        num, den, position = self._row_of(A)
        return _CELL[self.mode](num[position[a]], den) if a in A else self.zero

    def p_set(self, B: Iterable[str], A: ChoiceSet) -> Value:
        """Probability that the choice from ``A`` lands in ``B``, summed in ``B``'s order."""
        num, den, position = self._row_of(A)
        members = B.members if isinstance(B, ChoiceSet) else B
        mass = _fold_ascending((num[position[b]] for b in members if b in A), den * 0)
        return _CELL[self.mode](mass, den)

    def support(self, A: ChoiceSet) -> ChoiceSet:
        num, _, position = self._row_of(A)
        floor = 0 if self.mode == EXACT else self.eps
        return ChoiceSet(a for a in A.members if num[position[a]] > floor)

    def as_float(self, eps: float | None = None) -> "RandomChoiceRule":
        """Float-mode copy with tolerance ``eps`` (default: the rule's own).

        Exact values are converted to floats (N_A / D_A, correctly rounded, as
        ``float(Fraction)``). A float rule is copied with the new ``eps``, so
        the copy's support and checker verdicts can differ from the original's.
        """
        tol = self.eps if eps is None else eps
        table = _cells(self.family, operator.truediv, self._dens, self._nums)  # type: ignore[attr-defined]
        return RandomChoiceRule(self.family, table, mode=FLOAT, eps=tol)


@dataclass(frozen=True)
class ExtendedRatio:
    """Odds value: finite nonnegative, infinite, or indeterminate (0/0)."""

    kind: str  # "finite" | "infinite" | "indeterminate"
    value: Value | None = None

    FINITE = "finite"
    INFINITE = "infinite"
    INDETERMINATE = "indeterminate"

    @classmethod
    def from_parts(cls, num: Value, den: Value, *, eps: float = 0.0) -> "ExtendedRatio":
        """Classify ``num/den``; values at or below ``eps`` count as zero."""
        num_pos = num > eps
        den_pos = den > eps
        if den_pos:
            return cls(cls.FINITE, num / den if num_pos else num * 0)
        if num_pos:
            return cls(cls.INFINITE)
        return cls(cls.INDETERMINATE)

    @property
    def is_finite(self) -> bool:
        return self.kind == self.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == self.INFINITE

    @property
    def is_indeterminate(self) -> bool:
        return self.kind == self.INDETERMINATE

    def __repr__(self) -> str:
        if self.is_finite:
            return f"ExtendedRatio({self.value})"
        return f"ExtendedRatio({self.kind})"


@dataclass(frozen=True)
class WeakOrder:
    """Complete transitive preference, stored as dense rank levels (0 = best).

    Completeness and transitivity hold by construction: every alternative
    gets exactly one integer rank, and ``a`` is weakly preferred to ``b``
    exactly when ``rank(a) <= rank(b)``.
    """

    universe: Universe
    ranks: Mapping[str, int]

    def __init__(self, universe: Universe, ranks: Mapping[str, int]) -> None:
        if set(ranks) != set(universe.alternatives):
            raise ValueError("ranks must cover exactly the universe")
        levels = sorted(set(ranks.values()))
        dense = {level: i for i, level in enumerate(levels)}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "ranks", {a: dense[ranks[a]] for a in universe})

    @classmethod
    def trivial(cls, universe: Universe) -> "WeakOrder":
        """All alternatives indifferent."""
        return cls(universe, {a: 0 for a in universe})

    @classmethod
    def from_classes(cls, universe: Universe, classes: Iterable[Iterable[str]]) -> "WeakOrder":
        """Build from an ordered partition, best class first."""
        ranks: dict[str, int] = {}
        for level, group in enumerate(classes):
            for a in group:
                if a in ranks:
                    raise ValueError(f"{a!r} appears in two classes")
                ranks[a] = level
        return cls(universe, ranks)

    @classmethod
    def from_utility(cls, universe: Universe, u: Mapping[str, float]) -> "WeakOrder":
        """Rank by utility, higher values better."""
        if set(u) != set(universe.alternatives):
            raise ValueError("utility must cover exactly the universe")
        levels = sorted({u[a] for a in universe}, reverse=True)
        level_rank = {lev: i for i, lev in enumerate(levels)}
        return cls(universe, {a: level_rank[u[a]] for a in universe})

    def rank(self, a: str) -> int:
        return self.ranks[a]

    @property
    def num_classes(self) -> int:
        return max(self.ranks.values()) + 1

    def classes(self) -> tuple[tuple[str, ...], ...]:
        """Indifference classes, best first, members sorted."""
        out: list[list[str]] = [[] for _ in range(self.num_classes)]
        for a in self.universe:
            out[self.ranks[a]].append(a)
        return tuple(tuple(group) for group in out)

    def strictly_prefers(self, a: str, b: str) -> bool:
        return self.ranks[a] < self.ranks[b]

    def weakly_prefers(self, a: str, b: str) -> bool:
        return self.ranks[a] <= self.ranks[b]

    def indifferent(self, a: str, b: str) -> bool:
        return self.ranks[a] == self.ranks[b]


@dataclass(frozen=True)
class ChoiceCorrespondence:
    """Map from each family set to a nonempty subset of it."""

    family: ChoiceFamily
    table: Mapping[ChoiceSet, ChoiceSet]

    def __init__(self, family: ChoiceFamily, table: Mapping[ChoiceSet, ChoiceSet]) -> None:
        extra = set(table) - set(family.sets)
        if extra:
            raise ValueError(f"rows for sets outside the family: {sorted(map(repr, extra))}")
        canon: dict[ChoiceSet, ChoiceSet] = {}
        for cs in family:
            if cs not in table:
                raise ValueError(f"missing row for {cs}")
            chosen = table[cs]
            if not chosen.issubset(cs):
                raise ValueError(f"chosen set {chosen} not contained in {cs}")
            canon[cs] = chosen
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "table", canon)

    @property
    def universe(self) -> Universe:
        return self.family.universe

    def gamma(self, A: ChoiceSet) -> ChoiceSet:
        try:
            return self.table[A]
        except KeyError:
            raise UnknownChoiceSetError(f"{A} is not in the correspondence's family") from None


def support(rule: RandomChoiceRule, A: ChoiceSet) -> ChoiceSet:
    """Alternatives chosen from ``A`` with positive probability."""
    return rule.support(A)


def support_correspondence(rule: RandomChoiceRule) -> ChoiceCorrespondence:
    """The correspondence ``A -> supp p_A`` over the rule's family."""
    return ChoiceCorrespondence(rule.family, {A: rule.support(A) for A in rule.family})


def odds(rule: RandomChoiceRule, A: ChoiceSet, B: ChoiceSet, C: ChoiceSet) -> ExtendedRatio:
    """Odds of landing in ``B`` against ``C`` when choosing from ``A``."""
    if not B.issubset(A):
        raise SubsetViolationError(f"{B} is not a subset of {A}")
    if not C.issubset(A):
        raise SubsetViolationError(f"{C} is not a subset of {A}")
    eps = 0.0 if rule.mode == EXACT else rule.eps
    return ExtendedRatio.from_parts(rule.p_set(B, A), rule.p_set(C, A), eps=eps)


def pairwise_odds(rule: RandomChoiceRule, b: str, c: str) -> ExtendedRatio:
    """Binary odds ``p(b, {b,c}) / p(c, {b,c})``."""
    pair = ChoiceSet((b, c))
    return odds(rule, pair, ChoiceSet((b,)), ChoiceSet((c,)))


def maximizers(order: WeakOrder, A: ChoiceSet) -> ChoiceSet:
    """Rank-minimal elements of ``A`` under ``order``."""
    for a in A:
        if a not in order.universe:
            raise SubsetViolationError(f"{a!r} is not in the order's universe")
    best = min(order.rank(a) for a in A)
    return ChoiceSet(a for a in A if order.rank(a) == best)


def correspondence_from_order(order: WeakOrder, family: ChoiceFamily) -> ChoiceCorrespondence:
    """The correspondence picking the preference-maximal elements of each set."""
    if family.universe != order.universe:
        raise ValueError("order and family must share a universe")
    return ChoiceCorrespondence(family, {A: maximizers(order, A) for A in family})


def utility_from_order(order: WeakOrder) -> dict[str, int]:
    """A utility whose argmax on every set equals the order's maximizers."""
    return {a: -order.rank(a) for a in order.universe}
