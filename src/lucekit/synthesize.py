"""Constructors for choice rules of the Luce form and the smoothed-logit limit.

Three levels: :func:`luce_rule` divides positive weights over whole sets,
:func:`general_luce_rule` divides them over a rational correspondence's
selection and puts zero elsewhere, and :func:`lambda_smoothed_rule` is the
multinomial logit with scores ``u/λ + α`` whose λ → 0 limit is the
correspondence form with Γ the argmax of ``u``; :func:`limit_check` measures
that convergence on a λ schedule.

Weights can be exact positive rationals (the first two constructors then
emit exact rules) or reals; smoothed rules are float-only because their
probabilities are ratios of exponentials.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .axioms import _least_rank, _NestedPairs, check_warp
from .core import (
    DEFAULT_EPS,
    EXACT,
    FLOAT,
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    RandomChoiceRule,
    Universe,
    Value,
    WeakOrder,
    _finite,
    _over_lcm,
    maximizers,
)
from .errors import NotRationalError


@dataclass(frozen=True)
class LuceWeights:
    """Positive weight v(a) per alternative, with α = ln v alongside.

    ``v`` drives all exact arithmetic; ``alpha`` is its float logarithm and
    is what the smoothed-logit constructor consumes. Weights built from
    exact rationals keep mode "exact"; weights built from α are float.
    """

    universe: Universe
    v: Mapping[str, Value]
    alpha: Mapping[str, float]
    mode: str

    def __init__(self, universe: Universe, v: Mapping[str, Value]) -> None:
        if set(v) != set(universe.alternatives):
            raise ValueError("weights must cover exactly the universe")
        exact = all(isinstance(w, (Fraction, int)) for w in v.values())
        vals: dict[str, Value] = {}
        for a in universe:
            if isinstance(v[a], (bool, str)):
                raise ValueError(f"weight for {a!r} must be a number, got {v[a]!r}")
            w = Fraction(v[a]) if exact else _finite(v[a])
            if not w > 0:
                raise ValueError(
                    f"weight for {a!r} must be positive and finite, got {reprlib.repr(v[a])}"
                )
            vals[a] = w
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "v", vals)
        object.__setattr__(self, "alpha", {a: _log(vals[a]) for a in universe})
        object.__setattr__(self, "mode", EXACT if exact else FLOAT)

    @classmethod
    def from_v(cls, universe: Universe, v: Mapping[str, Value]) -> "LuceWeights":
        return cls(universe, v)

    @classmethod
    def from_alpha(cls, universe: Universe, alpha: Mapping[str, float]) -> "LuceWeights":
        if set(alpha) != set(universe.alternatives):
            raise ValueError("alpha must cover exactly the universe")
        v = {}
        for a in universe:
            try:
                v[a] = math.exp(float(alpha[a]))
            except OverflowError:
                raise ValueError(f"weight for {a!r} overflows: alpha = {alpha[a]!r}") from None
        return cls(universe, v)

    @classmethod
    def uniform(cls, universe: Universe) -> "LuceWeights":
        return cls(universe, {a: Fraction(1) for a in universe})


def _log(w: Value) -> float:
    try:
        return math.log(w)
    except (OverflowError, ValueError):  # a rational beyond float range
        return math.log(w.numerator) - math.log(w.denominator)


def _validate_utility(universe: Universe, u: Mapping[str, float]) -> dict[str, float]:
    if set(u) != set(universe.alternatives):
        raise ValueError("utility must cover exactly the universe")
    out = {a: _finite(u[a]) for a in universe}
    for a, x in out.items():
        if math.isnan(x):
            raise ValueError(f"utility for {a!r} must be finite, got {reprlib.repr(u[a])}")
    return out


def _shared_rule(
    weights: LuceWeights, family: ChoiceFamily, chosen: Callable[[ChoiceSet], ChoiceSet]
) -> RandomChoiceRule:
    """p(a, A) = v(a) / Σ_{chosen(A)} v on chosen(A), zero elsewhere, summed in
    label order (float rows then do not depend on set hashing). Exact weights
    are scaled to integers w by one lcm: each cell is the pair (w_a, Σ w)."""
    v = weights.v
    exact = weights.mode == EXACT
    w = dict(zip(v, _over_lcm(v.values())[1])) if exact else v
    table = {}
    for A in family:
        G = chosen(A)
        total = sum(w[b] for b in G)
        if exact:
            table[A] = {a: (w[a], total) for a in G}
        else:
            table[A] = {a: w[a] / total if a in G else 0.0 for a in A}
    if exact:
        return RandomChoiceRule._of_pairs(family, table, DEFAULT_EPS)
    return RandomChoiceRule(family, table, mode=FLOAT)


def luce_rule(weights: LuceWeights, family: ChoiceFamily) -> RandomChoiceRule:
    """The fully supported rule p(a, A) = v(a) / sum of v over A."""
    if family.universe != weights.universe:
        raise ValueError("weights and family must share a universe")
    return _shared_rule(weights, family, lambda A: A)


def general_luce_rule(gamma: ChoiceCorrespondence, weights: LuceWeights) -> RandomChoiceRule:
    """Weights shared within gamma's selection, zero outside it.

    Only rational correspondences are accepted: when gamma fails the
    contraction-consistency check, the construction would land in the wider
    model class where none of this package's equivalences hold, so it is
    refused with the failing report attached. A gamma that is the maximizers
    of the order its pairs reveal (every pair present) needs no WARP scan.
    """
    if gamma.universe != weights.universe:
        raise ValueError("weights and correspondence must share a universe")
    pairs = _NestedPairs(gamma.family)
    chosen = [pairs.mask(gamma.gamma(A).members) for A in pairs.sets]
    if not (gamma.family.contains_all_pairs() and not _least_rank(pairs, chosen)[3]):
        report = check_warp(gamma)
        if not report.holds:
            raise NotRationalError(
                "correspondence violates contraction consistency; refusing to build "
                "a selective rule outside the Luce form",
                report=report,
            )
    return _shared_rule(weights, gamma.family, gamma.gamma)


def general_luce_rule_from_utility(
    u: Mapping[str, float], weights: LuceWeights, family: ChoiceFamily
) -> RandomChoiceRule:
    """As :func:`general_luce_rule` with gamma(A) the maximizers of ``u`` on A.

    The maximizers of a weak order are contraction-consistent by
    construction, so no WARP scan runs.
    """
    if family.universe != weights.universe:
        raise ValueError("weights and family must share a universe")
    util = _validate_utility(family.universe, u)
    order = WeakOrder.from_utility(family.universe, util)
    return _shared_rule(weights, family, lambda A: maximizers(order, A))


def _check_lambda(lam: float) -> float:
    if not (x := _finite(lam)) > 0.0:
        raise ValueError(f"noise level λ must be positive and finite, got {reprlib.repr(lam)}")
    return x


def lambda_smoothed_rule(
    u: Mapping[str, float],
    weights: LuceWeights,
    lam: float,
    family: ChoiceFamily,
) -> RandomChoiceRule:
    """Multinomial logit with scores u/λ + α; fully supported for every λ > 0.

    Exponentials are taken after subtracting the per-set maximum score, so
    small λ cannot overflow: off-maximizer shares underflow to exact zero
    instead, matching the λ → 0 limit.
    """
    if family.universe != weights.universe:
        raise ValueError("weights and family must share a universe")
    lam = _check_lambda(lam)
    util = _validate_utility(family.universe, u)
    scores = {a: util[a] / lam + weights.alpha[a] for a in family.universe}
    if not all(map(math.isfinite, scores.values())):
        raise ValueError(f"noise level λ={lam!r} is too small: u/λ overflows")
    table: dict[ChoiceSet, dict[str, float]] = {}
    for A in family:
        top = max(scores[a] for a in A)
        shares = {a: math.exp(scores[a] - top) for a in A}
        total = sum(shares.values())
        table[A] = {a: s / total for a, s in shares.items()}
    return RandomChoiceRule(family, table, mode=FLOAT)


@dataclass(frozen=True)
class LimitReport:
    """Sup-norm distances between smoothed rules and their λ → 0 target."""

    lambdas: tuple[float, ...]
    distances: tuple[float, ...]
    tolerance: float

    @property
    def final_distance(self) -> float:
        return self.distances[-1]

    @property
    def tail_monotone(self) -> bool:
        """Distances never increase over the second half of the schedule."""
        tail = self.distances[len(self.distances) // 2:]
        return all(x >= y for x, y in zip(tail, tail[1:]))

    @property
    def converged(self) -> bool:
        return self.tail_monotone and self.final_distance <= self.tolerance


def limit_check(
    u: Mapping[str, float],
    weights: LuceWeights,
    schedule: Iterable[float],
    family: ChoiceFamily,
    *,
    tolerance: float = 1e-6,
) -> LimitReport:
    """Measure sup-norm convergence of the smoothed rule to its λ → 0 target.

    The schedule must be strictly decreasing and positive, and the tolerance
    finite and nonnegative. The target is the correspondence-form rule at
    gamma = argmax of ``u``.
    """
    if not _finite(tolerance) >= 0:
        raise ValueError(f"tolerance must be finite and nonnegative, got {reprlib.repr(tolerance)}")
    lams = tuple(map(_check_lambda, schedule))
    if not lams:
        raise ValueError("schedule must be nonempty")
    if any(x <= y for x, y in zip(lams, lams[1:])):
        raise ValueError("schedule must be strictly decreasing")
    target = general_luce_rule_from_utility(u, weights, family).as_float()
    distances = []
    for lam in lams:
        smoothed = lambda_smoothed_rule(u, weights, lam, family)
        distances.append(
            max(
                abs(smoothed.p(a, A) - target.p(a, A))
                for A in family
                for a in A
            )
        )
    return LimitReport(lambdas=lams, distances=tuple(distances), tolerance=tolerance)
