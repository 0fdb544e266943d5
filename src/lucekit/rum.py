"""Random-preference samplers and the empirical rules they induce.

A sampler deterministically maps (seed, stream, draw index) to a strict
ranking of the universe, encoded as a rank vector (0 = top). Three samplers
live here: Gumbel tie-breaking around weights α (the classic logit
representation), its bounded arctangent transform combined with a utility
into a single independent-utility model whose argmax separates utility
levels deterministically, and lexicographic refinement of a weak order by
another sampler's draws.

In all three the top choice from a set A is the logit choice, shares
proportional to e^α, among the members of A the sampler lets win: its
``contenders``. A set's tally over n draws is therefore one multinomial
draw, Multinomial(n, p) with p_x = e^α_x / Σ e^α over the contenders, and
:func:`empirical_rule` draws it directly, never a ranking or a single top
choice, and yields a float-mode rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._kernels import rank_rows
from .core import (
    DEFAULT_EPS,
    FLOAT,
    ChoiceFamily,
    ChoiceSet,
    RandomChoiceRule,
    Universe,
    WeakOrder,
    maximizers,
)
from .synthesize import LuceWeights, _validate_utility


def _substream(seed: int, stream: int) -> np.random.Generator:
    # Seed sequences make (master seed, stream) pairs independent and make
    # per-set tallying reproducible regardless of evaluation order.
    return np.random.default_rng([int(seed), int(stream)])


class GumbelLuceSampler:
    """Ranks alternatives by α(x) + G_x with independent standard Gumbel G_x.

    The top choice from any set then follows the weights' logit shares, so
    empirical frequencies converge to ``luce_rule(weights)``.
    """

    def __init__(self, weights: LuceWeights, seed: int) -> None:
        self.weights = weights
        self.universe = weights.universe
        self.seed = int(seed)
        self._alpha = np.array(
            [weights.alpha[a] for a in self.universe], dtype=np.float64
        )

    def draw_scores(self, n_draws: int, stream: int = 0) -> np.ndarray:
        rng = _substream(self.seed, stream)
        gumbel = rng.gumbel(0.0, 1.0, size=(n_draws, len(self.universe)))
        return self._alpha[None, :] + gumbel

    def draw_ranks(self, n_draws: int, stream: int = 0) -> np.ndarray:
        return rank_rows(self.draw_scores(n_draws, stream))

    def contenders(self, A: ChoiceSet) -> tuple[str, ...]:
        """Members of ``A`` that can be its top choice: all of them."""
        return A.members


class IndependentRumSampler:
    """Independent utilities U_x = u(x) + r·V_x with V_x a bounded logit noise.

    V_x = (2/π)·arctan(α(x) + G_x) lies in (−1, 1) and preserves the Gumbel
    ranking within a utility level (arctan is increasing). The common
    amplitude r is a third of the smallest gap between distinct u values, so
    u(x) > u(y) forces U_x > U_y in every draw: across levels the choice is
    deterministic, within a level it follows the weights' logit shares. With
    constant u there is nothing to separate and r defaults to 1.
    """

    def __init__(
        self, u: Mapping[str, float], weights: LuceWeights, seed: int
    ) -> None:
        self.universe = weights.universe
        self.weights = weights
        self.u = _validate_utility(self.universe, u)
        self.seed = int(seed)
        levels = sorted(set(self.u.values()))
        if len(levels) > 1:
            gap = min(b - a for a, b in zip(levels, levels[1:]))
            self.r = gap / 3.0
        else:
            self.r = 1.0
        self._u_vec = np.array([self.u[a] for a in self.universe], dtype=np.float64)
        self._alpha = np.array(
            [weights.alpha[a] for a in self.universe], dtype=np.float64
        )

    def draw_scores(self, n_draws: int, stream: int = 0) -> np.ndarray:
        rng = _substream(self.seed, stream)
        gumbel = rng.gumbel(0.0, 1.0, size=(n_draws, len(self.universe)))
        bounded = (2.0 / math.pi) * np.arctan(self._alpha[None, :] + gumbel)
        return self._u_vec[None, :] + self.r * bounded

    def draw_ranks(self, n_draws: int, stream: int = 0) -> np.ndarray:
        return rank_rows(self.draw_scores(n_draws, stream))

    def contenders(self, A: ChoiceSet) -> tuple[str, ...]:
        """Members of ``A`` on its top utility level; r = gap/3 bars the rest."""
        top = max(self.u[a] for a in A)
        return tuple(a for a in A if self.u[a] == top)


class LexSampler:
    """Refines a weak order draw-by-draw with another sampler's rankings.

    In each draw, alternatives are compared first by the order's rank and
    only within its indifference classes by the base draw, so the top choice
    from A is the base draw's top choice among the order's maximizers of A.
    """

    def __init__(self, first: WeakOrder, base) -> None:
        if first.universe != base.universe:
            raise ValueError("order and base sampler must share a universe")
        self.first = first
        self.base = base
        self.universe = base.universe
        # Tallies draw on the base sampler's weights and substreams.
        self.seed = base.seed
        self._alpha = base._alpha
        self._first_ranks = np.array(
            [first.rank(a) for a in self.universe], dtype=np.int64
        )

    def draw_ranks(self, n_draws: int, stream: int = 0) -> np.ndarray:
        base_ranks = self.base.draw_ranks(n_draws, stream)
        k = base_ranks.shape[1]
        # Composite sort key: order rank is the major digit, base rank the
        # minor one; keys are distinct within a row because base ranks are.
        keys = self._first_ranks[None, :] * k + base_ranks
        return rank_rows(-keys.astype(np.float64))

    def contenders(self, A: ChoiceSet) -> tuple[str, ...]:
        """The base sampler's contenders among the order's maximizers of ``A``."""
        return self.base.contenders(maximizers(self.first, A))


@dataclass(frozen=True)
class EmpiricalRule:
    """Top-choice tallies per family set plus the frequency rule they induce."""

    family: ChoiceFamily
    counts: Mapping[ChoiceSet, Mapping[str, int]]
    n_draws: int

    @property
    def universe(self) -> Universe:
        return self.family.universe

    def as_rule(self, eps: float = DEFAULT_EPS) -> RandomChoiceRule:
        table = {
            A: {a: self.counts[A][a] / self.n_draws for a in A} for A in self.family
        }
        return RandomChoiceRule(self.family, table, mode=FLOAT, eps=eps)


def lex_compose(first: WeakOrder, second: WeakOrder) -> WeakOrder:
    """Order by ``first``, breaking its ties by ``second``."""
    if first.universe != second.universe:
        raise ValueError("orders must share a universe")
    width = second.num_classes
    return WeakOrder(
        first.universe,
        {a: first.rank(a) * width + second.rank(a) for a in first.universe},
    )


# numpy's multinomial holds the draw count in a C long.
_MAX_DRAWS = 2**63 - 1


def empirical_rule(sampler, family: ChoiceFamily, n_draws: int) -> EmpiricalRule:
    """Tally each set's top choice over ``n_draws`` independent draws.

    A set with a single contender (``sampler.contenders(A)``) gets all
    ``n_draws`` and no random numbers. Otherwise its tally is one draw of
    Multinomial(n_draws, p) over the contenders, p_x = e^α_x / Σ e^α (the
    logit shares, McFadden 1974), which is the law of the samplers' own top
    choices; a contender more than about 745 behind the leader has p_x = 0.
    Each family set draws from its own substream (indexed by family
    position), so tallies are independent across sets and reproducible for
    a fixed sampler seed; they are not the top choices of ``draw_ranks``
    under that seed. Time and memory grow with the sets' sizes, not with
    ``n_draws``, which may be at most 2**63 − 1.
    """
    if family.universe != sampler.universe:
        raise ValueError("sampler and family must share a universe")
    if isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer)) or n_draws < 1:
        raise ValueError(f"n_draws must be a positive int, got {n_draws!r}")
    if n_draws > _MAX_DRAWS:
        raise ValueError(f"n_draws must be at most 2**63 - 1, got {n_draws!r}")
    n_draws = int(n_draws)
    index = family.universe.index
    counts: dict[ChoiceSet, dict[str, int]] = {}
    for A in family:
        names = sampler.contenders(A)
        row = dict.fromkeys(A.members, 0)
        if len(names) == 1:
            row[names[0]] = n_draws
        else:
            alpha = sampler._alpha[[index(a) for a in names]]
            w = np.exp(alpha - alpha.max())
            rng = _substream(sampler.seed, family.position(A))
            row.update(zip(names, rng.multinomial(n_draws, w / w.sum()).tolist()))
        counts[A] = row
    return EmpiricalRule(family=family, counts=counts, n_draws=n_draws)
