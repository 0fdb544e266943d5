"""Estimating support and tie-breaking weights from choice-count data.

The pipeline mirrors identification: supports come from positive frequency
(:func:`support_from_counts`, with the contraction-consistency verdict
attached because finite samples can violate it), and weights come from a
within-support multinomial-logit maximum likelihood
(:func:`fit_alpha_mle`). Only within-component differences of α are
identified, where components are connected pieces of the "appear together
in some estimated support" graph; the reported α̂ pins the lexicographically
smallest member of each component at zero.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .axioms import AxiomReport, check_warp
from .core import ChoiceCorrespondence, ChoiceFamily, ChoiceSet, Universe, _finite
from .errors import CountsOffSupportError, NotRationalError

# numpy loads inside the fit only: a dataset or a fit result needs none.
if TYPE_CHECKING:
    import numpy as np

REL_LL_TOL = 1e-10
GRAD_TOL = 1e-8
ALPHA_CLAMP = 30.0
MAX_ITER = 500


@dataclass(frozen=True)
class ChoiceDataset:
    """Nonnegative choice counts per observed set over one universe."""

    universe: Universe
    observations: Mapping[ChoiceSet, Mapping[str, int]]

    def __init__(
        self,
        universe: Universe,
        observations: Mapping[ChoiceSet, Mapping[str, int]],
    ) -> None:
        if not observations:
            raise ValueError("dataset must contain at least one observed set")
        canon: dict[ChoiceSet, dict[str, int]] = {}
        for A, row in observations.items():
            for a in A:
                if a not in universe:
                    raise ValueError(f"{A} contains {a!r}, not in the universe")
            unknown = set(row) - set(A.members)
            if unknown:
                raise ValueError(f"counts assigned outside {A}: {sorted(unknown)}")
            counts = {}
            for a in A:
                raw = row.get(a, 0)
                if isinstance(raw, bool):
                    raise ValueError(f"count for {a!r} in {A} must be an integer")
                try:
                    counts[a] = operator.index(raw)
                except TypeError:
                    raise ValueError(
                        f"count for {a!r} in {A} must be an integer, got {raw!r}"
                    ) from None
            if any(c < 0 for c in counts.values()):
                raise ValueError(f"negative count in {A}")
            if sum(counts.values()) < 1:
                raise ValueError(f"observed set {A} has no choices recorded")
            canon[A] = counts
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "observations", canon)

    @cached_property
    def family(self) -> ChoiceFamily:
        """The observed sets, built on first use and shared by every later reader."""
        return ChoiceFamily(self.universe, self.observations.keys())

    def total(self, A: ChoiceSet) -> int:
        return sum(self.observations[A].values())


@dataclass(frozen=True)
class FitResult:
    """Estimated support, normalized weights, and the optimizer's trace.

    ``alpha_hat`` is None when the estimated support fails contraction
    consistency (see ``warp_report``); no weights are identified then.
    ``separated`` lists alternatives whose maximum likelihood diverges:
    those never chosen in any set whose support offers competition, plus
    any coordinate that still escaped ±30 after normalization (all
    reported values are clamped into that band). ``converged`` is True only
    when the optimizer met its tolerance and nothing separated. ``ll_path``
    holds the starting log-likelihood followed by one value per accepted
    iteration, so ``iterations == len(ll_path) - 1``. ``stop_reason`` is
    why the optimizer stopped: ``"grad-tol"``, ``"ll-tol"`` (likelihood
    stalled), ``"backtrack-exhausted"`` (no step size raised it),
    ``"max-iter"``, ``"singular"`` (every ridge failed) or ``"separated"``;
    None when no optimizer ran.
    """

    gamma_hat: ChoiceCorrespondence
    alpha_hat: Mapping[str, float] | None
    log_likelihood: float
    converged: bool
    warp_report: AxiomReport
    separated: tuple[str, ...] = ()
    components: tuple[tuple[str, ...], ...] = ()
    ll_path: tuple[float, ...] = ()
    iterations: int = 0
    stop_reason: str | None = None


def support_from_counts(
    data: ChoiceDataset,
) -> tuple[ChoiceCorrespondence, AxiomReport]:
    """Positive-frequency support per observed set, with its WARP verdict.

    Finite samples can produce supports that violate contraction
    consistency; the verdict is reported alongside, never repaired.
    """
    family = data.family
    table = {
        A: ChoiceSet(a for a, c in data.observations[A].items() if c > 0)
        for A in family
    }
    gamma = ChoiceCorrespondence(family, table)
    return gamma, check_warp(gamma)


def _components(gamma: ChoiceCorrespondence) -> tuple[tuple[str, ...], ...]:
    """Connected pieces of the co-occurrence graph over identified alternatives."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for A in gamma.family:
        members = gamma.gamma(A).members
        for a in members:
            parent.setdefault(a, a)
        for a in members[1:]:
            ra, rb = find(members[0]), find(a)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, list[str]] = {}
    for a in sorted(parent):
        groups.setdefault(find(a), []).append(a)
    return tuple(tuple(groups[root]) for root in sorted(groups))


class _Cells:
    """The observed supports laid end to end, one cell per (set, member).

    Cell k is member ``flat[k]`` (its position in ``index``) of observed set
    ``cell_set[k]`` and holds its count plus the pseudo-count; each set's
    ``sizes[s]`` cells start at ``starts[s]``. ``pair_i``/``pair_j`` list
    every ordered pair of cells of one set, i == j included, and
    ``pair_key`` the Hessian entry flat[i]·m + flat[j] each pair adds to.
    """

    def __init__(
        self, data: ChoiceDataset, gamma: ChoiceCorrespondence, index: dict, pseudo: float
    ) -> None:
        import numpy as np

        flat: list[int] = []
        counts: list[int] = []
        sizes: list[int] = []
        for A in data.family:
            support, row = gamma.gamma(A), data.observations[A]
            for a, c in row.items():
                if c > 0 and a not in support:
                    raise CountsOffSupportError(
                        f"{c} choices of {a!r} from {A} fall outside the support {support}"
                    )
            flat.extend(index[a] for a in support)
            counts.extend(row.get(a, 0) for a in support)
            sizes.append(len(support))
        self.m = m = len(index)
        self.flat = np.array(flat, dtype=np.intp)
        self.counts = np.array(counts, dtype=np.float64) + float(pseudo)
        self.sizes = sizes = np.array(sizes, dtype=np.intp)
        self.starts = starts = np.cumsum(sizes) - sizes
        self.cell_set = np.repeat(np.arange(sizes.size), sizes)
        self.totals = np.add.reduceat(self.counts, starts)
        squares = sizes * sizes
        pair_set = np.repeat(np.arange(sizes.size), squares)
        offset = np.arange(pair_set.size) - np.repeat(np.cumsum(squares) - squares, squares)
        self.pair_i = starts[pair_set] + offset // sizes[pair_set]
        self.pair_j = starts[pair_set] + offset % sizes[pair_set]
        self.pair_key = self.flat[self.pair_i] * m + self.flat[self.pair_j]

    def ll_grad_hess(self, alpha: np.ndarray, want_hess: bool):
        """Log-likelihood, gradient and, if wanted, the Fisher information
        Σ_A t_A (diag p − p pᵀ) at α, in one vectorized pass over the cells."""
        import numpy as np

        flat, cell_set, m = self.flat, self.cell_set, self.m
        scores = alpha[flat]
        shifted = scores - np.maximum.reduceat(scores, self.starts)[cell_set]
        exps = np.exp(shifted)
        denom = np.add.reduceat(exps, self.starts)
        p = exps / denom[cell_set]
        ll = float(self.counts @ shifted - self.totals @ np.log(denom))
        tp = self.totals[cell_set] * p
        grad = np.bincount(flat, weights=self.counts - tp, minlength=m)
        if not want_hess:
            return ll, grad, None
        pair_w = -tp[self.pair_i] * p[self.pair_j]
        hess = np.bincount(self.pair_key, weights=pair_w, minlength=m * m).reshape(m, m)
        hess[np.diag_indices(m)] += np.bincount(flat, weights=tp, minlength=m)
        return ll, grad, hess


def fit_alpha_mle(
    data: ChoiceDataset,
    gamma: ChoiceCorrespondence,
    *,
    pseudo_count: float = 0.0,
    max_iter: int = MAX_ITER,
    _warp_report: AxiomReport | None = None,
) -> FitResult:
    """Maximize the within-support logit likelihood by damped Newton steps.

    The program is concave; each step solves the ridge-stabilized normal
    equations and backtracks until the log-likelihood does not decrease.
    The correspondence must be contraction-consistent and every positive
    count must lie inside it. ``pseudo_count`` is added to every in-support
    cell before fitting (off by default so supports mean positive
    frequency); it must be a finite nonnegative real that keeps the
    log-likelihood finite, else ``ValueError``, and so must the counts.
    Alternatives outside every observed support are reported with α̂ = 0
    but are not identified by the data. ``_warp_report``, when given, is
    ``check_warp(gamma)`` already computed by the caller. Each likelihood,
    gradient and Hessian evaluation is one vectorized pass over the
    supports laid end to end.
    """
    import numpy as np

    if gamma.family != data.family:
        raise ValueError("correspondence and dataset must cover the same sets")
    warp_report = check_warp(gamma) if _warp_report is None else _warp_report
    if not warp_report.holds:
        raise NotRationalError(
            "estimated support violates contraction consistency", report=warp_report
        )
    if not _finite(pseudo_count) >= 0:
        raise ValueError(f"pseudo-count must be a finite nonnegative number, got {pseudo_count!r}")
    total = sum(sum(row.values()) for row in data.observations.values())
    # The log-likelihood rises from −Σ_A n_A·ln|Γ(A)| ≥ −total·ln(max |Γ(A)|).
    if total > sys.float_info.max / max(1.0, *(math.log(len(G)) for G in gamma.table.values())):
        from decimal import Decimal

        raise ValueError(f"choice counts totalling {Decimal(total):.3e} overflow the float fit")

    components = _components(gamma)
    fitted = [a for group in components for a in group]
    index = {a: j for j, a in enumerate(fitted)}
    m = len(fitted)
    alpha = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):
        cells = _Cells(data, gamma, index, pseudo_count)
        ll, grad, _ = cells.ll_grad_hess(alpha, want_hess=False)
    if not math.isfinite(ll):
        raise ValueError(f"pseudo-count {pseudo_count!r} overflows the log-likelihood")
    ll_path = [ll]
    stop_reason = "max-iter"
    for _ in range(max_iter):
        if np.abs(grad).max() < GRAD_TOL:
            stop_reason = "grad-tol"
            break
        _, _, hess = cells.ll_grad_hess(alpha, want_hess=True)
        # The likelihood is shift-invariant within components, so the
        # curvature matrix is singular along those directions; a small
        # ridge makes the solve well-posed without moving the optimum.
        ridge = 1e-10 * max(1.0, float(np.trace(hess)) / max(m, 1))
        step = None
        for _ in range(8):
            try:
                step = np.linalg.solve(hess + ridge * np.eye(m), grad)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        if step is None:
            stop_reason = "singular"
            break
        scale = 1.0
        while scale > 1e-8:
            candidate = alpha + scale * step
            new_ll, new_grad, _ = cells.ll_grad_hess(candidate, want_hess=False)
            if new_ll >= ll:
                alpha, ll, grad = candidate, new_ll, new_grad
                break
            scale /= 2.0
        else:
            stop_reason = "backtrack-exhausted"
            break
        ll_path.append(ll)
        if abs(ll_path[-1] - ll_path[-2]) <= REL_LL_TOL * (1.0 + abs(ll_path[-2])):
            stop_reason = "ll-tol"
            break
    converged = stop_reason == "ll-tol" or bool(np.abs(grad).max() < GRAD_TOL)

    # An alternative never chosen in any set where the support offers a
    # genuine alternative has no finite maximizer: its gradient stays
    # negative all the way down. Singleton-support sets are uninformative
    # (their probability is 1 regardless of the weights), so they neither
    # starve nor rescue anything. The post-hoc clamp below catches any
    # other runaway direction.
    multi = cells.sizes[cells.cell_set] >= 2
    informative = np.bincount(cells.flat[multi], minlength=m) > 0
    chosen = np.bincount(cells.flat, weights=np.where(multi, cells.counts, 0.0), minlength=m)
    starved = {fitted[j] for j in np.flatnonzero(informative & (chosen == 0.0))}

    # Pin each component at zero on its lexicographically smallest
    # non-starved member. One always exists: a component is either linked
    # through a multi-member support (whose observed set contributes at
    # least one in-support choice) or is a lone unidentified alternative.
    for group in components:
        rep = next(a for a in group if a not in starved)
        shift = alpha[index[rep]]
        for a in group:
            alpha[index[a]] -= shift
    escaped = {a for a in fitted if abs(alpha[index[a]]) > ALPHA_CLAMP}
    separated = tuple(sorted(starved | escaped))
    if separated:
        alpha = np.clip(alpha, -ALPHA_CLAMP, ALPHA_CLAMP)
        converged = False
        stop_reason = "separated"
        ll, _, _ = cells.ll_grad_hess(alpha, want_hess=False)
    alpha_hat = {a: float(alpha[index[a]]) if a in index else 0.0 for a in data.universe}
    return FitResult(
        gamma_hat=gamma,
        alpha_hat=alpha_hat,
        log_likelihood=float(ll),
        converged=converged,
        warp_report=warp_report,
        separated=separated,
        components=components,
        ll_path=tuple(ll_path),
        iterations=len(ll_path) - 1,
        stop_reason=stop_reason,
    )


def fit(data: ChoiceDataset, *, pseudo_count: float = 0.0) -> FitResult:
    """Estimate support from positive frequency, then weights by MLE.

    When the estimated support fails contraction consistency there is no
    Luce structure to estimate: the result carries the failing report and
    ``alpha_hat`` is None.
    """
    gamma, warp_report = support_from_counts(data)
    if not warp_report.holds:
        return FitResult(
            gamma_hat=gamma,
            alpha_hat=None,
            log_likelihood=float("nan"),
            converged=False,
            warp_report=warp_report,
        )
    return fit_alpha_mle(data, gamma, pseudo_count=pseudo_count, _warp_report=warp_report)
