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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .axioms import AxiomReport, check_warp
from .core import ChoiceCorrespondence, ChoiceFamily, ChoiceSet, Universe
from .errors import CountsOffSupportError, NotRationalError

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

    @property
    def family(self) -> ChoiceFamily:
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
    iteration, so ``iterations == len(ll_path) - 1``.
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


def _components(
    universe: Universe, gamma: ChoiceCorrespondence, observed: list[ChoiceSet]
) -> tuple[tuple[str, ...], ...]:
    """Connected pieces of the co-occurrence graph over identified alternatives."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for A in observed:
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


def log_likelihood_and_gradient(
    data: ChoiceDataset,
    gamma: ChoiceCorrespondence,
    alpha: Mapping[str, float],
) -> tuple[float, dict[str, float]]:
    """Multinomial-logit log-likelihood on the supports, and its gradient.

    ll(α) = Σ_A Σ_{a ∈ Γ(A)} count(a, A) · log( e^{α(a)} / Σ_{b ∈ Γ(A)} e^{α(b)} );
    ∂ll/∂α(a) = Σ_A ( count(a, A) − N_A · p_A(a) ) over sets with a ∈ Γ(A).
    """
    ll = 0.0
    grad = {a: 0.0 for a in alpha}
    for A in data.family:
        members = gamma.gamma(A).members
        counts = data.observations[A]
        scores = [alpha[a] for a in members]
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        denom = sum(exps)
        log_denom = top + math.log(denom)
        total = sum(counts.get(a, 0) for a in members)
        for a, s, e in zip(members, scores, exps):
            c = counts.get(a, 0)
            ll += c * (s - log_denom)
            grad[a] += c - total * (e / denom)
    return ll, grad


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
    frequency). Alternatives outside every observed support are reported
    with α̂ = 0 but are not identified by the data. ``_warp_report``, when
    given, is ``check_warp(gamma)`` already computed by the caller.
    """
    if gamma.family != data.family:
        raise ValueError("correspondence and dataset must cover the same sets")
    warp_report = check_warp(gamma) if _warp_report is None else _warp_report
    if not warp_report.holds:
        raise NotRationalError(
            "estimated support violates contraction consistency", report=warp_report
        )
    if pseudo_count < 0:
        raise ValueError("pseudo-count must be nonnegative")
    observed = list(data.family)
    for A in observed:
        chosen = set(gamma.gamma(A).members)
        for a, c in data.observations[A].items():
            if c > 0 and a not in chosen:
                raise CountsOffSupportError(
                    f"{c} choices of {a!r} from {A} fall outside the support {gamma.gamma(A)}"
                )

    components = _components(data.universe, gamma, observed)
    fitted = [a for group in components for a in group]
    index = {a: j for j, a in enumerate(fitted)}
    m = len(fitted)
    # Per-set member indices, effective counts, and totals.
    set_members: list[np.ndarray] = []
    set_counts: list[np.ndarray] = []
    for A in observed:
        members = gamma.gamma(A).members
        counts = np.array(
            [data.observations[A].get(a, 0) + pseudo_count for a in members],
            dtype=np.float64,
        )
        set_members.append(np.array([index[a] for a in members], dtype=np.int64))
        set_counts.append(counts)

    def ll_grad_hess(alpha: np.ndarray, want_hess: bool):
        ll = 0.0
        grad = np.zeros(m)
        hess = np.zeros((m, m)) if want_hess else None
        for members, counts in zip(set_members, set_counts):
            scores = alpha[members]
            top = scores.max()
            exps = np.exp(scores - top)
            denom = exps.sum()
            p = exps / denom
            total = counts.sum()
            ll += float(counts @ (scores - (top + math.log(denom))))
            grad[members] += counts - total * p
            if want_hess:
                block = total * (np.diag(p) - np.outer(p, p))
                hess[np.ix_(members, members)] += block
        return ll, grad, hess

    alpha = np.zeros(m)
    ll, grad, _ = ll_grad_hess(alpha, want_hess=False)
    ll_path = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.abs(grad).max() < GRAD_TOL:
            converged = True
            iterations -= 1
            break
        _, _, hess = ll_grad_hess(alpha, want_hess=True)
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
            break
        scale = 1.0
        while scale > 1e-8:
            candidate = alpha + scale * step
            new_ll, new_grad, _ = ll_grad_hess(candidate, want_hess=False)
            if new_ll >= ll:
                alpha, ll, grad = candidate, new_ll, new_grad
                break
            scale /= 2.0
        else:
            converged = np.abs(grad).max() < GRAD_TOL
            break
        ll_path.append(ll)
        if len(ll_path) >= 2:
            prev, cur = ll_path[-2], ll_path[-1]
            if abs(cur - prev) <= REL_LL_TOL * (1.0 + abs(prev)):
                converged = True
                break
    else:
        converged = bool(np.abs(grad).max() < GRAD_TOL)

    # An alternative never chosen in any set where the support offers a
    # genuine alternative has no finite maximizer: its gradient stays
    # negative all the way down. Singleton-support sets are uninformative
    # (their probability is 1 regardless of the weights), so they neither
    # starve nor rescue anything. The post-hoc clamp below catches any
    # other runaway direction.
    informative = np.zeros(m, dtype=bool)
    chosen_total = np.zeros(m)
    for members, counts in zip(set_members, set_counts):
        if members.size >= 2:
            informative[members] = True
            chosen_total[members] += counts
    starved = {
        a
        for a in fitted
        if informative[index[a]] and chosen_total[index[a]] == 0.0
    }

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
        ll, _, _ = ll_grad_hess(alpha, want_hess=False)
    alpha_hat = {a: 0.0 for a in data.universe}
    for a in fitted:
        alpha_hat[a] = float(alpha[index[a]])
    return FitResult(
        gamma_hat=gamma,
        alpha_hat=alpha_hat,
        log_likelihood=float(ll),
        converged=converged,
        warp_report=warp_report,
        separated=separated,
        components=components,
        ll_path=tuple(ll_path),
        iterations=iterations,
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
