"""Reference likelihoods and fit for the estimation tests: one set at a time.

``log_likelihood_and_gradient`` is the dict-based likelihood and gradient
that ``lucekit.estimate`` once exported. ``per_set_ll_grad_hess`` and
``reference_fit_alpha_mle`` are the evaluator and damped-Newton fit as they
were before the vectorized evaluator: a Python loop over the observed sets
with ``np.ix_``/``np.outer`` blocks for the Hessian. They are slow and simple
on purpose; ``test_estimate.py`` asserts that the package agrees with them.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from lucekit.core import ChoiceCorrespondence
from lucekit.estimate import (
    ALPHA_CLAMP,
    GRAD_TOL,
    MAX_ITER,
    REL_LL_TOL,
    ChoiceDataset,
    _components,
)


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


def per_set_ll_grad_hess(
    data: ChoiceDataset,
    gamma: ChoiceCorrespondence,
    index: Mapping[str, int],
    pseudo_count: float = 0.0,
):
    """The per-set evaluator over alternatives numbered by ``index``.

    Returns ``(ll_grad_hess, set_members, set_counts)``, where
    ``ll_grad_hess(alpha, want_hess)`` gives the log-likelihood, gradient
    and Fisher information Σ_A t_A (diag p − p pᵀ) of the counts plus
    ``pseudo_count`` on every in-support cell.
    """
    m = len(index)
    set_members: list[np.ndarray] = []
    set_counts: list[np.ndarray] = []
    for A in data.family:
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

    return ll_grad_hess, set_members, set_counts


def reference_fit_alpha_mle(
    data: ChoiceDataset,
    gamma: ChoiceCorrespondence,
    *,
    pseudo_count: float = 0.0,
    max_iter: int = MAX_ITER,
) -> dict:
    """The damped-Newton fit driven by ``per_set_ll_grad_hess``.

    Takes a contraction-consistent ``gamma`` holding every positive count
    and returns the fields the package's ``FitResult`` should match:
    ``alpha_hat``, ``log_likelihood``, ``converged``, ``separated``,
    ``components``, ``ll_path`` and ``iterations``, the last counted as the
    package does (accepted steps only), plus ``stop_reason`` when the
    backtracking was exhausted (else None).
    """
    components = _components(gamma)
    fitted = [a for group in components for a in group]
    index = {a: j for j, a in enumerate(fitted)}
    m = len(fitted)
    ll_grad_hess, set_members, set_counts = per_set_ll_grad_hess(
        data, gamma, index, pseudo_count
    )

    alpha = np.zeros(m)
    ll, grad, _ = ll_grad_hess(alpha, want_hess=False)
    ll_path = [ll]
    converged = False
    exhausted = False
    for _ in range(max_iter):
        if np.abs(grad).max() < GRAD_TOL:
            converged = True
            break
        _, _, hess = ll_grad_hess(alpha, want_hess=True)
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
            converged = bool(np.abs(grad).max() < GRAD_TOL)
            exhausted = True
            break
        ll_path.append(ll)
        prev, cur = ll_path[-2], ll_path[-1]
        if abs(cur - prev) <= REL_LL_TOL * (1.0 + abs(prev)):
            converged = True
            break
    else:
        converged = bool(np.abs(grad).max() < GRAD_TOL)

    informative = np.zeros(m, dtype=bool)
    chosen_total = np.zeros(m)
    for members, counts in zip(set_members, set_counts):
        if members.size >= 2:
            informative[members] = True
            chosen_total[members] += counts
    starved = {
        a for a in fitted if informative[index[a]] and chosen_total[index[a]] == 0.0
    }
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
    return {
        "alpha_hat": alpha_hat,
        "log_likelihood": float(ll),
        "converged": converged,
        "separated": separated,
        "components": components,
        "ll_path": tuple(ll_path),
        "iterations": len(ll_path) - 1,
        "stop_reason": "backtrack-exhausted" if exhausted else None,
    }
