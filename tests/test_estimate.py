import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    ChoiceCorrespondence,
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    CountsOffSupportError,
    LuceWeights,
    NotRationalError,
    Universe,
    WeakOrder,
    correspondence_from_order,
    fit,
    fit_alpha_mle,
    general_luce_rule,
    support_from_counts,
)
from lucekit.estimate import _Cells, _components

import helpers
from oracle_estimate import (
    log_likelihood_and_gradient,
    per_set_ll_grad_hess,
    reference_fit_alpha_mle,
)


def _dataset(universe, rows):
    return ChoiceDataset(universe, {ChoiceSet(k): v for k, v in rows.items()})


class TestChoiceDataset:
    def test_validation(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 3, "b": 1}, "a": {"a": 2}})
        assert data.total(ChoiceSet("ab")) == 4
        assert set(data.family.sets) == {ChoiceSet("ab"), ChoiceSet("a")}
        with pytest.raises(ValueError):
            _dataset(u, {"ab": {"a": -1, "b": 2}})
        with pytest.raises(ValueError):
            _dataset(u, {"ab": {"a": 1.5, "b": 2}})
        with pytest.raises(ValueError):
            _dataset(u, {"ab": {"z": 1}})
        with pytest.raises(ValueError):
            _dataset(u, {"ab": {"a": 0, "b": 0}})

    def test_refusal_texts(self):
        u = Universe("abc")
        cases = [
            ({}, "dataset must contain at least one observed set"),
            ({ChoiceSet("az"): {"a": 1}}, "{a,z} contains 'z', not in the universe"),
            ({ChoiceSet("ab"): {"a": True, "b": 1}}, "count for 'a' in {a,b} must be an integer"),
        ]
        for observations, message in cases:
            with pytest.raises(ValueError) as exc:
                ChoiceDataset(u, observations)
            assert str(exc.value) == message

    def test_zero_counts_allowed_if_set_has_observations(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 5, "b": 0}})
        assert data.total(ChoiceSet("ab")) == 5


class TestSupportFromCounts:
    def test_support_is_positives(self):
        u = Universe("abc")
        data = _dataset(u, {"abc": {"a": 4, "b": 2, "c": 0}, "ab": {"a": 1, "b": 1}})
        gamma, report = support_from_counts(data)
        assert gamma.gamma(ChoiceSet("abc")) == ChoiceSet("ab")
        assert gamma.gamma(ChoiceSet("ab")) == ChoiceSet("ab")
        assert report.holds

    def test_warp_violation_reported(self):
        u = Universe("abc")
        data = _dataset(
            u,
            {
                "ab": {"a": 9, "b": 0},
                "abc": {"a": 5, "b": 5, "c": 1},
            },
        )
        _, report = support_from_counts(data)
        assert not report.holds
        assert report.witnesses


class TestGradient:
    def test_matches_central_differences(self):
        rng = random.Random(0)
        u = helpers.universe_of(4)
        fam = ChoiceFamily.of_all_subsets(u)
        gamma = ChoiceCorrespondence(fam, {A: A for A in fam})
        data = _dataset(
            u,
            {
                "".join(A.members): {
                    a: rng.randint(0, 20) + (1 if i == 0 else 0)
                    for i, a in enumerate(A)
                }
                for A in fam
            },
        )
        h = 1e-6
        for trial in range(10):
            alpha = {a: rng.uniform(-2, 2) for a in u}
            ll, grad = log_likelihood_and_gradient(data, gamma, alpha)
            for a in u:
                up = dict(alpha)
                dn = dict(alpha)
                up[a] += h
                dn[a] -= h
                ll_up, _ = log_likelihood_and_gradient(data, gamma, up)
                ll_dn, _ = log_likelihood_and_gradient(data, gamma, dn)
                numeric = (ll_up - ll_dn) / (2 * h)
                denom = max(1.0, abs(grad[a]))
                assert abs(grad[a] - numeric) / denom < 1e-5


class TestFitAlphaMle:
    def test_binary_closed_form(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 30, "b": 60}})
        fam = data.family
        gamma = ChoiceCorrespondence(fam, {A: A for A in fam})
        res = fit_alpha_mle(data, gamma)
        assert res.converged
        assert res.alpha_hat["b"] - res.alpha_hat["a"] == pytest.approx(
            math.log(2), abs=1e-8
        )
        assert res.alpha_hat["a"] == 0.0  # lexicographically smallest pinned

    def test_exact_frequencies_are_a_fixed_point(self):
        u = Universe("abc")
        order = WeakOrder.trivial(u)
        gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
        w = LuceWeights.from_v(
            u, {"a": Fraction(1), "b": Fraction(2), "c": Fraction(4)}
        )
        rule = general_luce_rule(gamma, w)
        N = 840  # divisible by every row denominator
        counts = {
            A: {a: int(rule.p(a, A) * N) for a in A} for A in rule.family
        }
        data = ChoiceDataset(u, counts)
        res = fit(data)
        assert res.converged
        assert res.alpha_hat["b"] - res.alpha_hat["a"] == pytest.approx(
            math.log(2), abs=1e-7
        )
        assert res.alpha_hat["c"] - res.alpha_hat["a"] == pytest.approx(
            math.log(4), abs=1e-7
        )
        # Non-decreasing likelihood path: start value plus one per iteration.
        assert all(x <= y + 1e-12 for x, y in zip(res.ll_path, res.ll_path[1:]))
        assert res.iterations == len(res.ll_path) - 1

    def test_ll_value_matches_direct_formula(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 3, "b": 1}})
        gamma = ChoiceCorrespondence(data.family, {A: A for A in data.family})
        res = fit_alpha_mle(data, gamma)
        p = 3 / 4
        expect = 3 * math.log(p) + 1 * math.log(1 - p)
        assert res.log_likelihood == pytest.approx(expect, abs=1e-9)

    def test_counts_off_support_rejected(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 3, "b": 1}})
        gamma = ChoiceCorrespondence(
            data.family, {ChoiceSet("ab"): ChoiceSet("a")}
        )
        with pytest.raises(CountsOffSupportError):
            fit_alpha_mle(data, gamma)

    def test_family_mismatch_rejected(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 3, "b": 1}})
        other = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("a")])
        gamma = ChoiceCorrespondence(other, {A: A for A in other})
        with pytest.raises(ValueError):
            fit_alpha_mle(data, gamma)

    def test_non_warp_gamma_rejected(self):
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        table = {A: A for A in fam}
        table[ChoiceSet("ab")] = ChoiceSet("a")
        gamma = ChoiceCorrespondence(fam, table)
        data = _dataset(
            u,
            {"".join(A.members): {a: 1 for a in table[A]} for A in fam},
        )
        with pytest.raises(NotRationalError):
            fit_alpha_mle(data, gamma)


class TestSeparation:
    def test_starved_alternative_is_flagged(self):
        u = Universe("ab")
        # b is always available, never chosen: the MLE diverges.
        data = _dataset(u, {"ab": {"a": 50, "b": 0}, "b": {"b": 3}})
        gamma = ChoiceCorrespondence(
            data.family, {A: A for A in data.family}
        )
        res = fit_alpha_mle(data, gamma)
        assert res.separated == ("b",)
        assert not res.converged
        assert abs(res.alpha_hat["b"]) <= 30.0
        assert res.alpha_hat["a"] == 0.0

    def test_pseudo_count_restores_convergence(self):
        u = Universe("ab")
        data = _dataset(u, {"ab": {"a": 50, "b": 0}, "b": {"b": 3}})
        gamma = ChoiceCorrespondence(
            data.family, {A: A for A in data.family}
        )
        res = fit_alpha_mle(data, gamma, pseudo_count=0.5)
        assert res.separated == ()
        assert res.converged
        assert res.alpha_hat["b"] < res.alpha_hat["a"]


class TestComponents:
    def test_disconnected_supports_pin_one_rep_each(self):
        u = Universe("abcd")
        # {a,b} and {c,d} never co-occur inside a support.
        data = _dataset(
            u,
            {
                "ab": {"a": 10, "b": 20},
                "cd": {"c": 30, "d": 10},
            },
        )
        res = fit(data)
        assert res.converged
        assert set(res.components) == {("a", "b"), ("c", "d")}
        assert res.alpha_hat["a"] == 0.0 and res.alpha_hat["c"] == 0.0
        assert res.alpha_hat["b"] == pytest.approx(math.log(2), abs=1e-7)
        assert res.alpha_hat["d"] == pytest.approx(-math.log(3), abs=1e-7)

    def test_singleton_only_observations_yield_zero_alphas(self):
        u = Universe("ab")
        data = _dataset(u, {"a": {"a": 5}, "b": {"b": 5}})
        res = fit(data)
        assert res.converged
        assert res.alpha_hat == {"a": 0.0, "b": 0.0}


class TestFitPipeline:
    def test_blocked_by_cyclic_supports(self):
        u = Universe("abc")
        data = _dataset(
            u,
            {
                "ab": {"a": 10, "b": 0},
                "bc": {"b": 10, "c": 0},
                "ac": {"a": 0, "c": 10},
                "abc": {"a": 4, "b": 3, "c": 3},
            },
        )
        res = fit(data)
        assert res.alpha_hat is None
        assert not res.converged
        assert math.isnan(res.log_likelihood)
        assert not res.warp_report.holds

    def test_recovers_selective_model(self):
        u = Universe("abc")
        order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
        gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
        w = LuceWeights.from_v(
            u, {"a": Fraction(2), "b": Fraction(1), "c": Fraction(1)}
        )
        rule = general_luce_rule(gamma, w)
        N = 600
        counts = {A: {a: int(rule.p(a, A) * N) for a in A} for A in rule.family}
        data = ChoiceDataset(u, counts)
        res = fit(data)
        assert res.converged
        assert res.gamma_hat.table == gamma.table
        assert res.alpha_hat["a"] - res.alpha_hat["b"] == pytest.approx(
            math.log(2), abs=1e-7
        )

    def test_fit_builds_the_family_once(self, monkeypatch):
        u = Universe("abcd")
        rng = random.Random(8)
        data = ChoiceDataset(u, {A: {a: rng.randint(1, 9) for a in A} for A in u.subsets()})
        before = repr(data)
        built = []
        real = ChoiceFamily.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(ChoiceFamily, "__init__", counting)
        fit(data)
        assert len(built) == 1 and data.family is built[0]
        # The cached family is not a field: equality and repr are unchanged.
        assert repr(data) == before
        assert data == ChoiceDataset(u, dict(data.observations))

    def test_fit_checks_warp_once(self, monkeypatch):
        import lucekit.estimate as estimate

        u = Universe("abcd")
        rng = random.Random(7)
        counts = {A: {a: rng.randint(1, 9) for a in A} for A in u.subsets()}
        data = ChoiceDataset(u, counts)
        gamma, report = support_from_counts(data)
        calls = []
        real = estimate.check_warp

        def counting(corr):
            calls.append(corr)
            return real(corr)

        monkeypatch.setattr(estimate, "check_warp", counting)
        res = fit(data)
        assert len(calls) == 1
        assert res.warp_report == report
        direct = fit_alpha_mle(data, gamma)
        assert len(calls) == 2  # a direct call still checks WARP itself
        assert direct.warp_report == report
        assert direct.alpha_hat == res.alpha_hat


def _random_problem(seed: int, n: int, zeros: bool = True):
    """A WARP-consistent support with counts on up to 8 random small menus.

    Menus are drawn from the first k ≤ n letters, so some alternatives go
    unobserved; menus are small, so several components are common; random
    weak orders give singleton supports. With ``zeros``, some in-support
    cells get no choices, which starves some alternatives and leaves the
    maximum likelihood without a finite maximizer in some directions;
    without, every cell is positive and the maximizer exists.
    """
    rng = random.Random(seed)
    u = helpers.universe_of(n)
    pool = u.alternatives[: rng.randint(1, n)]
    menus = {
        ChoiceSet(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        for _ in range(rng.randint(1, 8))
    }
    family = ChoiceFamily(u, menus)
    gamma = helpers.random_warp_correspondence(u, rng, family)
    choices = [0, 0, 1, 2, 5, 17] if zeros else [1, 2, 5, 17]
    counts = {}
    for A in family:
        members = gamma.gamma(A).members
        row = {a: rng.choice(choices) for a in members}
        if not any(row.values()):
            row[rng.choice(members)] = rng.randint(1, 9)
        counts[A] = row
    alpha = {a: rng.uniform(-3, 3) for a in u}
    return ChoiceDataset(u, counts), gamma, alpha


def _fitted_index(gamma):
    components = _components(gamma)
    return {a: j for j, a in enumerate(a for group in components for a in group)}


seeds = st.integers(0, 2**32 - 1)
problems = st.builds(_random_problem, seeds, st.integers(1, 7))
positive_problems = st.builds(_random_problem, seeds, st.integers(1, 7), st.just(False))
pseudo_counts = st.sampled_from([0.0, 0.25, 1.0, 3.5])


class TestVectorizedEvaluator:
    """``_Cells.ll_grad_hess`` and the fit built on it, against the
    set-at-a-time oracles of ``oracle_estimate``."""

    @settings(max_examples=150, deadline=None)
    @given(problems, st.integers(0, 3))
    def test_ll_and_gradient_match_dict_oracle(self, problem, pseudo):
        data, gamma, alpha = problem
        index = _fitted_index(gamma)
        # An integer pseudo-count is the same as adding it to the data.
        padded = ChoiceDataset(
            data.universe,
            {
                A: {a: c + pseudo for a, c in row.items()}
                for A, row in data.observations.items()
            },
        )
        want_ll, want_grad = log_likelihood_and_gradient(padded, gamma, alpha)
        vec = np.array([alpha[a] for a in index])
        ll, grad, _ = _Cells(data, gamma, index, pseudo).ll_grad_hess(vec, False)
        scale = sum(sum(row.values()) for row in padded.observations.values())
        assert ll == pytest.approx(want_ll, rel=1e-12, abs=1e-12 * scale)
        for a, j in index.items():
            assert grad[j] == pytest.approx(want_grad[a], rel=1e-12, abs=1e-12 * scale)

    @settings(max_examples=150, deadline=None)
    @given(problems, pseudo_counts)
    def test_hessian_matches_per_set_oracle(self, problem, pseudo):
        data, gamma, alpha = problem
        index = _fitted_index(gamma)
        vec = np.array([alpha[a] for a in index])
        oracle, _, _ = per_set_ll_grad_hess(data, gamma, index, pseudo)
        want_ll, want_grad, want_hess = oracle(vec, True)
        ll, grad, hess = _Cells(data, gamma, index, pseudo).ll_grad_hess(vec, True)
        scale = sum(sum(row.values()) + pseudo * len(row) for row in data.observations.values())
        assert ll == pytest.approx(want_ll, rel=1e-12, abs=1e-12 * scale)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(hess, want_hess, rtol=1e-12, atol=1e-12 * scale)

    @staticmethod
    def _same_path(res, ref):
        assert res.components == ref["components"]
        assert res.separated == ref["separated"]
        # Near the optimum a step's gain can fall below the resolution of
        # the log-likelihood, and rounding alone then decides whether the
        # backtracking accepts it. Only there may the two runs part: one
        # exhausts its backtracking where the other takes the step.
        if "backtrack-exhausted" not in (res.stop_reason, ref["stop_reason"]):
            assert res.iterations == ref["iterations"]
            assert res.converged is ref["converged"]
        assert abs(len(res.ll_path) - len(ref["ll_path"])) <= 1
        for got, want in zip(res.ll_path, ref["ll_path"]):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(positive_problems, pseudo_counts)
    def test_fit_matches_reference_loop(self, problem, pseudo):
        data, gamma, _ = problem
        res = fit_alpha_mle(data, gamma, pseudo_count=pseudo)
        ref = reference_fit_alpha_mle(data, gamma, pseudo_count=pseudo)
        self._same_path(res, ref)
        assert res.separated == ()
        assert res.log_likelihood == pytest.approx(ref["log_likelihood"], rel=1e-12)
        # The same rounding-decided final step moves α̂ by at most its
        # length, about sqrt(2·ulp(ll)/curvature).
        for a in data.universe:
            assert res.alpha_hat[a] == pytest.approx(ref["alpha_hat"][a], abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(problems)
    def test_separated_fit_matches_reference_loop(self, problem):
        # Along a direction with no finite maximizer the iterates run off
        # while the curvature vanishes, so α̂ there depends on rounding and
        # only the path and the diagnostics are compared.
        data, gamma, _ = problem
        self._same_path(fit_alpha_mle(data, gamma), reference_fit_alpha_mle(data, gamma))


def _binary_fit():
    data = _dataset(Universe("ab"), {"ab": {"a": 30, "b": 60}})
    return data, ChoiceCorrespondence(data.family, {A: A for A in data.family})


class TestStopReason:
    def _check(self, res, reason, converged):
        assert res.stop_reason == reason
        assert type(res.converged) is bool and res.converged is converged
        assert res.iterations == len(res.ll_path) - 1

    def test_gradient_zero_at_start(self):
        data = _dataset(Universe("ab"), {"a": {"a": 5}, "b": {"b": 5}})
        res = fit(data)
        self._check(res, "grad-tol", True)
        assert res.iterations == 0

    def test_likelihood_stalls(self):
        res = fit_alpha_mle(*_binary_fit())
        self._check(res, "ll-tol", True)
        assert res.iterations >= 1

    def test_iteration_limit(self):
        res = fit_alpha_mle(*_binary_fit(), max_iter=1)
        self._check(res, "max-iter", False)
        assert res.iterations == 1

    def test_every_ridge_fails(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        self._check(fit_alpha_mle(*_binary_fit()), "singular", False)

    def test_no_step_size_raises_the_likelihood(self, monkeypatch):
        # A non-finite Newton step gives a NaN log-likelihood at every
        # scale, and NaN is never accepted.
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(len(b), np.nan))
        self._check(fit_alpha_mle(*_binary_fit()), "backtrack-exhausted", False)

    def test_separated(self):
        data = _dataset(Universe("ab"), {"ab": {"a": 50, "b": 0}, "b": {"b": 3}})
        gamma = ChoiceCorrespondence(data.family, {A: A for A in data.family})
        self._check(fit_alpha_mle(data, gamma), "separated", False)

    def test_no_optimizer_without_warp(self):
        data = _dataset(
            Universe("abc"),
            {"ab": {"a": 9, "b": 0}, "abc": {"a": 3, "b": 3, "c": 3}},
        )
        res = fit(data)
        assert res.alpha_hat is None and res.stop_reason is None
        assert res.converged is False


class TestPseudoCount:
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1, -1e-300, "1", None, True, 1j, 1e308]
    )
    def test_refused(self, bad):
        data, gamma = _binary_fit()
        with pytest.raises(ValueError, match="pseudo-count"):
            fit_alpha_mle(data, gamma, pseudo_count=bad)
        with pytest.raises(ValueError, match="pseudo-count"):
            fit(data, pseudo_count=bad)

    @pytest.mark.parametrize("good", [0, 2, 0.5, Fraction(1, 2), np.float64(0.5)])
    def test_accepted(self, good):
        res = fit_alpha_mle(*_binary_fit(), pseudo_count=good)
        assert res.converged and res.stop_reason == "ll-tol"
        want = math.log((60 + float(good)) / (30 + float(good)))
        assert res.alpha_hat["b"] == pytest.approx(want, abs=1e-8)


# Counts a float fit cannot hold: one past the float range, and two whose
# total is past it.
OVERSIZED_COUNTS = {
    "count-past-float-range": {"a": 10**400, "b": 1},
    "total-past-float-range": {"a": 10**308, "b": 10**308},
}


class TestOversizedCounts:
    @pytest.mark.parametrize("case", sorted(OVERSIZED_COUNTS))
    @pytest.mark.parametrize("pseudo", [0.0, 0.5])
    def test_refused_naming_the_counts(self, case, pseudo):
        data = _dataset(Universe("ab"), {"ab": OVERSIZED_COUNTS[case]})
        gamma = ChoiceCorrespondence(data.family, {A: A for A in data.family})
        for call in (
            lambda: fit(data, pseudo_count=pseudo),
            lambda: fit_alpha_mle(data, gamma, pseudo_count=pseudo),
        ):
            with pytest.raises(ValueError, match="choice counts totalling") as err:
                call()
            assert "pseudo-count" not in str(err.value)

    def test_large_counts_within_range_still_fit(self):
        data = _dataset(Universe("ab"), {"ab": {"a": 10**307, "b": 10**307}})
        res = fit(data)
        assert res.converged and res.alpha_hat == {"a": 0.0, "b": 0.0}
