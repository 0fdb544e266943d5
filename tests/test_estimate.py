import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
    log_likelihood_and_gradient,
    support_from_counts,
)

import helpers


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
