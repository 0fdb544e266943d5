import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    EXACT,
    FLOAT,
    LuceWeights,
    NotRationalError,
    Universe,
    WeakOrder,
    check_choice_axiom,
    check_full_support,
    check_warp,
    correspondence_from_order,
    general_luce_rule,
    general_luce_rule_from_utility,
    lambda_smoothed_rule,
    limit_check,
    luce_rule,
    support_correspondence,
)
from lucekit import axioms

import helpers

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLuceWeights:
    def test_from_v_exact(self):
        u = Universe("ab")
        w = LuceWeights.from_v(u, {"a": Fraction(2), "b": Fraction(1, 2)})
        assert w.mode == EXACT
        assert w.alpha["a"] == pytest.approx(math.log(2))
        assert w.alpha["b"] == pytest.approx(-math.log(2))

    def test_from_alpha_float(self):
        u = Universe("ab")
        w = LuceWeights.from_alpha(u, {"a": 0.0, "b": math.log(3)})
        assert w.mode == FLOAT
        assert w.v["b"] == pytest.approx(3.0)

    def test_uniform(self):
        w = LuceWeights.uniform(Universe("abc"))
        assert all(v == 1 for v in w.v.values())
        assert w.mode == EXACT

    def test_validation(self):
        u = Universe("ab")
        with pytest.raises(ValueError):
            LuceWeights.from_v(u, {"a": Fraction(1)})
        with pytest.raises(ValueError):
            LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(0)})
        with pytest.raises(ValueError):
            LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(-1)})
        with pytest.raises(ValueError):
            LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1), "z": Fraction(1)})

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_weight_names_the_alternative(self, bad):
        with pytest.raises(ValueError, match="'b'.*finite"):
            LuceWeights.from_v(Universe("ab"), {"a": 1.0, "b": bad})

    @pytest.mark.parametrize("other", [Fraction(1), 1.0])
    @pytest.mark.parametrize("bad", [True, False, "0.5", "2"])
    def test_bool_and_str_weights_rejected(self, other, bad):
        with pytest.raises(ValueError, match="'b' must be a number"):
            LuceWeights.from_v(Universe("ab"), {"a": other, "b": bad})

    @pytest.mark.parametrize("alpha", [800.0, float("inf"), float("nan")])
    def test_from_alpha_overflow_names_the_alternative(self, alpha):
        with pytest.raises(ValueError, match="'b'"):
            LuceWeights.from_alpha(Universe("ab"), {"a": 0.0, "b": alpha})

    def test_exact_weights_beyond_float_range_keep_finite_alpha(self):
        u = Universe("abc")
        w = LuceWeights.from_v(u, {"a": 1, "b": 10**400, "c": Fraction(1, 10**400)})
        assert w.alpha["b"] == pytest.approx(400 * math.log(10))
        assert w.alpha["c"] == pytest.approx(-400 * math.log(10))


class TestLuceRule:
    def test_shares_are_normalized_weights(self):
        u = Universe("abc")
        w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)})
        rule = luce_rule(w, ChoiceFamily.of_all_subsets(u))
        abc = ChoiceSet("abc")
        assert rule.p("a", abc) == Fraction(1, 6)
        assert rule.p("b", abc) == Fraction(2, 6)
        assert rule.p("c", abc) == Fraction(3, 6)
        assert rule.p("b", ChoiceSet("bc")) == Fraction(2, 5)
        assert rule.mode == EXACT
        assert check_full_support(rule).holds

    def test_family_universe_mismatch(self):
        w = LuceWeights.uniform(Universe("ab"))
        with pytest.raises(ValueError):
            luce_rule(w, ChoiceFamily.of_all_subsets(Universe("abc")))


class TestRefusalTexts:
    def test_alpha_must_cover_the_universe(self):
        with pytest.raises(ValueError) as err:
            LuceWeights.from_alpha(Universe("abc"), {"a": 0.0, "b": 0.0})
        assert str(err.value) == "alpha must cover exactly the universe"

    def test_utility_must_be_finite(self):
        u = Universe("ab")
        family = ChoiceFamily.of_all_subsets(u)
        with pytest.raises(ValueError) as err:
            general_luce_rule_from_utility({"a": math.inf, "b": 0.0}, LuceWeights.uniform(u), family)
        assert str(err.value) == "utility for 'a' must be finite, got inf"

    @pytest.mark.parametrize("build", [
        general_luce_rule_from_utility,
        lambda u, w, family: lambda_smoothed_rule(u, w, 0.5, family),
    ])
    def test_weights_and_family_share_a_universe(self, build):
        family = ChoiceFamily.of_all_subsets(Universe("abc"))
        with pytest.raises(ValueError) as err:
            build({"a": 1.0, "b": 0.0}, LuceWeights.uniform(Universe("ab")), family)
        assert str(err.value) == "weights and family must share a universe"


class TestGeneralLuceRule:
    def test_softmax_on_gamma_zero_off(self):
        u = Universe("abc")
        order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
        gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
        w = LuceWeights.from_v(u, {"a": Fraction(2), "b": Fraction(1), "c": Fraction(5)})
        rule = general_luce_rule(gamma, w)
        abc = ChoiceSet("abc")
        assert rule.p("a", abc) == Fraction(2, 3)
        assert rule.p("b", abc) == Fraction(1, 3)
        assert rule.p("c", abc) == 0
        # c's own weight only matters where c is chosen at all
        assert rule.p("c", ChoiceSet("c")) == 1
        assert support_correspondence(rule).gamma(abc) == ChoiceSet("ab")
        assert check_choice_axiom(rule).holds

    def test_refuses_non_warp_gamma(self):
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        table = {A: A for A in fam}
        table[ChoiceSet("ab")] = ChoiceSet("a")  # contradicts choosing all of abc
        gamma = ChoiceCorrespondence(fam, table)
        with pytest.raises(NotRationalError) as err:
            general_luce_rule(gamma, LuceWeights.uniform(u))
        assert err.value.report is not None
        assert not err.value.report.holds

    def test_from_utility_matches_order_form(self):
        rng = random.Random(3)
        u = helpers.universe_of(4)
        fam = ChoiceFamily.of_all_subsets(u)
        util = {"a": 1.0, "b": 1.0, "c": 0.0, "d": -2.0}
        w = helpers.random_rational_weights(u, rng)
        via_util = general_luce_rule_from_utility(util, w, fam)
        order = WeakOrder.from_utility(u, util)
        via_order = general_luce_rule(correspondence_from_order(order, fam), w)
        assert via_util.table == via_order.table

    def test_from_utility_runs_no_warp_scan(self, monkeypatch):
        # Maximizers of a utility are WARP-rational by construction.
        synthesize_module = sys.modules["lucekit.synthesize"]
        calls = []
        monkeypatch.setattr(synthesize_module, "check_warp", calls.append)
        u = helpers.universe_of(4)
        fam = ChoiceFamily.of_all_subsets(u)
        rule = general_luce_rule_from_utility(
            {"a": 1.0, "b": 1.0, "c": 0.0, "d": -2.0}, LuceWeights.uniform(u), fam
        )
        assert calls == []
        assert support_correspondence(rule).table[ChoiceSet("abcd")] == ChoiceSet("ab")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100_000),
        pairs_only=st.booleans(),
    )
    def test_maximizer_gamma_runs_no_warp_scan(self, n, seed, pairs_only):
        # Γ is the maximizers of the order its pairs reveal: WARP by construction.
        rng = random.Random(seed)
        u = helpers.universe_of(n)
        fam = ChoiceFamily.of_pairs(u) if pairs_only and n > 1 else ChoiceFamily.of_all_subsets(u)
        gamma = helpers.random_warp_correspondence(u, rng, fam)
        w = helpers.random_rational_weights(u, rng)
        calls = []
        real = axioms._NestedPairs.subsets_of
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["lucekit.synthesize"], "check_warp", calls.append)
            patch.setattr(
                axioms._NestedPairs, "subsets_of", lambda self, iA: calls.append(iA) or real(self, iA)
            )
            rule = general_luce_rule(gamma, w)
        assert calls == []
        for A in fam:
            G = gamma.gamma(A)
            total = sum(w.v[b] for b in G)
            want = {a: w.v[a] / total if a in G else Fraction(0) for a in A}
            assert rule.table[A] == want
            assert all(type(x) is Fraction for x in rule.table[A].values())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=4), seed=st.integers(min_value=0, max_value=100_000))
    def test_other_gammas_get_the_warp_scan(self, n, seed):
        rng = random.Random(seed)
        u = helpers.universe_of(n)
        sets = list(u.subsets())
        fam = ChoiceFamily(u, rng.sample(sets, rng.randint(1, len(sets))))
        table = {}
        for A in fam:
            members = list(A)
            table[A] = ChoiceSet(rng.sample(members, rng.randint(1, len(members))))
        gamma = ChoiceCorrespondence(fam, table)
        want = check_warp(gamma)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                sys.modules["lucekit.synthesize"], "check_warp",
                lambda corr: calls.append(corr) or check_warp(corr),
            )
            try:
                rule = general_luce_rule(gamma, LuceWeights.uniform(u))
            except NotRationalError as err:
                assert err.report == want and not want.holds
                assert calls == [gamma]  # the refusal carries the scan's own report
                return
        assert want.holds and support_correspondence(rule) == gamma

    def test_cyclic_pairs_are_scanned_and_built(self, monkeypatch):
        # Without a larger set, a cycle on the pairs is WARP but no order's maximizers.
        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("bc"), ChoiceSet("ac")])
        chosen = {ChoiceSet("ab"): "a", ChoiceSet("bc"): "b", ChoiceSet("ac"): "c"}
        gamma = ChoiceCorrespondence(fam, {A: ChoiceSet(c) for A, c in chosen.items()})
        synthesize_module = sys.modules["lucekit.synthesize"]
        calls = []
        monkeypatch.setattr(
            synthesize_module, "check_warp", lambda corr: calls.append(corr) or check_warp(corr)
        )
        rule = general_luce_rule(gamma, LuceWeights.uniform(u))
        assert calls == [gamma]
        assert support_correspondence(rule) == gamma

    def test_float_rows_do_not_depend_on_string_hashing(self):
        # Shares are summed in label order; a set's iteration order would
        # change the last bits of float rows from one interpreter to the next.
        script = (
            "from lucekit import *\n"
            "u = Universe('abcdefgh')\n"
            "w = LuceWeights.from_v(u, {a: 0.1 + 0.37 * i for i, a in enumerate(u)})\n"
            "rule = luce_rule(w, ChoiceFamily.of_all_subsets(u))\n"
            "print(dumps_document(rule))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in range(4)
        }
        assert len(outputs) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    def test_synthesized_rules_satisfy_factorization(self, n, seed):
        rng = random.Random(seed)
        rule = helpers.random_synthesized_rule(n, rng)
        assert check_choice_axiom(rule).holds


class TestSmoothedRule:
    def _setup(self):
        u = Universe("abc")
        util = {"a": 1.0, "b": 1.0, "c": 0.0}
        w = LuceWeights.from_alpha(u, {"a": math.log(2), "b": 0.0, "c": 0.0})
        fam = ChoiceFamily.of_all_subsets(u)
        return u, util, w, fam

    def test_rows_are_full_support_floats(self):
        _, util, w, fam = self._setup()
        rule = lambda_smoothed_rule(util, w, 0.5, fam)
        assert rule.mode == FLOAT
        abc = ChoiceSet("abc")
        assert all(rule.p(a, abc) > 0 for a in "abc")
        assert sum(rule.p(a, abc) for a in "abc") == pytest.approx(1.0)

    def test_limit_approaches_argmax_form(self):
        _, util, w, fam = self._setup()
        target = general_luce_rule_from_utility(util, w, fam).as_float()
        close = lambda_smoothed_rule(util, w, 0.02, fam)
        gap = max(abs(close.p(a, A) - target.p(a, A)) for A in fam for a in A)
        assert gap < 1e-9

    def test_tiny_lambda_does_not_overflow(self):
        _, util, w, fam = self._setup()
        rule = lambda_smoothed_rule(util, w, 1e-9, fam)
        assert rule.p("c", ChoiceSet("abc")) == 0.0
        assert rule.p("a", ChoiceSet("abc")) == pytest.approx(2 / 3)

    def test_rejects_bad_lambda(self):
        _, util, w, fam = self._setup()
        with pytest.raises(ValueError):
            lambda_smoothed_rule(util, w, 0.0, fam)
        with pytest.raises(ValueError):
            lambda_smoothed_rule(util, w, -1.0, fam)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 1e-320])
    def test_rejects_infinite_nan_or_overflowing_lambda_naming_it(self, lam):
        _, util, w, fam = self._setup()
        with pytest.raises(ValueError, match="λ"):
            lambda_smoothed_rule(util, w, lam, fam)

    @pytest.mark.parametrize("schedule", [(math.inf, 1.0, 0.5), (1.0, 1e-320)])
    def test_limit_check_names_a_bad_lambda(self, schedule):
        _, util, w, fam = self._setup()
        with pytest.raises(ValueError, match="λ"):
            limit_check(util, w, schedule, fam)


class TestLimitCheck:
    def _setup(self):
        u = Universe("abc")
        util = {"a": 1.0, "b": 1.0, "c": 0.0}
        w = LuceWeights.from_alpha(u, {"a": math.log(2), "b": 0.0, "c": 0.0})
        return util, w, ChoiceFamily.of_all_subsets(u)

    def test_converges_on_standard_schedule(self):
        util, w, fam = self._setup()
        rep = limit_check(util, w, (1.0, 0.5, 0.1, 0.05), fam)
        assert rep.converged
        assert rep.final_distance <= 1e-6
        assert all(x > y for x, y in zip(rep.distances, rep.distances[1:]))

    def test_not_converged_when_lambda_large(self):
        util, w, fam = self._setup()
        rep = limit_check(util, w, (1.0, 0.9), fam)
        assert not rep.converged
        assert rep.final_distance > 1e-6

    def test_schedule_validation(self):
        util, w, fam = self._setup()
        with pytest.raises(ValueError):
            limit_check(util, w, (), fam)
        with pytest.raises(ValueError):
            limit_check(util, w, (0.5, 1.0), fam)
        with pytest.raises(ValueError):
            limit_check(util, w, (1.0, 1.0), fam)
        with pytest.raises(ValueError):
            limit_check(util, w, (1.0, -0.5), fam)

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        util, w, fam = self._setup()
        with pytest.raises(ValueError, match="tolerance"):
            limit_check(util, w, (1.0, 0.5), fam, tolerance=tolerance)
        assert limit_check(util, w, (1.0, 0.5), fam, tolerance=0.0).tolerance == 0.0

    def test_tail_monotone_property(self):
        util, w, fam = self._setup()
        rep = limit_check(util, w, (2.0, 1.0, 0.5, 0.25, 0.125), fam)
        assert rep.tail_monotone
