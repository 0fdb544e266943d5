import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    ChoiceFamily,
    ChoiceSet,
    DegenerateOddsError,
    LuceWeights,
    MissingPairsError,
    NotRationalError,
    RandomChoiceRule,
    ReconstructionMismatchError,
    Universe,
    WeakOrder,
    correspondence_from_order,
    decompose,
    general_luce_rule,
    recover_v,
    revealed_order,
    support_correspondence,
)

import helpers
from test_axioms import bad_rule


def _worked_example():
    u = Universe("abc")
    order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
    gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1)})
    return general_luce_rule(gamma, w), order


class TestWorkedExample:
    def test_recovers_order_classes_and_weights(self):
        rule, order = _worked_example()
        dec = decompose(rule)
        assert dec.order == order
        assert dec.classes == (("a", "b"), ("c",))
        assert dec.representatives == ("a", "c")
        assert dec.v == {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1)}
        assert dec.alpha["a"] == 0.0
        assert dec.alpha["b"] == pytest.approx(-math.log(2))
        assert dec.alpha["c"] == 0.0

    def test_gamma_matches_support(self):
        rule, _ = _worked_example()
        dec = decompose(rule)
        assert dec.gamma.table == support_correspondence(rule).table


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    def test_gamma_and_ratios_recovered(self, n, seed):
        rng = random.Random(seed)
        universe = helpers.universe_of(n)
        order = helpers.random_weak_order(universe, rng)
        gamma = correspondence_from_order(
            order, ChoiceFamily.of_all_subsets(universe)
        )
        weights = helpers.random_rational_weights(universe, rng)
        rule = general_luce_rule(gamma, weights)
        dec = decompose(rule)
        assert dec.gamma.table == gamma.table
        assert dec.order == order
        for group in dec.classes:
            for a in group:
                for b in group:
                    assert dec.v[a] / dec.v[b] == weights.v[a] / weights.v[b]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    def test_rebuild_reproduces_the_rule(self, n, seed):
        rng = random.Random(seed)
        rule = helpers.random_synthesized_rule(n, rng)
        dec = decompose(rule)
        w = LuceWeights.from_v(rule.universe, dec.v)
        rebuilt = general_luce_rule(dec.gamma, w)
        assert rebuilt.table == rule.table

    def test_warp_is_checked_once(self, monkeypatch):
        # The package re-exports the function decompose under the module's name.
        decompose_module = sys.modules["lucekit.decompose"]
        synthesize_module = sys.modules["lucekit.synthesize"]
        rule = helpers.random_synthesized_rule(5, random.Random(3))
        calls = []
        real = decompose_module.check_warp

        def counting(corr):
            calls.append(corr)
            return real(corr)

        monkeypatch.setattr(decompose_module, "check_warp", counting)
        monkeypatch.setattr(synthesize_module, "check_warp", counting)
        dec = decompose(rule)
        assert len(calls) == 1
        assert general_luce_rule(dec.gamma, LuceWeights.from_v(rule.universe, dec.v)) == rule

    def test_support_correspondence_is_built_once(self, monkeypatch):
        decompose_module = sys.modules["lucekit.decompose"]
        rule = helpers.random_synthesized_rule(5, random.Random(4))
        calls = []
        real = decompose_module.support_correspondence

        def counting(r):
            calls.append(r)
            return real(r)

        monkeypatch.setattr(decompose_module, "support_correspondence", counting)
        dec = decompose(rule)
        assert calls == [rule]
        assert dec.gamma == real(rule)
        # Called alone, revealed_order still builds the correspondence itself.
        assert revealed_order(rule) == dec.order and len(calls) == 2

    def test_weights_pinned_per_class_not_globally(self):
        # Scaling one whole class leaves the rule unchanged; scaling a single
        # member inside a class changes it. That is exactly the uniqueness
        # granularity the decomposition reports.
        rule, _ = _worked_example()
        dec = decompose(rule)
        scaled_class = dict(dec.v)
        scaled_class["c"] *= 7  # lone member of its class
        w = LuceWeights.from_v(rule.universe, scaled_class)
        assert general_luce_rule(dec.gamma, w).table == rule.table

        lopsided = dict(dec.v)
        lopsided["b"] *= 2  # shares a class with a
        w = LuceWeights.from_v(rule.universe, lopsided)
        assert general_luce_rule(dec.gamma, w).table != rule.table


class TestRefusals:
    def test_inconsistent_rule_fails_reconstruction(self):
        # Uniform pairs force equal weights, which contradict the skewed
        # triple even though supports alone look rational.
        with pytest.raises(ReconstructionMismatchError):
            decompose(bad_rule())

    def test_cyclic_binary_supports_are_not_rational(self):
        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("ac"), ChoiceSet("bc")])
        rule = RandomChoiceRule(
            fam,
            {
                ChoiceSet("ab"): {"a": 1, "b": 0},
                ChoiceSet("bc"): {"b": 1, "c": 0},
                ChoiceSet("ac"): {"a": 0, "c": 1},
            },
        )
        with pytest.raises(NotRationalError):
            revealed_order(rule)

    def test_non_warp_support_is_refused_with_report(self):
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        # Pairs say a ~ b ~ c, but the triple starves c.
        third = Fraction(1, 3)
        rule = RandomChoiceRule(
            fam,
            {
                ChoiceSet("a"): {"a": 1},
                ChoiceSet("b"): {"b": 1},
                ChoiceSet("c"): {"c": 1},
                ChoiceSet("ab"): {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                ChoiceSet("ac"): {"a": Fraction(1, 2), "c": Fraction(1, 2)},
                ChoiceSet("bc"): {"b": Fraction(1, 2), "c": Fraction(1, 2)},
                ChoiceSet("abc"): {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0},
            },
        )
        with pytest.raises(NotRationalError) as err:
            decompose(rule)
        assert err.value.report is not None

    def test_missing_pairs_detected(self):
        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")])
        rule = RandomChoiceRule(
            fam,
            {
                ChoiceSet("ab"): {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                ChoiceSet("abc"): {a: Fraction(1, 3) for a in "abc"},
            },
        )
        with pytest.raises(MissingPairsError):
            revealed_order(rule)

    def test_degenerate_odds_on_a_lying_order(self):
        u = Universe("ab")
        fam = ChoiceFamily.of_all_subsets(u)
        rule = RandomChoiceRule(
            fam,
            {
                ChoiceSet("a"): {"a": 1},
                ChoiceSet("b"): {"b": 1},
                ChoiceSet("ab"): {"a": 1, "b": 0},
            },
        )
        lying = WeakOrder.trivial(u)  # claims a ~ b despite p(b,{ab}) = 0
        with pytest.raises(DegenerateOddsError):
            recover_v(rule, lying)
