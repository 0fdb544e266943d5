import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucekit._kernels
from lucekit import (
    ChoiceFamily,
    ChoiceSet,
    LuceWeights,
    Universe,
    WeakOrder,
    check_choice_axiom,
    general_luce_rule_from_utility,
    maximizers,
)
from lucekit import rum
from lucekit.rum import (
    EmpiricalRule,
    GumbelLuceSampler,
    IndependentRumSampler,
    LexSampler,
    empirical_rule,
    lex_compose,
)


def _abc_weights() -> LuceWeights:
    u = Universe("abc")
    return LuceWeights.from_alpha(u, {"a": 0.0, "b": math.log(2), "c": math.log(3)})


class TestGumbelLuceSampler:
    def test_deterministic_per_seed_and_stream(self):
        w = _abc_weights()
        s = GumbelLuceSampler(w, seed=5)
        a = s.draw_ranks(100, stream=0)
        b = GumbelLuceSampler(w, seed=5).draw_ranks(100, stream=0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, s.draw_ranks(100, stream=1))
        assert not np.array_equal(a, GumbelLuceSampler(w, seed=6).draw_ranks(100))

    def test_rank_rows_are_permutations(self):
        ranks = GumbelLuceSampler(_abc_weights(), seed=0).draw_ranks(500)
        assert ranks.shape == (500, 3)
        assert np.array_equal(np.sort(ranks, axis=1), np.tile(np.arange(3), (500, 1)))

    def test_top_shares_track_weights(self):
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        emp = empirical_rule(GumbelLuceSampler(w, seed=12), fam, 60_000)
        rule = emp.as_rule()
        abc = ChoiceSet("abc")
        for a, target in (("a", 1 / 6), ("b", 2 / 6), ("c", 3 / 6)):
            bound = 5 * math.sqrt(target * (1 - target) / 60_000)
            assert abs(rule.p(a, abc) - target) < bound


class TestIndependentRumSampler:
    def test_same_ranks_as_gumbel_when_utility_constant(self):
        # With a flat utility the bounded transform is order-preserving in
        # the underlying logit scores, so rankings coincide draw by draw.
        w = _abc_weights()
        flat = {"a": 2.0, "b": 2.0, "c": 2.0}
        g = GumbelLuceSampler(w, seed=9).draw_ranks(2_000, stream=3)
        r = IndependentRumSampler(flat, w, seed=9).draw_ranks(2_000, stream=3)
        assert np.array_equal(g, r)

    def test_hard_separation_across_levels(self):
        w = LuceWeights.from_alpha(
            Universe("abc"), {"a": math.log(2), "b": 0.0, "c": 0.0}
        )
        util = {"a": 1.0, "b": 1.0, "c": 0.0}
        sampler = IndependentRumSampler(util, w, seed=3)
        scores = sampler.draw_scores(100_000)
        u_idx = {a: i for i, a in enumerate(w.universe)}
        # Every draw keeps both top-utility alternatives above c.
        assert scores[:, u_idx["a"]].min() > scores[:, u_idx["c"]].max() - 1e-12
        assert (scores[:, u_idx["a"]] > scores[:, u_idx["c"]]).all()
        assert (scores[:, u_idx["b"]] > scores[:, u_idx["c"]]).all()

    def test_noise_radius_shrinks_with_gap(self):
        w = LuceWeights.uniform(Universe("ab"))
        wide = IndependentRumSampler({"a": 0.0, "b": 9.0}, w, seed=0)
        narrow = IndependentRumSampler({"a": 0.0, "b": 0.3}, w, seed=0)
        assert wide.r == pytest.approx(3.0)
        assert narrow.r == pytest.approx(0.1)
        flat = IndependentRumSampler({"a": 1.0, "b": 1.0}, w, seed=0)
        assert flat.r == 1.0


class TestLexSampler:
    def test_first_order_dominates_base_draw(self):
        u = Universe("abcd")
        w = LuceWeights.uniform(u)
        first = WeakOrder.from_classes(u, [["b", "d"], ["a"], ["c"]])
        sampler = LexSampler(first, GumbelLuceSampler(w, seed=21))
        ranks = sampler.draw_ranks(3_000, stream=2)
        base = GumbelLuceSampler(w, seed=21).draw_ranks(3_000, stream=2)
        idx = {a: i for i, a in enumerate(u)}
        for A in ChoiceFamily.of_all_subsets(u):
            cols = [idx[a] for a in A]
            tops = np.argmin(ranks[:, cols], axis=1)
            best = maximizers(first, A)
            for row in range(0, 3_000, 97):
                top_label = A.members[tops[row]]
                assert top_label in best
                # Among the first-order maximizers, the base draw decides.
                best_cols = [idx[a] for a in best]
                expect = best.members[int(np.argmin(base[row, best_cols]))]
                assert top_label == expect

    def test_composite_is_deterministic(self):
        u = Universe("abc")
        w = LuceWeights.uniform(u)
        first = WeakOrder.from_classes(u, [["a"], ["b", "c"]])
        s1 = LexSampler(first, GumbelLuceSampler(w, seed=4)).draw_ranks(50)
        s2 = LexSampler(first, GumbelLuceSampler(w, seed=4)).draw_ranks(50)
        assert np.array_equal(s1, s2)


class TestLexCompose:
    def test_refines_ties_only(self):
        u = Universe("abcd")
        first = WeakOrder.from_classes(u, [["a", "b"], ["c", "d"]])
        second = WeakOrder.from_classes(u, [["d"], ["b"], ["a"], ["c"]])
        composed = lex_compose(first, second)
        assert composed.classes() == (("b",), ("a",), ("d",), ("c",))

    def test_identity_when_first_is_strict(self):
        u = Universe("abc")
        first = WeakOrder.from_classes(u, [["c"], ["a"], ["b"]])
        second = WeakOrder.trivial(u)
        assert lex_compose(first, second) == first

    def test_second_breaks_nothing_outside_classes(self):
        u = Universe("ab")
        first = WeakOrder.from_classes(u, [["a"], ["b"]])
        second = WeakOrder.from_classes(u, [["b"], ["a"]])
        assert lex_compose(first, second) == first


class TestUniverseMismatch:
    def test_lex_sampler(self):
        with pytest.raises(ValueError) as err:
            LexSampler(WeakOrder.trivial(Universe("ab")), GumbelLuceSampler(_abc_weights(), seed=0))
        assert str(err.value) == "order and base sampler must share a universe"

    def test_lex_compose(self):
        with pytest.raises(ValueError) as err:
            lex_compose(WeakOrder.trivial(Universe("ab")), WeakOrder.trivial(Universe("abc")))
        assert str(err.value) == "orders must share a universe"

    def test_empirical_rule(self):
        sampler = GumbelLuceSampler(_abc_weights(), seed=0)
        with pytest.raises(ValueError) as err:
            empirical_rule(sampler, ChoiceFamily.of_all_subsets(Universe("ab")), 10)
        assert str(err.value) == "sampler and family must share a universe"


class TestEmpiricalRule:
    def test_counts_sum_to_draws(self):
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        emp = empirical_rule(GumbelLuceSampler(w, seed=1), fam, 400)
        assert isinstance(emp, EmpiricalRule)
        for A in fam:
            assert sum(emp.counts[A].values()) == 400
        rule = emp.as_rule()
        for A in fam:
            assert sum(rule.p(a, A) for a in A) == pytest.approx(1.0)

    def test_per_set_streams_differ(self):
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        emp = empirical_rule(GumbelLuceSampler(w, seed=1), fam, 4_000)
        # Identical streams would give identical pair tallies; nearby seeds
        # must not collide across sets.
        pair_counts = [emp.counts[A] for A in fam if len(A) == 2]
        assert len({tuple(sorted(c.items())) for c in pair_counts}) > 1

    def test_empirical_rule_from_flat_sampler_passes_float_check(self):
        # Choice frequencies sampled from a genuine logit model should pass
        # the factorization check at a Monte Carlo tolerance.
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        n = 200_000
        emp = empirical_rule(GumbelLuceSampler(w, seed=7), fam, n)
        mc_eps = 4 * math.sqrt(0.25 / n)
        rule = emp.as_rule(eps=mc_eps)
        assert check_choice_axiom(rule).holds

    def test_each_tally_is_one_multinomial_from_the_sets_substream(self):
        # Every set draws Multinomial(n, logit shares) once, from the stream
        # default_rng([seed, family position]).
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        n = 100_003
        emp = empirical_rule(GumbelLuceSampler(w, seed=9), fam, n)
        for A in fam:
            if len(A) == 1:
                assert emp.counts[A] == {A.members[0]: n}
                continue
            v = np.exp(np.array([w.alpha[a] for a in A]))
            want = np.random.default_rng([9, fam.position(A)]).multinomial(n, v / v.sum())
            assert list(emp.counts[A].values()) == want.tolist()

    def test_work_does_not_grow_with_draws(self, monkeypatch):
        # 10**15 draws per set: neither a race nor one random number per draw.
        class NoExponentials(np.random.Generator):
            def standard_exponential(self, *args, **kwargs):
                raise AssertionError("a draw-by-draw race")

        def refuse(*args, **kwargs):
            raise AssertionError("a draw-by-draw race")

        monkeypatch.setattr(rum, "top_counts", refuse, raising=False)
        monkeypatch.setattr(lucekit._kernels, "top_counts", refuse)
        monkeypatch.setattr(
            rum, "_substream",
            lambda seed, stream: NoExponentials(np.random.PCG64([int(seed), int(stream)])),
        )
        u = Universe("abcd")
        w = LuceWeights.from_alpha(u, {"a": 0.0, "b": 1.0, "c": -2.0, "d": 0.5})
        fam = ChoiceFamily.of_all_subsets(u)
        n = 10**15
        for sampler in _samplers(w, {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}, 3).values():
            emp = empirical_rule(sampler, fam, n)
            assert all(sum(emp.counts[A].values()) == n for A in fam)

    def test_draw_count_numpy_cannot_hold_is_refused(self):
        w = _abc_weights()
        fam = ChoiceFamily.of_all_subsets(w.universe)
        emp = empirical_rule(GumbelLuceSampler(w, seed=0), fam, 2**63 - 1)
        assert sum(emp.counts[ChoiceSet("abc")].values()) == 2**63 - 1
        for bad in (2**63, np.uint64(2**63), 10**30):
            with pytest.raises(ValueError) as err:
                empirical_rule(GumbelLuceSampler(w, seed=0), fam, bad)
            assert str(err.value) == f"n_draws must be at most 2**63 - 1, got {bad!r}"

    def test_memory_does_not_grow_with_draws(self):
        w = _abc_weights()
        fam = ChoiceFamily.of_pairs(w.universe)
        tracemalloc.start()
        try:
            emp = empirical_rule(GumbelLuceSampler(w, seed=2), fam, 4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(emp.counts[ChoiceSet("abc")].values()) == 4_000_000
        assert peak < 16 * 2**20  # one 4M × 3 matrix alone would be 96 MB


@st.composite
def _sampler_cases(draw):
    """A universe of 2-6 alternatives with weights, a utility and a seed."""
    n = draw(st.integers(2, 6))
    universe = Universe("abcdef"[:n])
    alpha = draw(st.lists(st.floats(-700, 700), min_size=n, max_size=n))
    levels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = LuceWeights.from_alpha(universe, dict(zip(universe, alpha)))
    u = {a: float(x) for a, x in zip(universe, levels)}
    return weights, u, seed


def _samplers(weights, u, seed):
    order = WeakOrder.from_utility(weights.universe, u)
    return {
        "gumbel": GumbelLuceSampler(weights, seed=seed),
        "independent": IndependentRumSampler(u, weights, seed=seed),
        "lex": LexSampler(order, GumbelLuceSampler(weights, seed=seed)),
    }


class TestTopChoiceTally:
    @settings(max_examples=40, deadline=None)
    @given(_sampler_cases(), st.integers(1, 60))
    def test_contenders_totals_and_reproducibility(self, case, n_draws):
        weights, u, seed = case
        family = ChoiceFamily.of_all_subsets(weights.universe)
        order = WeakOrder.from_utility(weights.universe, u)
        for name, sampler in _samplers(weights, u, seed).items():
            emp = empirical_rule(sampler, family, n_draws)
            again = empirical_rule(_samplers(weights, u, seed)[name], family, n_draws)
            assert emp.counts == again.counts
            for A in family:
                row = emp.counts[A]
                assert list(row) == list(A.members)
                assert sum(row.values()) == n_draws
                if name == "lex":
                    allowed = set(maximizers(order, A).members)
                elif name == "independent":
                    top = max(u[a] for a in A)
                    allowed = {a for a in A if u[a] == top}
                else:
                    allowed = set(A.members)
                assert {a for a, c in row.items() if c} <= allowed
                if len(allowed) == 1:
                    assert row[next(iter(allowed))] == n_draws

    def test_shares_match_the_general_luce_rule(self):
        universe = Universe("abcde")
        weights = LuceWeights.from_alpha(
            universe, {"a": 0.0, "b": 0.7, "c": -0.4, "d": 1.1, "e": 0.2}
        )
        u = {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0, "e": 1.0}
        family = ChoiceFamily.of_all_subsets(universe)
        n_draws = 20_000
        flat = {a: 0.0 for a in universe}
        targets = {
            "gumbel": general_luce_rule_from_utility(flat, weights, family),
            "independent": general_luce_rule_from_utility(u, weights, family),
            "lex": general_luce_rule_from_utility(u, weights, family),
        }
        for name, sampler in _samplers(weights, u, seed=31).items():
            emp = empirical_rule(sampler, family, n_draws)
            for A in family:
                for a in A:
                    p = float(targets[name].p(a, A))
                    bound = 5 * math.sqrt(p * (1 - p) / n_draws)
                    assert abs(emp.counts[A][a] / n_draws - p) <= bound, (name, A, a)

    def test_far_ahead_member_wins_every_draw(self):
        # α = {a: 0, b: 800}: e^800 overflows a float, so the race must clip
        # its exponent rather than let an inf or NaN key decide.
        u = Universe("ab")
        weights = LuceWeights.from_v(u, {"a": 1, "b": Fraction(math.exp(400)) ** 2})
        assert weights.alpha["b"] == pytest.approx(800.0)
        family = ChoiceFamily.of_all_subsets(u)
        with np.errstate(over="raise", invalid="raise"):
            emp = empirical_rule(GumbelLuceSampler(weights, seed=0), family, 50_000)
        assert emp.counts[ChoiceSet("ab")] == {"a": 0, "b": 50_000}

    @settings(max_examples=30, deadline=None)
    @given(_sampler_cases())
    def test_shares_follow_the_logit_law_over_the_contenders(self, case):
        weights, u, seed = case
        family = ChoiceFamily.of_all_subsets(weights.universe)
        n_draws = 20_000
        for name, sampler in _samplers(weights, u, seed).items():
            emp = empirical_rule(sampler, family, n_draws)
            again = empirical_rule(_samplers(weights, u, seed)[name], family, n_draws)
            assert emp.counts == again.counts
            for A in family:
                names = sampler.contenders(A)
                alpha = [weights.alpha[a] for a in names]
                top = max(alpha)
                total = math.fsum(math.exp(x - top) for x in alpha)
                for a in A:
                    share = emp.counts[A][a] / n_draws
                    if a not in names:
                        assert share == 0, (name, A, a)
                        continue
                    p = math.exp(weights.alpha[a] - top) / total
                    bound = 6 * math.sqrt(p * (1 - p) / n_draws) + 1 / n_draws
                    assert abs(share - p) <= bound, (name, A, a, share, p)

    @pytest.mark.parametrize("bad", [0, -3, True, 10.0, "10"])
    def test_n_draws_must_be_a_positive_int(self, bad):
        w = _abc_weights()
        family = ChoiceFamily.of_all_subsets(w.universe)
        with pytest.raises(ValueError, match="n_draws"):
            empirical_rule(GumbelLuceSampler(w, seed=0), family, bad)

    def test_numpy_integer_draw_count(self):
        w = _abc_weights()
        family = ChoiceFamily.of_all_subsets(w.universe)
        emp = empirical_rule(GumbelLuceSampler(w, seed=0), family, np.int64(7))
        assert emp.n_draws == 7 and type(emp.n_draws) is int
