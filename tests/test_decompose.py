import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    FLOAT,
    ChoiceFamily,
    ChoiceSet,
    DegenerateOddsError,
    LucekitError,
    LuceDecomposition,
    LuceWeights,
    MissingPairsError,
    NotRationalError,
    RandomChoiceRule,
    ReconstructionMismatchError,
    Universe,
    WeakOrder,
    check_warp,
    correspondence_from_order,
    decompose,
    general_luce_rule,
    loads_document,
    luce_rule,
    recover_v,
    revealed_order,
    support_correspondence,
    write_document,
)
from lucekit.cli import main
from lucekit.core import within_tolerance
from lucekit.documents import encode_axiom_report

import helpers
import oracle_decompose as oracle
from test_axioms import bad_rule


def _worked_example():
    u = Universe("abc")
    order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
    gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1)})
    return general_luce_rule(gamma, w), order


def starved_triple_rule() -> RandomChoiceRule:
    """Pairs say a ~ b ~ c, but the triple starves c: the support fails WARP."""
    u = Universe("abc")
    half = Fraction(1, 2)
    return RandomChoiceRule(
        ChoiceFamily.of_all_subsets(u),
        {
            ChoiceSet("a"): {"a": 1},
            ChoiceSet("b"): {"b": 1},
            ChoiceSet("c"): {"c": 1},
            ChoiceSet("ab"): {"a": half, "b": half},
            ChoiceSet("ac"): {"a": half, "c": half},
            ChoiceSet("bc"): {"b": half, "c": half},
            ChoiceSet("abc"): {"a": half, "b": half, "c": 0},
        },
    )


def cyclic_rule() -> RandomChoiceRule:
    """a beats b beats c beats a, on the three pairs alone."""
    u = Universe("abc")
    fam = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("ac"), ChoiceSet("bc")])
    return RandomChoiceRule(
        fam,
        {
            ChoiceSet("ab"): {"a": 1, "b": 0},
            ChoiceSet("bc"): {"b": 1, "c": 0},
            ChoiceSet("ac"): {"a": 0, "c": 1},
        },
    )


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
        axioms = sys.modules["lucekit.axioms"]
        rule = helpers.random_synthesized_rule(5, random.Random(3))
        walks, scans = [], []
        real_walk = axioms._walk_pairs
        monkeypatch.setattr(
            axioms, "_walk_pairs", lambda *args, **kw: walks.append(args) or real_walk(*args, **kw)
        )
        monkeypatch.setattr(
            sys.modules["lucekit.synthesize"], "check_warp",
            lambda corr: scans.append(corr) or check_warp(corr),
        )
        for subject in (rule, rule.as_float()):
            decompose(subject)
        assert walks == []  # an accepted rule walks no nested pair, in either mode
        dec = decompose(rule)
        assert general_luce_rule(dec.gamma, LuceWeights.from_v(rule.universe, dec.v)) == rule
        # Γ is the maximizers of the order its pairs reveal, so the build skips the scan too.
        assert scans == [] and walks == []

    def test_support_correspondence_is_built_once(self, monkeypatch):
        # One nested-pair index per call, also on a refusal: the refusal's WARP
        # report comes off the rule view's own index and support masks, and
        # encodes as the report of the rule's support correspondence.
        axioms = sys.modules["lucekit.axioms"]
        decompose_module = sys.modules["lucekit.decompose"]
        assert not hasattr(decompose_module, "support_correspondence")
        assert not hasattr(decompose_module, "check_warp")
        built = []
        real_init = axioms._NestedPairs.__init__

        def counting(self, family):
            built.append(family)
            real_init(self, family)

        monkeypatch.setattr(axioms._NestedPairs, "__init__", counting)
        accepted = helpers.random_synthesized_rule(5, random.Random(4))
        for rule in (accepted, cyclic_rule(), starved_triple_rule()):
            for subject in (rule, rule.as_float()):
                want = check_warp(support_correspondence(subject))
                for fn in (revealed_order, decompose):
                    built.clear()
                    try:
                        fn(subject)
                        refusal = None
                    except NotRationalError as exc:
                        refusal = exc
                    assert len(built) == 1
                    assert (refusal is None) == (rule is accepted)
                    if refusal is not None and want.holds:  # the pairs rank no weak order
                        assert refusal.report is None
                    elif refusal is not None:
                        assert encode_axiom_report(refusal.report) == encode_axiom_report(want)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_maximizers_are_computed_once_per_set(self, monkeypatch, n):
        core_module = sys.modules["lucekit.core"]
        rule = helpers.random_synthesized_rule(n, random.Random(n))
        calls = []
        real = core_module.maximizers

        def counting(order, A):
            calls.append(A)
            return real(order, A)

        monkeypatch.setattr(core_module, "maximizers", counting)
        dec = decompose(rule)
        assert not hasattr(sys.modules["lucekit.decompose"], "maximizers")
        assert calls == []  # Γ comes from the rule view's Luce fit, as bitmasks
        assert dec.gamma == support_correspondence(rule)

    @pytest.mark.parametrize("as_float", [False, True])
    def test_accepted_rule_reads_one_rule_view(self, monkeypatch, as_float):
        axioms = sys.modules["lucekit.axioms"]
        rule = helpers.random_synthesized_rule(5, random.Random(5))
        if as_float:
            rule = rule.as_float()
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(axioms._RuleView, "__init__")
        spy(sys.modules["lucekit.synthesize"], "_shared_rule")
        spy(axioms._NestedPairs, "subsets_of")
        dec = decompose(rule)
        assert calls == ["__init__"]  # one rule view, no rebuild, no pair walk
        assert dec.gamma == support_correspondence(rule)

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

    @pytest.mark.parametrize("tiny, alpha_b", [("a", 921.034), ("b", -921.034)])
    def test_exact_odds_beyond_the_float_range(self, tmp_path, capsys, tiny, alpha_b):
        # The odds of b against the representative a are 10^±400, which no
        # float holds; α = ln v still is one.
        u = Universe("ab")
        p = Fraction(1, 10**400)
        row = {tiny: p, ("b" if tiny == "a" else "a"): 1 - p}
        rule = RandomChoiceRule(ChoiceFamily(u, [ChoiceSet("ab")]), {ChoiceSet("ab"): row})
        dec = decompose(rule)
        assert dec.alpha == LuceWeights(u, dec.v).alpha
        assert dec.alpha["a"] == 0.0 and dec.alpha["b"] == pytest.approx(alpha_b, abs=1e-3)
        path = tmp_path / "rule.json"
        write_document(str(path), rule)
        assert main(["decompose", str(path)]) == 0
        assert loads_document(capsys.readouterr().out) == dec


class TestRefusals:
    def test_inconsistent_rule_fails_reconstruction(self):
        # Uniform pairs force equal weights, which contradict the skewed
        # triple even though supports alone look rational.
        with pytest.raises(ReconstructionMismatchError):
            decompose(bad_rule())

    def test_cyclic_binary_supports_are_not_rational(self):
        with pytest.raises(NotRationalError):
            revealed_order(cyclic_rule())

    def test_non_warp_support_is_refused_with_report(self):
        with pytest.raises(NotRationalError) as err:
            decompose(starved_triple_rule())
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

    def test_recover_v_needs_every_class_pair(self):
        u = Universe("abc")
        rule = RandomChoiceRule(
            ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")]),
            {
                ChoiceSet("ab"): {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                ChoiceSet("abc"): {a: Fraction(1, 3) for a in "abc"},
            },
        )
        with pytest.raises(MissingPairsError) as err:
            recover_v(rule, WeakOrder.trivial(u))
        assert str(err.value) == "family lacks the pair {a,c}"

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


def random_support_row(rng: random.Random, A: ChoiceSet) -> dict:
    """Random positive rational masses on a random nonempty part of ``A``."""
    chosen = [a for a in A if rng.random() < 0.6] or [rng.choice(A.members)]
    masses = {a: Fraction(rng.randint(1, 9)) for a in chosen}
    total = sum(masses.values())
    return {a: masses.get(a, Fraction(0)) / total for a in A}


def family_with_every_pair(rng: random.Random, kind: str) -> ChoiceFamily:
    """Every pair of 1-6 labels, plus: all other subsets ("complete"), a
    random part of them ("partial"), the whole universe ("pairs") or nothing
    ("pairs-only")."""
    universe = helpers.universe_of(rng.randint(1, 6))
    if kind == "complete":
        return ChoiceFamily.of_all_subsets(universe)
    sets = {A for A in universe.subsets() if len(A) == 2}
    if kind == "partial":
        sets |= {A for A in universe.subsets() if len(A) != 2 and rng.random() < 0.3}
    if kind == "pairs" or not sets:
        sets.add(ChoiceSet(universe.alternatives))
    return ChoiceFamily(universe, sets)


def oracle_case_rule(rng: random.Random, family: ChoiceFamily, kind: str) -> RandomChoiceRule:
    """A selective Luce rule on ``family``; unless ``kind`` is "synthesized",
    one cell moved ("perturbed"), two rows ("mutated") or every row
    ("random-support") given random supports, which makes cyclic pairs and
    non-WARP supports."""
    universe = family.universe
    order = helpers.random_weak_order(universe, rng)
    weights = helpers.random_rational_weights(universe, rng)
    rule = general_luce_rule(correspondence_from_order(order, family), weights)
    if kind == "synthesized":
        return rule
    if kind == "perturbed":
        return helpers.perturb_rule(rule, rng) if len(universe) > 1 else rule
    table = {A: dict(rule.row(A)) for A in family}
    rows = family.sets if kind == "random-support" else rng.sample(family.sets, min(2, len(family)))
    for A in rows:
        table[A] = random_support_row(rng, A)
    return RandomChoiceRule(family, table)


def outcome(fn, rule):
    """The return value, or the refusal's type, message and encoded report."""
    try:
        return fn(rule)
    except LucekitError as exc:
        report = getattr(exc, "report", None)
        return type(exc), str(exc), None if report is None else encode_axiom_report(report)


class TestMatchesWarpFirstOracle:
    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family_kind=st.sampled_from(["complete", "partial", "pairs", "pairs-only"]),
        rule_kind=st.sampled_from(["synthesized", "perturbed", "mutated", "random-support"]),
        as_float=st.booleans(),
    )
    def test_same_result_or_refusal(self, seed, family_kind, rule_kind, as_float):
        rng = random.Random(seed)
        rule = oracle_case_rule(rng, family_with_every_pair(rng, family_kind), rule_kind)
        if as_float:
            rule = rule.as_float()
        assert outcome(revealed_order, rule) == outcome(oracle.revealed_order, rule)
        assert outcome(decompose, rule) == outcome(oracle.decompose, rule)

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_float_cell_one_ulp_from_the_tolerance(self, side):
        # p(a, {a,b,c}) sits one ulp inside or outside eps of its rebuilt value.
        # These weights make the rebuilt value depend on the order of the sum.
        u = Universe("abc")
        w = LuceWeights.from_v(u, {"a": 0.53, "b": 2.11, "c": 4.23})
        rule = luce_rule(w, ChoiceFamily.of_all_subsets(u))
        v = decompose(rule).v
        rebuilt = v["a"] / sum(v[b] for b in "abc")
        assert rebuilt != v["a"] / sum(v[b] for b in "cba")
        edge = (rebuilt + rule.eps * (1.0 + rebuilt)) / (1.0 - rule.eps)
        while within_tolerance(rebuilt, edge, rule.eps):
            edge = math.nextafter(edge, 2.0)
        while not within_tolerance(rebuilt, edge, rule.eps):
            edge = math.nextafter(edge, 0.0)
        table = {A: dict(rule.row(A)) for A in rule.family}
        table[ChoiceSet("abc")]["a"] = edge if side == "inside" else math.nextafter(edge, 2.0)
        moved = RandomChoiceRule(rule.family, table, mode=FLOAT, eps=rule.eps)
        ours = outcome(decompose, moved)
        assert ours == outcome(oracle.decompose, moved)
        if side == "inside":
            assert isinstance(ours, LuceDecomposition)
        else:
            assert ours[0] is ReconstructionMismatchError and "('a', {a,b,c})" in ours[1]
