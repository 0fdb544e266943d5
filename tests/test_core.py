import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    ChoiceCorrespondence,
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    EXACT,
    ExtendedRatio,
    FamilySizeError,
    FLOAT,
    LuceWeights,
    RandomChoiceRule,
    SubsetViolationError,
    Universe,
    UnknownChoiceSetError,
    WeakOrder,
    check_all,
    check_warp,
    correspondence_from_order,
    fit,
    general_luce_rule_from_utility,
    lambda_smoothed_rule,
    limit_check,
    maximizers,
    odds,
    pairwise_odds,
    support,
    support_correspondence,
    utility_from_order,
)

from lucekit import axioms

import helpers


class TestUniverse:
    def test_sorts_labels(self):
        assert Universe(["c", "a", "b"]).alternatives == ("a", "b", "c")

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Universe([])
        with pytest.raises(ValueError):
            Universe(["a", "a"])
        with pytest.raises(ValueError):
            Universe([""])

    def test_index_and_membership(self):
        u = Universe("cab")
        assert u.index("b") == 1
        assert "c" in u and "z" not in u
        assert len(u) == 3

    def test_subsets_enumerates_all_nonempty(self):
        u = Universe("abcd")
        subs = list(u.subsets())
        assert len(subs) == 2**4 - 1
        assert subs[0] == ChoiceSet("a")
        assert subs[-1] == ChoiceSet("abcd")
        assert len(set(subs)) == len(subs)

    def test_subsets_guard(self):
        u = Universe(f"x{i:02d}" for i in range(17))
        with pytest.raises(FamilySizeError):
            list(u.subsets())


class TestChoiceSet:
    def test_sorted_and_validated(self):
        assert ChoiceSet("ba").members == ("a", "b")
        with pytest.raises(ValueError):
            ChoiceSet([])
        with pytest.raises(ValueError):
            ChoiceSet("aa")

    def test_issubset(self):
        assert ChoiceSet("ab").issubset(ChoiceSet("abc"))
        assert not ChoiceSet("ad").issubset(ChoiceSet("abc"))


class TestChoiceFamily:
    def test_canonical_order_and_position(self):
        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("abc"), ChoiceSet("b"), ChoiceSet("ab")])
        assert [cs.members for cs in fam] == [("b",), ("a", "b"), ("a", "b", "c")]
        assert fam.position(ChoiceSet("ab")) == 1
        with pytest.raises(UnknownChoiceSetError):
            fam.position(ChoiceSet("ac"))

    def test_rejects_duplicates_and_stragglers(self):
        u = Universe("ab")
        with pytest.raises(ValueError):
            ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("ba")])
        with pytest.raises(ValueError):
            ChoiceFamily(u, [ChoiceSet("az")])
        with pytest.raises(ValueError):
            ChoiceFamily(u, [])

    def test_all_subsets_flag(self):
        u = Universe("abc")
        assert ChoiceFamily.of_all_subsets(u).all_subsets
        assert not ChoiceFamily.of_pairs(u).all_subsets

    def test_of_pairs_is_pairs_plus_full_set(self):
        fam = ChoiceFamily.of_pairs(Universe("abcd"))
        sizes = sorted(len(cs) for cs in fam)
        assert sizes == [2, 2, 2, 2, 2, 2, 4]
        assert ChoiceSet("abcd") in fam
        assert fam.contains_all_pairs()

    @pytest.mark.parametrize(
        "labels, sets", [("a", ["a"]), ("ab", ["ab"]), ("abc", ["ab", "ac", "bc", "abc"])]
    )
    def test_of_pairs_on_small_universes(self, labels, sets):
        # On two labels the only pair is the whole universe, listed once.
        fam = ChoiceFamily.of_pairs(Universe(labels))
        assert fam.sets == tuple(ChoiceSet(s) for s in sets)
        assert fam.contains_all_pairs()

    def test_contains_all_pairs(self):
        u = Universe("abc")
        assert ChoiceFamily.of_all_subsets(u).contains_all_pairs()
        partial = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")])
        assert not partial.contains_all_pairs()
        assert ChoiceFamily(Universe("a"), [ChoiceSet("a")]).contains_all_pairs()


def _uniform_rule(n: int) -> RandomChoiceRule:
    u = helpers.universe_of(n)
    fam = ChoiceFamily.of_all_subsets(u)
    return RandomChoiceRule(
        fam, {A: {a: Fraction(1, len(A)) for a in A} for A in fam}
    )


class TestRandomChoiceRule:
    def test_exact_validation(self):
        u = Universe("ab")
        fam = ChoiceFamily.of_all_subsets(u)
        good = {
            ChoiceSet("a"): {"a": 1},
            ChoiceSet("b"): {"b": Fraction(1)},
            ChoiceSet("ab"): {"a": Fraction(1, 3), "b": Fraction(2, 3)},
        }
        rule = RandomChoiceRule(fam, good)
        assert rule.p("a", ChoiceSet("ab")) == Fraction(1, 3)

        bad_sum = dict(good)
        bad_sum[ChoiceSet("ab")] = {"a": Fraction(1, 3), "b": Fraction(1, 3)}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, bad_sum)

        negative = dict(good)
        negative[ChoiceSet("ab")] = {"a": Fraction(3, 2), "b": Fraction(-1, 2)}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, negative)

        not_rational = dict(good)
        not_rational[ChoiceSet("ab")] = {"a": 0.5, "b": 0.5}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, not_rational)

        # Unlisted members are implicit zeros.
        partial_row = dict(good)
        partial_row[ChoiceSet("ab")] = {"a": Fraction(1)}
        filled = RandomChoiceRule(fam, partial_row)
        assert filled.p("b", ChoiceSet("ab")) == 0

        mass_outside = dict(good)
        mass_outside[ChoiceSet("ab")] = {"a": Fraction(1), "c": Fraction(0)}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, mass_outside)

        missing_row = dict(good)
        del missing_row[ChoiceSet("ab")]
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, missing_row)

        extra_row = dict(good)
        extra_row[ChoiceSet("abz")] = {"z": Fraction(1)}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, extra_row)

    @pytest.mark.parametrize(
        "mode, row",
        [
            (EXACT, {"a": True, "b": 0}),
            (EXACT, {"a": 1, "b": False}),
            (EXACT, {"a": "1", "b": 0}),
            (FLOAT, {"a": True, "b": 0.0}),
            (FLOAT, {"a": "0.5", "b": 0.5}),
        ],
    )
    def test_bool_and_str_cells_rejected(self, mode, row):
        fam = ChoiceFamily(Universe("ab"), [ChoiceSet("ab")])
        bad = next(type(x).__name__ for x in row.values() if isinstance(x, (bool, str)))
        with pytest.raises(ValueError, match=rf"got {bad} at \(\w, {{a,b}}\)"):
            RandomChoiceRule(fam, {ChoiceSet("ab"): row}, mode=mode)

    def test_mode_validation(self):
        fam = ChoiceFamily.of_all_subsets(Universe("a"))
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, {ChoiceSet("a"): {"a": 1}}, mode="fuzzy")

    def test_float_tolerance(self):
        u = Universe("ab")
        fam = ChoiceFamily.of_all_subsets(u)
        table = {
            ChoiceSet("a"): {"a": 1.0},
            ChoiceSet("b"): {"b": 1.0},
            ChoiceSet("ab"): {"a": 0.6 + 4e-10, "b": 0.4},
        }
        RandomChoiceRule(fam, table, mode=FLOAT, eps=1e-9)
        table[ChoiceSet("ab")] = {"a": 0.7, "b": 0.4}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, table, mode=FLOAT, eps=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_cells_rejected(self, bad):
        fam = ChoiceFamily(Universe("ab"), [ChoiceSet("ab")])
        with pytest.raises(ValueError, match="non-finite probability"):
            RandomChoiceRule(fam, {ChoiceSet("ab"): {"a": 0.5, "b": bad}}, mode=FLOAT)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        fam = ChoiceFamily(Universe("ab"), [ChoiceSet("ab")])
        with pytest.raises(ValueError, match="eps"):
            RandomChoiceRule(fam, {ChoiceSet("ab"): {"a": 0.5, "b": 0.5}}, mode=FLOAT, eps=eps)

    def test_empty_support_rejected_in_float_mode(self):
        fam = ChoiceFamily(Universe("ab"), [ChoiceSet("ab")])
        # Entries at or below eps count as zero, so this row has no support.
        table = {ChoiceSet("ab"): {"a": 0.5, "b": 0.5}}
        with pytest.raises(ValueError):
            RandomChoiceRule(fam, table, mode=FLOAT, eps=0.5)

    def test_float_cells_of_other_number_types_are_stored_as_floats(self):
        import numpy as np

        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")])
        table = {
            ChoiceSet("ab"): {"a": 1, "b": 0},
            ChoiceSet("abc"): {"a": Fraction(1, 2), "b": np.float64(0.25), "c": 0.25},
        }
        rule = RandomChoiceRule(fam, table, mode=FLOAT)
        assert rule.table == {
            ChoiceSet("ab"): {"a": 1.0, "b": 0.0},
            ChoiceSet("abc"): {"a": 0.5, "b": 0.25, "c": 0.25},
        }
        assert {type(x) for row in rule.table.values() for x in row.values()} == {float}

    def test_p_set_folds_floats_left_to_right(self):
        # Ten cells of 0.1 add up to 0.9999999999999999 left to right; a
        # compensated sum (builtin sum from Python 3.12 on) gives 1.0.
        u = Universe([f"a{j}" for j in range(10)])
        A = ChoiceSet(u.alternatives)
        rule = RandomChoiceRule(ChoiceFamily(u, [A]), {A: dict.fromkeys(A, 0.1)}, mode=FLOAT)
        folded = 0.0
        for _ in range(10):
            folded += 0.1
        assert folded == 0.9999999999999999
        assert rule.p_set(A, A).hex() == folded.hex()
        assert axioms._RuleView(rule).p_set(0, (1 << 10) - 1).hex() == folded.hex()

    def test_lookups_and_support(self):
        rule = _uniform_rule(3)
        abc, ab = ChoiceSet("abc"), ChoiceSet("ab")
        assert rule.p("a", abc) == Fraction(1, 3)
        assert rule.p_set(ab, abc) == Fraction(2, 3)
        assert support(rule, abc) == abc
        with pytest.raises(UnknownChoiceSetError):
            rule.p("a", ChoiceSet("az"))
        # Off-menu mass is zero; p_set sums over the intersection only.
        assert rule.p("z", abc) == 0
        assert rule.p_set(ChoiceSet("ad"), abc) == Fraction(1, 3)

    def test_as_float(self):
        rule = _uniform_rule(2).as_float(eps=1e-7)
        assert rule.mode == FLOAT and rule.eps == 1e-7
        assert rule.p("a", ChoiceSet("ab")) == pytest.approx(0.5)

    def test_support_correspondence(self):
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
        corr = support_correspondence(rule)
        assert corr.gamma(ChoiceSet("ab")) == ChoiceSet("a")
        assert corr.gamma(ChoiceSet("b")) == ChoiceSet("b")


def _fraction_row_error(family, table, mode, eps):
    """The row checks as made on the Fraction (or float) cells themselves: the oracle.

    Returns the ``ValueError`` text of the first failing row, in family order,
    or None when every row passes.
    """
    for cs in family:
        row = table[cs]
        if mode == EXACT:
            vals = {a: Fraction(row.get(a, 0)) for a in cs}
            if any(v < 0 or v > 1 for v in vals.values()):
                return f"probabilities outside [0, 1] on {cs}"
            if sum(vals.values()) != 1:
                return f"masses on {cs} sum to {sum(vals.values())}, not 1"
            if not any(v > 0 for v in vals.values()):
                return f"empty support on {cs}"
        else:
            vals = {a: float(row.get(a, 0.0)) for a in cs}
            if any(v < -eps or v > 1.0 + eps for v in vals.values()):
                return f"probabilities outside [0, 1] (eps={eps}) on {cs}"
            if abs(sum(vals.values()) - 1.0) > eps * len(cs):
                return f"masses on {cs} sum to {sum(vals.values())}, not 1"
            if not any(v > eps for v in vals.values()):
                return f"empty support on {cs}"
    return None


@st.composite
def _row(draw, members):
    """A row over ``members``: a distribution, or one edited to be negative,
    above 1, short of 1 or all zero. Cells are Fractions over a scaled total
    (so denominators differ within a row), ints where they are 0 or 1."""
    weights = draw(st.lists(st.integers(0, 6), min_size=len(members), max_size=len(members)))
    if not any(weights):
        weights[draw(st.integers(0, len(members) - 1))] = 1
    scale = draw(st.integers(1, 4))
    total = sum(weights) * scale
    cells = [Fraction(w * scale, total) for w in weights]
    edit = draw(st.sampled_from(["none", "none", "none", "negative", "above", "short", "zero"]))
    j = draw(st.integers(0, len(members) - 1))
    if edit == "negative":
        cells[j] -= Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    elif edit == "above":
        cells[j] = Fraction(total + draw(st.integers(1, 3)), total)
    elif edit == "short":
        cells = [c * Fraction(total - 1, total) for c in cells]
    elif edit == "zero":
        cells = [Fraction(0)] * len(members)
    return {a: int(c) if c in (0, 1) else c for a, c in zip(members, cells)}


@st.composite
def _table(draw):
    n = draw(st.integers(1, 4))
    universe = helpers.universe_of(n)
    sets = list(universe.subsets())
    chosen = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets), unique=True))
    family = ChoiceFamily(universe, chosen)
    return family, {A: draw(_row(A.members)) for A in family}


class TestIntegerRows:
    """Rows are checked and kept as integers over one denominator; the answers
    must be those of the checks on the cells themselves."""

    @settings(max_examples=300, deadline=None)
    @given(case=_table(), as_float=st.booleans())
    def test_row_checks_match_the_fraction_checks(self, case, as_float):
        from lucekit import axioms

        import oracle_axioms

        family, table = case
        mode = FLOAT if as_float else EXACT
        if as_float:
            table = {A: {a: float(v) for a, v in row.items()} for A, row in table.items()}
        expected = _fraction_row_error(family, table, mode, 1e-9)
        try:
            rule = RandomChoiceRule(family, table, mode=mode)
        except ValueError as exc:
            assert str(exc) == expected
            return
        assert expected is None
        view, old = axioms._RuleView(rule), oracle_axioms._RuleView(rule)
        assert view.nums is rule._nums and view.dens is rule._dens  # taken as they are
        assert view.dens == old.dens and view.nums == old.nums
        kind = float if as_float else int
        assert {type(x) for x in view.dens} == {kind}
        assert {type(x) for num in view.nums for x in num} == {kind}
        assert rule == RandomChoiceRule(family, rule.table, mode=mode)

    def test_rows_are_not_fields(self):
        rule = _uniform_rule(2)
        assert "_nums" not in repr(rule) and "_dens" not in repr(rule)
        twin = RandomChoiceRule(rule.family, {A: dict(row) for A, row in rule.table.items()})
        assert twin == rule


class TestOdds:
    def test_classification(self):
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        rule = RandomChoiceRule(
            fam,
            {
                ChoiceSet("a"): {"a": 1},
                ChoiceSet("b"): {"b": 1},
                ChoiceSet("c"): {"c": 1},
                ChoiceSet("ab"): {"a": Fraction(1, 4), "b": Fraction(3, 4)},
                ChoiceSet("ac"): {"a": 1, "c": 0},
                ChoiceSet("bc"): {"b": 1, "c": 0},
                ChoiceSet("abc"): {"a": Fraction(1, 4), "b": Fraction(3, 4), "c": 0},
            },
        )
        ab, ac, abc = ChoiceSet("ab"), ChoiceSet("ac"), ChoiceSet("abc")
        fin = odds(rule, ab, ChoiceSet("a"), ChoiceSet("b"))
        assert fin.kind == ExtendedRatio.FINITE and fin.value == Fraction(1, 3)
        inf = odds(rule, ac, ChoiceSet("a"), ChoiceSet("c"))
        assert inf.kind == ExtendedRatio.INFINITE
        z = odds(rule, ac, ChoiceSet("c"), ChoiceSet("a"))
        assert z.kind == ExtendedRatio.FINITE and z.value == 0
        # Set-level odds compare subset masses.
        grp = odds(rule, abc, ChoiceSet("ab"), ChoiceSet("c"))
        assert grp.kind == ExtendedRatio.INFINITE
        with pytest.raises(SubsetViolationError):
            odds(rule, ab, ChoiceSet("z"), ChoiceSet("b"))
        pw = pairwise_odds(rule, "a", "b")
        assert pw.value == Fraction(1, 3)

    def test_indeterminate(self):
        u = Universe("abc")
        fam = ChoiceFamily(u, [ChoiceSet("abc")])
        rule = RandomChoiceRule(
            fam, {ChoiceSet("abc"): {"a": 1, "b": 0, "c": 0}}
        )
        r = odds(rule, ChoiceSet("abc"), ChoiceSet("b"), ChoiceSet("c"))
        assert r.kind == ExtendedRatio.INDETERMINATE
        assert r.value is None

    def test_from_parts_eps(self):
        assert ExtendedRatio.from_parts(0.5, 1e-12, eps=1e-9).kind == ExtendedRatio.INFINITE
        assert ExtendedRatio.from_parts(1e-12, 1e-12, eps=1e-9).kind == ExtendedRatio.INDETERMINATE
        fin = ExtendedRatio.from_parts(1.0, 2.0, eps=1e-9)
        assert fin.kind == ExtendedRatio.FINITE and fin.value == 0.5


class TestWeakOrder:
    def test_from_classes_and_ranks(self):
        u = Universe("abcd")
        order = WeakOrder.from_classes(u, [["b", "a"], ["c"], ["d"]])
        assert order.rank("a") == 0 and order.rank("d") == 2
        assert order.classes() == (("a", "b"), ("c",), ("d",))
        assert order.num_classes == 3
        assert order.strictly_prefers("a", "c")
        assert order.indifferent("a", "b")
        assert order.weakly_prefers("a", "b") and not order.strictly_prefers("a", "b")

    def test_from_classes_rejects_repeats_and_gaps(self):
        u = Universe("ab")
        with pytest.raises(ValueError):
            WeakOrder.from_classes(u, [["a"], ["a", "b"]])
        with pytest.raises(ValueError):
            WeakOrder.from_classes(u, [["a"]])

    def test_from_utility_groups_equal_values(self):
        u = Universe("abc")
        order = WeakOrder.from_utility(u, {"a": 2.0, "b": 2.0, "c": -1.0})
        assert order.classes() == (("a", "b"), ("c",))

    def test_trivial(self):
        order = WeakOrder.trivial(Universe("abc"))
        assert order.num_classes == 1

    def test_dense_rank_normalization(self):
        u = Universe("ab")
        order = WeakOrder(u, {"a": 5, "b": 9})
        assert order.rank("a") == 0 and order.rank("b") == 1


class TestOrderHelpers:
    def test_maximizers(self):
        u = Universe("abc")
        order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
        assert maximizers(order, ChoiceSet("abc")) == ChoiceSet("ab")
        assert maximizers(order, ChoiceSet("c")) == ChoiceSet("c")
        with pytest.raises(SubsetViolationError):
            maximizers(order, ChoiceSet("z"))

    def test_utility_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            universe = helpers.universe_of(rng.randint(1, 6))
            order = helpers.random_weak_order(universe, rng)
            u = utility_from_order(order)
            back = WeakOrder.from_utility(universe, {a: float(x) for a, x in u.items()})
            assert back == order

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_maximizer_correspondence_is_warp_rational(self, n, seed):
        rng = random.Random(seed)
        universe = helpers.universe_of(n)
        order = helpers.random_weak_order(universe, rng)
        corr = correspondence_from_order(order, ChoiceFamily.of_all_subsets(universe))
        assert check_warp(corr).holds


class TestChoiceCorrespondence:
    def test_refusal_texts(self):
        u = Universe("abc")
        ab, bc = ChoiceSet("ab"), ChoiceSet("bc")
        cases = [
            (ChoiceFamily(u, [ab]), {ab: ChoiceSet("a"), bc: ChoiceSet("b")},
             "rows for sets outside the family: ['{b,c}']"),
            (ChoiceFamily(u, [ab, bc]), {ab: ChoiceSet("a")}, "missing row for {b,c}"),
            (ChoiceFamily(u, [ab]), {ab: ChoiceSet("c")}, "chosen set {c} not contained in {a,b}"),
        ]
        for family, table, message in cases:
            with pytest.raises(ValueError) as exc:
                ChoiceCorrespondence(family, table)
            assert str(exc.value) == message


def _float_rule(cell) -> RandomChoiceRule:
    family = ChoiceFamily(Universe("ab"), [ChoiceSet("ab")])
    return RandomChoiceRule(family, {ChoiceSet("ab"): {"a": cell, "b": 0.0}}, mode=FLOAT)


def _beyond_the_float_range() -> dict:
    """Each way a number reaches a float in a constructor or check, given 10**400."""
    huge, u, util = 10**400, Universe("ab"), {"a": 1.0, "b": 0.0}
    family, w = ChoiceFamily.of_all_subsets(u), LuceWeights.uniform(u)
    data = ChoiceDataset(u, {ChoiceSet("ab"): {"a": 3, "b": 1}})
    return {
        "float-cell-fraction": lambda: _float_rule(Fraction(huge)),
        "float-cell-int": lambda: _float_rule(huge),
        "float-weight-fraction": lambda: LuceWeights(u, {"a": Fraction(huge), "b": 1.0}),
        "float-weight-int": lambda: LuceWeights(u, {"a": huge, "b": 1.5}),
        "utility": lambda: general_luce_rule_from_utility({"a": huge, "b": 0.0}, w, family),
        "lambda": lambda: lambda_smoothed_rule(util, w, huge, family),
        "schedule": lambda: limit_check(util, w, [huge, 1.0], family),
        "tolerance": lambda: limit_check(util, w, [1.0], family, tolerance=huge),
        "check-all-eps": lambda: check_all(_float_rule(1.0), eps=huge),
        "as-float-eps": lambda: _float_rule(1.0).as_float(huge),
        "pseudo-count": lambda: fit(data, pseudo_count=huge),
    }


BEYOND_THE_FLOAT_RANGE = _beyond_the_float_range()


class TestBeyondTheFloatRange:
    @pytest.mark.parametrize("case", sorted(BEYOND_THE_FLOAT_RANGE))
    def test_refused_as_value_error_not_overflow(self, case):
        # An OverflowError is no ValueError, so it fails this test.
        with pytest.raises(ValueError):
            BEYOND_THE_FLOAT_RANGE[case]()
