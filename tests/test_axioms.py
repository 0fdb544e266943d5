import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    Axiom,
    ChoiceFamily,
    ChoiceSet,
    FamilySizeError,
    RandomChoiceRule,
    Universe,
    WITNESS_CAP,
    Witness,
    check_all,
    check_choice_axiom,
    check_full_support,
    check_odds_independence,
    check_positivity,
    check_product_rule,
    check_renyi_conditioning,
    check_set_choice_axiom,
    check_set_intersection_rule,
    check_warp,
    replay_witness,
    support_correspondence,
)

import helpers

FIVE_EQUIVALENTS = (
    check_choice_axiom,
    check_odds_independence,
    check_product_rule,
    check_set_choice_axiom,
    check_set_intersection_rule,
)


def bad_rule() -> RandomChoiceRule:
    """Uniform pairs with a skewed triple: every factorization identity breaks."""
    u = Universe("abc")
    fam = ChoiceFamily.of_all_subsets(u)
    half = Fraction(1, 2)
    return RandomChoiceRule(
        fam,
        {
            ChoiceSet("a"): {"a": 1},
            ChoiceSet("b"): {"b": 1},
            ChoiceSet("c"): {"c": 1},
            ChoiceSet("ab"): {"a": half, "b": half},
            ChoiceSet("ac"): {"a": half, "c": half},
            ChoiceSet("bc"): {"b": half, "c": half},
            ChoiceSet("abc"): {"a": half, "b": Fraction(3, 10), "c": Fraction(1, 5)},
        },
    )


class TestFailingRule:
    def test_all_five_equivalents_fail(self):
        rule = bad_rule()
        for checker in FIVE_EQUIVALENTS:
            assert not checker(rule).holds

    def test_factorization_counts(self):
        rule = bad_rule()
        ca = check_choice_axiom(rule)
        assert (ca.violation_count, ca.pairs_checked) == (6, 15)
        oi = check_odds_independence(rule)
        assert (oi.violation_count, oi.pairs_checked) == (3, 3)
        pr = check_product_rule(rule)
        assert (pr.violation_count, pr.pairs_checked) == (3, 3)
        sca = check_set_choice_axiom(rule)
        assert (sca.violation_count, sca.pairs_checked) == (6, 18)
        sir = check_set_intersection_rule(rule)
        assert (sir.violation_count, sir.pairs_checked) == (12, 96)
        cond = check_renyi_conditioning(rule)
        assert (cond.violation_count, cond.pairs_checked) == (6, 15)

    def test_documented_witness(self):
        rep = check_choice_axiom(bad_rule())
        w = rep.witnesses[0]
        assert [s.members for s in w.sets] == [("a", "b"), ("a", "b", "c")]
        assert w.elements == ("a",)
        assert (w.lhs, w.rhs) == (Fraction(1, 2), Fraction(2, 5))

    def test_positivity_and_full_support_still_hold(self):
        rule = bad_rule()
        assert check_positivity(rule).holds
        assert check_full_support(rule).holds
        assert check_warp(support_correspondence(rule)).holds

    def test_every_witness_replays(self):
        rule = bad_rule()
        for name, rep in check_all(rule).items():
            for w in rep.witnesses:
                subject = (
                    support_correspondence(rule) if w.axiom == Axiom.WARP else rule
                )
                assert replay_witness(subject, w), (name, w)

    def test_float_mode_still_detects(self):
        rule = bad_rule().as_float()
        for checker in FIVE_EQUIVALENTS:
            assert not checker(rule).holds


def degenerate_rule() -> RandomChoiceRule:
    """Uniform pairs with all of abc's mass on a: a's odds against b turn
    infinite, b against c turn 0/0, and abc's support {a} fails WARP on ab."""
    u = Universe("abc")
    half = Fraction(1, 2)
    table = {A: {a: half for a in A} for A in map(ChoiceSet, ("ab", "ac", "bc"))}
    table.update({ChoiceSet(a): {a: 1} for a in "abc"})
    table[ChoiceSet("abc")] = {"a": 1, "b": 0, "c": 0}
    return RandomChoiceRule(ChoiceFamily.of_all_subsets(u), table)


class TestReplayBranches:
    def test_warp_witness_against_a_rule_and_a_correspondence(self):
        rule = degenerate_rule()
        corr = support_correspondence(rule)
        witness = check_warp(corr).witnesses[0]
        assert witness.sets == (ChoiceSet("ab"), ChoiceSet("abc"))
        assert replay_witness(rule, witness) and replay_witness(corr, witness)
        fake = Witness(Axiom.WARP, (ChoiceSet("a"), ChoiceSet("abc")), (), None, None)
        assert not replay_witness(rule, fake) and not replay_witness(corr, fake)

    def test_other_witnesses_need_a_rule(self):
        rule = degenerate_rule()
        witness = check_choice_axiom(rule).witnesses[0]
        with pytest.raises(TypeError) as exc:
            replay_witness(support_correspondence(rule), witness)
        assert str(exc.value) == "choice-axiom witnesses replay against a rule"

    def test_odds_with_mismatched_kinds_and_an_indeterminate_right_side(self):
        rule = degenerate_rule()
        ab, bc, abc = ChoiceSet("ab"), ChoiceSet("bc"), ChoiceSet("abc")
        found = {w.sets: w for w in check_odds_independence(rule).witnesses}
        # 1 against ∞: the kinds differ.
        assert found[(ab, abc)].lhs.is_finite and found[(ab, abc)].rhs.is_infinite
        assert replay_witness(rule, found[(ab, abc)])
        # 0/0 on abc is no instance, so no witness.
        assert (bc, abc) not in found
        assert not replay_witness(rule, Witness(Axiom.ODDS_INDEPENDENCE, (bc, abc), ("b", "c"), None, None))

    def test_renyi_outside_the_support(self):
        rule = degenerate_rule()
        witness = Witness(Axiom.RENYI_CONDITIONING, (ChoiceSet("bc"), ChoiceSet("abc")), ("b",), None, None)
        assert not replay_witness(rule, witness)

    def test_unknown_axiom(self):
        witness = Witness("bogus", (ChoiceSet("ab"),), ("a",), None, None)
        with pytest.raises(ValueError) as exc:
            replay_witness(degenerate_rule(), witness)
        assert str(exc.value) == "unknown axiom 'bogus'"


class TestPassingRules:
    def test_synthesized_rules_pass_everything_relevant(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            rule = helpers.random_synthesized_rule(n, rng)
            reports = check_all(rule)
            for name in (
                "choice-axiom",
                "odds-independence",
                "product-rule",
                "set-choice-axiom",
                "set-intersection-rule",
                "renyi-conditioning",
                "warp",
            ):
                assert reports[name].holds, (n, name, reports[name].witnesses[:1])

    def test_full_support_rule_passes_positivity(self):
        rng = random.Random(6)
        u = helpers.universe_of(4)
        weights = helpers.random_rational_weights(u, rng)
        from lucekit import luce_rule

        rule = luce_rule(weights, ChoiceFamily.of_all_subsets(u))
        assert check_positivity(rule).holds
        assert check_full_support(rule).holds

    def test_selective_rule_fails_positivity_and_full_support(self):
        from lucekit import LuceWeights, WeakOrder, correspondence_from_order, general_luce_rule

        u = Universe("abc")
        order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
        gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
        rule = general_luce_rule(gamma, LuceWeights.uniform(u))
        pos = check_positivity(rule)
        fs = check_full_support(rule)
        assert not pos.holds and not fs.holds
        assert pos.witnesses and fs.witnesses
        for w in pos.witnesses + fs.witnesses:
            assert replay_witness(rule, w)

    def test_check_all_order_and_keys(self):
        rule = bad_rule()
        assert list(check_all(rule)) == [a.value for a in Axiom]


class TestReportMechanics:
    def test_family_complete_flag(self):
        u = Universe("abc")
        partial = ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")])
        rule = RandomChoiceRule(
            partial,
            {
                ChoiceSet("ab"): {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                ChoiceSet("abc"): {a: Fraction(1, 3) for a in "abc"},
            },
        )
        assert not check_positivity(rule).family_complete
        assert not check_choice_axiom(rule).family_complete
        assert check_positivity(bad_rule()).family_complete

    def test_witness_cap(self):
        rng = random.Random(11)
        # A heavily perturbed size-5 rule yields far more factorization
        # breaks than the cap.
        rule = helpers.random_synthesized_rule(5, rng)
        for _ in range(8):
            rule = helpers.perturb_rule(rule, rng)
        rep = check_set_intersection_rule(rule)
        assert not rep.holds
        assert rep.violation_count > WITNESS_CAP
        assert len(rep.witnesses) == WITNESS_CAP

    def test_verdict_property(self):
        good = check_positivity(bad_rule())
        assert good.verdict == "holds"
        bad = check_choice_axiom(bad_rule())
        assert bad.verdict == "fails"

    def test_size_guards(self):
        labels = [f"x{i:02d}" for i in range(17)]
        u = Universe(labels)
        fam = ChoiceFamily(u, [ChoiceSet(labels)])
        rule = RandomChoiceRule(
            fam, {ChoiceSet(labels): {a: Fraction(1, 17) for a in labels}}
        )
        with pytest.raises(FamilySizeError):
            check_set_intersection_rule(rule)
        with pytest.raises(FamilySizeError):
            check_set_choice_axiom(rule)


class TestFloatDetection:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shift=st.floats(min_value=1e-3, max_value=0.2),
    )
    def test_float_perturbations_at_least_1e_minus_3_are_caught(self, seed, shift):
        rng = random.Random(seed)
        rule = helpers.random_synthesized_rule(3, rng).as_float()
        full = ChoiceSet("abc")
        row = dict(rule.row(full))
        supp = [a for a in full if rule.is_positive(row[a])]
        donor = rng.choice(supp)
        others = [a for a in full if a != donor]
        receiver = rng.choice(others)
        delta = min(shift, float(row[donor]) / 2)
        row[donor] -= delta
        row[receiver] += delta
        table = {B: dict(rule.row(B)) for B in rule.family}
        table[full] = row
        moved = RandomChoiceRule(rule.family, table, mode="float")
        if delta < 1e-3:
            return  # donor had almost no mass to give; nothing to detect
        assert not check_choice_axiom(moved).holds

    def test_tolerance_scales_with_eps(self):
        # A drift of 1e-8 on one pair hides below eps=1e-6 but not eps=1e-12.
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        third = 1.0 / 3.0
        table = {
            ChoiceSet("a"): {"a": 1.0},
            ChoiceSet("b"): {"b": 1.0},
            ChoiceSet("c"): {"c": 1.0},
            ChoiceSet("ab"): {"a": 0.5 + 1e-8, "b": 0.5 - 1e-8},
            ChoiceSet("ac"): {"a": 0.5, "c": 0.5},
            ChoiceSet("bc"): {"b": 0.5, "c": 0.5},
            ChoiceSet("abc"): {"a": third, "b": third, "c": third},
        }
        drifted = RandomChoiceRule(fam, table, mode="float")
        assert check_choice_axiom(drifted, eps=1e-6).holds
        assert not check_choice_axiom(drifted, eps=1e-12).holds

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_eps_override_is_refused(self, eps):
        rule = helpers.random_synthesized_rule(3, random.Random(2))
        for subject in (rule, rule.as_float()):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                check_all(subject, eps=eps)
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                check_set_choice_axiom(subject, eps=eps)
        witness = check_all(bad_rule())[Axiom.CHOICE_AXIOM].witnesses[0]
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            replay_witness(bad_rule().as_float(), witness, eps=eps)


class TestConditioningMatchesFactorization:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_verdicts_coincide_on_random_rules(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4))
        if rng.random() < 0.5:
            rule = helpers.random_synthesized_rule(n, rng)
            if rng.random() < 0.7:
                rule = helpers.perturb_rule(rule, rng)
        else:
            rule = _dirichlet_like_rule(n, rng)
        assert check_renyi_conditioning(rule).holds == check_choice_axiom(rule).holds

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_verdicts_coincide_on_partial_families(self, seed):
        rng = random.Random(seed)
        rule = _dirichlet_like_rule(3, rng, drop_some=True)
        assert check_renyi_conditioning(rule).holds == check_choice_axiom(rule).holds


def _dirichlet_like_rule(
    n: int, rng: random.Random, drop_some: bool = False
) -> RandomChoiceRule:
    """Fully random rational rows, optionally on a strict subfamily."""
    universe = helpers.universe_of(n)
    sets = list(universe.subsets())
    if drop_some and len(sets) > 2:
        keep = [cs for cs in sets if len(cs) == 1 or rng.random() < 0.7]
        multis = [cs for cs in keep if len(cs) > 1]
        if not multis:
            keep.append(sets[-1])
        sets = keep
    fam = ChoiceFamily(universe, sets)
    table = {}
    for A in fam:
        raw = {a: Fraction(rng.randint(0, 8)) for a in A}
        if sum(raw.values()) == 0:
            raw[rng.choice(A.members)] = Fraction(1)
        total = sum(raw.values())
        table[A] = {a: x / total for a, x in raw.items()}
    return RandomChoiceRule(fam, table)
