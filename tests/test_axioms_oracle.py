"""The checkers against the full-scan reference checkers of ``oracle_axioms``.

Each property builds a rule (exact or float, full or selective support,
optionally with one row perturbed) on a complete family, a random partial
family, or a pairs-plus-menus family on ~20 alternatives where the nested
pair index scans the family instead of walking submasks, and asserts that
every checker's encoded report is byte-identical to the reference's: same
verdict, violation count, witnesses in the same order, and instance count.
"""

import json
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lucekit import (
    Axiom,
    ChoiceCorrespondence,
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    FamilySizeError,
    LuceWeights,
    RandomChoiceRule,
    Universe,
    WITNESS_CAP,
    WeakOrder,
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
    correspondence_from_order,
    dumps_document,
    fit,
    general_luce_rule,
    luce_rule,
    support_correspondence,
    write_document,
)
from lucekit import axioms
from lucekit.cli import main
from lucekit.core import within_tolerance
from lucekit.documents import encode_axiom_report

import helpers
import oracle_axioms as oracle

RULE_CHECKERS = {
    Axiom.CHOICE_AXIOM: (check_choice_axiom, oracle.check_choice_axiom),
    Axiom.ODDS_INDEPENDENCE: (check_odds_independence, oracle.check_odds_independence),
    Axiom.PRODUCT_RULE: (check_product_rule, oracle.check_product_rule),
    Axiom.SET_CHOICE_AXIOM: (check_set_choice_axiom, oracle.check_set_choice_axiom),
    Axiom.SET_INTERSECTION_RULE: (
        check_set_intersection_rule,
        oracle.check_set_intersection_rule,
    ),
    Axiom.POSITIVITY: (check_positivity, oracle.check_positivity),
    Axiom.FULL_SUPPORT: (check_full_support, oracle.check_full_support),
    Axiom.RENYI_CONDITIONING: (check_renyi_conditioning, oracle.check_renyi_conditioning),
}


def encoded(reports, rule=None) -> str:
    """The report document ``lucekit check`` writes for these reports."""
    payload = {
        "type": "axioms",
        "mode": rule.mode if rule else "exact",
        "eps": rule.eps if rule else 0.0,
        "all_hold": all(r.holds for r in reports),
        "reports": [encode_axiom_report(r) for r in reports],
    }
    return dumps_document(payload, kind="report")


def outcome(checker, rule, eps=None):
    """Encoded report, or the size refusal's message."""
    try:
        return encoded([checker(rule) if eps is None else checker(rule, eps=eps)])
    except FamilySizeError as exc:
        return f"FamilySizeError: {exc}"


def complete_family(rng: random.Random, max_n: int = 6) -> ChoiceFamily:
    return ChoiceFamily.of_all_subsets(helpers.universe_of(rng.randint(1, max_n)))


def partial_family(rng: random.Random) -> ChoiceFamily:
    universe = helpers.universe_of(rng.randint(2, 7))
    sets = [cs for cs in universe.subsets() if rng.random() < 0.5]
    sets.append(ChoiceSet(universe.alternatives[:2]))
    return ChoiceFamily(universe, set(sets))


def wide_family(rng: random.Random) -> ChoiceFamily:
    """``of_pairs`` on 18-21 alternatives plus nested menus of 3-12 members.

    The whole universe (and the larger menus) have 2^|A| > |F|, so their
    subsets are found by the family scan; smaller menus walk submasks.
    """
    universe = helpers.universe_of(rng.randint(18, 21))
    sets = set(ChoiceFamily.of_pairs(universe).sets)
    for _ in range(rng.randint(1, 3)):
        big = rng.sample(universe.alternatives, rng.randint(8, 12))
        sets.add(ChoiceSet(big))
        for _ in range(rng.randint(1, 4)):
            sets.add(ChoiceSet(rng.sample(big, rng.randint(3, 6))))
    return ChoiceFamily(universe, sets)


def wide_family_within_limit(rng: random.Random) -> ChoiceFamily:
    """Like :func:`wide_family` but without the whole universe, so set choice runs."""
    family = wide_family(rng)
    full = ChoiceSet(family.universe.alternatives)
    return ChoiceFamily(family.universe, [cs for cs in family if cs != full])


FAMILIES = {
    "complete": complete_family,
    "partial": partial_family,
    "wide": wide_family,
    "wide-within-limit": wide_family_within_limit,
}


def make_rule(rng: random.Random, family: ChoiceFamily, selective: bool, perturb: bool):
    universe = family.universe
    weights = helpers.random_rational_weights(universe, rng)
    if selective:
        order = helpers.random_weak_order(universe, rng)
        rule = general_luce_rule(correspondence_from_order(order, family), weights)
    else:
        rule = luce_rule(weights, family)
    if perturb and any(len(A) >= 2 for A in family):
        rule = helpers.perturb_rule(rule, rng)
    return rule


rule_cases = given(
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(sorted(FAMILIES)),
    selective=st.booleans(),
    perturb=st.booleans(),
    as_float=st.booleans(),
)


class TestMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @rule_cases
    def test_every_checker_encodes_like_the_oracle(
        self, seed, kind, selective, perturb, as_float
    ):
        rng = random.Random(seed)
        rule = make_rule(rng, FAMILIES[kind](rng), selective, perturb)
        if as_float:
            rule = rule.as_float()
        for axiom, (checker, reference) in RULE_CHECKERS.items():
            assert outcome(checker, rule) == outcome(reference, rule), axiom
        corr = support_correspondence(rule)
        assert outcome(check_warp, corr) == outcome(oracle.check_warp, corr)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        selective=st.booleans(),
        perturb=st.booleans(),
        as_float=st.booleans(),
    )
    def test_check_all_shares_one_view_and_matches(self, seed, selective, perturb, as_float):
        rng = random.Random(seed)
        family = rng.choice((complete_family, partial_family))(rng)
        rule = make_rule(rng, family, selective, perturb)
        if as_float:
            rule = rule.as_float()
        ours, reference = check_all(rule), oracle.check_all(rule)
        assert list(ours) == list(reference)
        assert encoded(list(ours.values())) == encoded(list(reference.values()))

    def test_acceptance_corpus(self, corpus):
        for rule in corpus.rules:
            ours, reference = check_all(rule), oracle.check_all(rule)
            assert encoded(list(ours.values())) == encoded(list(reference.values()))

    def test_many_failing_pairs_past_the_witness_cap(self):
        rng = random.Random(11)
        rule = helpers.random_synthesized_rule(6, rng)
        for _ in range(6):
            rule = helpers.perturb_rule(rule, rng)
        ours, reference = check_all(rule), oracle.check_all(rule)
        assert not ours[Axiom.SET_INTERSECTION_RULE].holds
        assert encoded(list(ours.values())) == encoded(list(reference.values()))


PAIR_CHECKERS = [
    Axiom.CHOICE_AXIOM,
    Axiom.ODDS_INDEPENDENCE,
    Axiom.PRODUCT_RULE,
    Axiom.SET_CHOICE_AXIOM,
    Axiom.SET_INTERSECTION_RULE,
    Axiom.RENYI_CONDITIONING,
]


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def flip_point(fails, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent positive floats lo < hi with ``fails(lo)`` false and ``fails(hi)`` true."""
    blo, bhi = _bits(lo), _bits(hi)
    while bhi - blo > 1:
        mid = (blo + bhi) // 2
        if fails(_float(mid)):
            bhi = mid
        else:
            blo = mid
    return _float(blo), _float(bhi)


def nested_float_rule(rng: random.Random, eps: float):
    """A float Luce rule on a few nested menus of 9-10 alternatives.

    The outer menu A is the whole universe and B ⊂ A has 8 or 9 members, so
    the mass p(B, A) sums at least 8 terms (where a pairwise sum would round
    differently from a left-to-right one). Returns the rule, A, B and the
    family's one pair.
    """
    universe = helpers.universe_of(rng.randint(9, 10))
    A = ChoiceSet(universe.alternatives)
    B = ChoiceSet(rng.sample(universe.alternatives, rng.randint(8, len(universe) - 1)))
    C = ChoiceSet(rng.sample(B.members, rng.randint(2, 4)))
    pair = ChoiceSet(rng.sample(universe.alternatives, 2))
    family = ChoiceFamily(universe, {A, B, C, pair})
    rule = luce_rule(helpers.random_rational_weights(universe, rng), family)
    return rule.as_float(eps), A, B, pair


def with_cell(rule, A, x, y, v):
    """``rule`` with p(x, A) set to v and p(y, A) taking up the difference."""
    table = {S: dict(rule.row(S)) for S in rule.family}
    table[A][y] = table[A][x] + table[A][y] - v
    table[A][x] = v
    return RandomChoiceRule(rule.family, table, mode="float", eps=rule.eps)


def random_float_rule(rng: random.Random, family: ChoiceFamily, eps: float):
    """Independent random rows (some cells zero): most identities fail."""
    table = {}
    for A in family:
        weights = {a: rng.random() if rng.random() < 0.85 else 0.0 for a in A}
        weights[rng.choice(A.members)] = rng.random() + 0.1
        total = sum(weights.values())
        table[A] = {a: w / total for a, w in weights.items()}
    return RandomChoiceRule(family, table, mode="float", eps=eps)


class TestFloatPass:
    """The float array pass against the scalar full scan of ``oracle_axioms``."""

    @pytest.mark.parametrize("axiom", PAIR_CHECKERS)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        eps=st.sampled_from([1e-9, 1e-7, 1e-3]),
    )
    def test_one_ulp_around_the_tolerance_boundary(self, axiom, seed, eps):
        rng = random.Random(seed)
        rule, A, B, pair = nested_float_rule(rng, eps)
        # Odds independence compares A with the pair only.
        x = rng.choice((pair if axiom == Axiom.ODDS_INDEPENDENCE else B).members)
        y = max((a for a in A if a != x), key=lambda a: rule.p(a, A))
        checker, reference = RULE_CHECKERS[axiom]
        v0 = rule.p(x, A)
        hi = v0 + 0.9 * rule.p(y, A)
        fails = lambda v: not reference(with_cell(rule, A, x, y, v)).holds
        assert not fails(v0)
        assume(fails(hi))
        lo, hi = flip_point(fails, v0, hi)
        for v in (_float(_bits(lo) - 1), lo, hi, _float(_bits(hi) + 1)):
            moved = with_cell(rule, A, x, y, v)
            assert outcome(checker, moved) == outcome(reference, moved), v

    def test_odds_operand_order_at_the_tolerance_boundary(self):
        # p(a, P)·p(b, A) and p(b, P)·p(a, A) sit where the rounded tolerance
        # 1 + |l| + |r| depends on which side comes first: the scalar order
        # fails, the swapped one passes, so an array pass in the swapped
        # order would miss the pair. Found by bisecting p(b, A).
        x, y, z, eps = 0.6222341678027192, 0.4246719226429838, 0.25994830547319725, 1e-3
        lhs, rhs = x * z, (1 - x) * y
        assert not within_tolerance(lhs, rhs, eps) and within_tolerance(rhs, lhs, eps)
        P, A = ChoiceSet("ab"), ChoiceSet("abc")
        table = {P: {"a": x, "b": 1 - x}, A: {"a": y, "b": z, "c": 1 - y - z}}
        rule = RandomChoiceRule(ChoiceFamily(Universe("abc"), [P, A]), table, mode="float", eps=eps)
        report = outcome(check_odds_independence, rule)
        assert report == outcome(oracle.check_odds_independence, rule)
        assert not check_odds_independence(rule).holds

    def test_warp_reads_the_support_at_the_rule_eps(self):
        # p(c, abc) lies between the rule's eps and the override, so the
        # support at the override drops c from abc but not from bc.
        family = ChoiceFamily(Universe("abc"), [ChoiceSet("bc"), ChoiceSet("abc")])
        table = {
            ChoiceSet("bc"): {"b": 0.5, "c": 0.5},
            ChoiceSet("abc"): {"a": 0.5, "b": 0.4995, "c": 0.0005},
        }
        rule = RandomChoiceRule(family, table, mode="float", eps=1e-9)
        ours, reference = check_all(rule, eps=1e-3), oracle.check_all(rule, eps=1e-3)
        assert ours[Axiom.WARP].holds
        assert not oracle.check_warp(support_correspondence(rule.as_float(1e-3))).holds
        assert encoded(list(ours.values())) == encoded(list(reference.values()))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        eps=st.sampled_from([1e-9, 1e-7, 1e-3]),
    )
    def test_many_violations_past_the_witness_cap(self, seed, eps):
        rng = random.Random(seed)
        family = ChoiceFamily.of_all_subsets(helpers.universe_of(rng.randint(5, 6)))
        rule = random_float_rule(rng, family, eps)
        ours, reference = check_all(rule), oracle.check_all(rule)
        over_cap = [a for a, r in reference.items() if r.violation_count > WITNESS_CAP]
        assert len(over_cap) >= 3
        assert encoded(list(ours.values()), rule) == encoded(list(reference.values()), rule)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        kind=st.sampled_from(sorted(FAMILIES)),
        eps=st.sampled_from([1e-7, 1e-3]),
        noisy=st.booleans(),
    )
    def test_eps_override_on_every_family(self, seed, kind, eps, noisy):
        rng = random.Random(seed)
        family = FAMILIES[kind](rng)
        if noisy and not kind.startswith("wide"):
            # (On wide families the oracle's 2^|X| set-intersection scan of
            # every failing pair would take minutes.)
            rule = random_float_rule(rng, family, 1e-9)
        else:
            rule = make_rule(rng, family, rng.random() < 0.5, True).as_float()
        for axiom, (checker, reference) in RULE_CHECKERS.items():
            assert outcome(checker, rule, eps) == outcome(reference, rule, eps), axiom
        if not kind.startswith("wide"):  # check_all needs |X| <= MAX_ENUM_UNIVERSE
            ours, reference = check_all(rule, eps=eps), oracle.check_all(rule, eps=eps)
            assert encoded(list(ours.values())) == encoded(list(reference.values()))


class TestOneIndexPerRule:
    @pytest.mark.parametrize("as_float", [False, True])
    def test_check_all_builds_one_nested_pair_index(self, monkeypatch, as_float):
        rng = random.Random(5)
        rule = helpers.perturb_rule(helpers.random_synthesized_rule(5, rng), rng)
        if as_float:
            rule = rule.as_float()
        reference = oracle.check_all(rule)
        built = []

        class Counted(axioms._NestedPairs):
            def __init__(self, family):
                built.append(family)
                super().__init__(family)

        def refuse(*args):
            raise AssertionError("check_all must read WARP off its own view")

        monkeypatch.setattr(axioms, "_NestedPairs", Counted)
        monkeypatch.setattr(axioms, "support_correspondence", refuse)
        monkeypatch.setattr(axioms, "check_warp", refuse)
        ours = check_all(rule)
        assert built == [rule.family]
        assert encoded(list(ours.values())) == encoded(list(reference.values()))

    @pytest.mark.parametrize("eps", [None, 1e-3])
    @pytest.mark.parametrize("perturb", [False, True])
    @pytest.mark.parametrize("kind", ["complete", "partial", "pairs"])
    def test_float_check_all_walks_each_set_once(self, monkeypatch, kind, perturb, eps):
        rng = random.Random(11)
        family = {
            "complete": lambda: ChoiceFamily.of_all_subsets(helpers.universe_of(5)),
            "partial": lambda: partial_family(rng),
            "pairs": lambda: ChoiceFamily.of_pairs(helpers.universe_of(6)),
        }[kind]()
        rule = make_rule(rng, family, True, perturb).as_float()
        reference = oracle.check_all(rule, eps=eps)
        calls = count_walks(monkeypatch)
        passes = []
        real = axioms._RuleView._float_split
        monkeypatch.setattr(axioms._RuleView, "_float_split", lambda view: passes.append(1) or real(view))
        ours = check_all(rule, eps=eps)
        # Shares, WARP and the kernels come from one array pass, with no Python walk.
        assert passes == [1] and calls == []
        assert encoded(list(ours.values())) == encoded(list(reference.values()))
        if perturb and kind == "complete":
            assert not ours[Axiom.CHOICE_AXIOM].holds

    def test_float_warp_alone_walks_each_set_once(self, monkeypatch, tmp_path, capsys):
        # On a complete family only the pairs with a set whose support is not
        # Γ(A) are walked, once and in scan order; on a partial family every
        # set is walked, once.
        rng = random.Random(12)
        complete = ChoiceFamily.of_all_subsets(helpers.universe_of(5))
        for family in (complete, partial_family(rng)):
            rule = make_rule(rng, family, True, True).as_float()
            path = tmp_path / "rule.json"
            write_document(str(path), rule)
            reference = oracle.check_all(rule)[Axiom.WARP]
            with monkeypatch.context() as m:
                calls = count_walks(m)
                visited = visit_pairs(m)
                assert main(["check", str(path), "--axioms", "warp"]) == (0 if reference.holds else 1)
            assert capsys.readouterr().out == encoded([reference], rule)
            pairs = [(iB, iA) for iA, A in enumerate(family.sets)
                     for iB, B in enumerate(family.sets[:iA]) if set(B) < set(A)]
            if family is complete:
                misfits = {family.sets.index(A) for A in warp_misfits(support_correspondence(rule))}
                assert 0 < len(misfits) < len(family)
                assert visited == [(iB, iA) for iB, iA in pairs if iB in misfits or iA in misfits]
            else:
                assert calls == list(range(len(family)))
                assert visited == pairs


class TestWarpMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        kind=st.sampled_from(sorted(FAMILIES)),
    )
    def test_random_correspondences(self, seed, kind):
        rng = random.Random(seed)
        family = FAMILIES[kind](rng)
        table = {}
        for A in family:
            chosen = [a for a in A if rng.random() < 0.6]
            table[A] = ChoiceSet(chosen or [rng.choice(A.members)])
        corr = ChoiceCorrespondence(family, table)
        assert outcome(check_warp, corr) == outcome(oracle.check_warp, corr)


class TestCliOrder:
    def test_axioms_flag_keeps_its_order_and_bytes(self, tmp_path, capsys):
        rng = random.Random(3)
        rule = helpers.perturb_rule(helpers.random_synthesized_rule(4, rng), rng)
        path = tmp_path / "rule.json"
        write_document(str(path), rule)
        names = ["warp", "set-intersection-rule", "choice-axiom", "positivity"]
        assert main(["check", str(path), "--axioms", ",".join(names)]) == 1
        out = capsys.readouterr().out
        reference = oracle.check_all(rule)
        expected = encoded([reference[Axiom(name)] for name in names], rule)
        assert out == expected

    @pytest.mark.parametrize("selective", [False, True])
    def test_default_order_ends_with_warp(self, tmp_path, capsys, selective):
        rng = random.Random(4)
        rule = make_rule(rng, ChoiceFamily.of_all_subsets(helpers.universe_of(4)), selective, False)
        path = tmp_path / "rule.json"
        write_document(str(path), rule)
        main(["check", str(path)])
        out = capsys.readouterr().out
        reference = oracle.check_all(rule)
        order = [a for a in Axiom if a != Axiom.WARP] + [Axiom.WARP]
        assert out == encoded([reference[a] for a in order], rule)


def holding_rule(n: int, seed: int, selective: bool):
    """An exact general Luce rule on all subsets of n alternatives."""
    rng = random.Random(seed)
    return make_rule(rng, ChoiceFamily.of_all_subsets(helpers.universe_of(n)), selective, False)


def count_walks(monkeypatch) -> list:
    """Record every call of the nested-pair walk ``_NestedPairs.subsets_of``."""
    calls = []
    real = axioms._NestedPairs.subsets_of

    def counting(self, iA, *among):
        calls.append(iA)
        return real(self, iA, *among)

    monkeypatch.setattr(axioms._NestedPairs, "subsets_of", counting)
    return calls


def certificate(view):
    """Γ per set when the rule is exact, the family complete and the Luce fit has no misfit."""
    if not (view.exact and view.pairs.family.all_subsets):
        return None
    _, gammas, _, misfits = view.luce_fit()
    return None if misfits else gammas


def every_set_a_misfit(monkeypatch) -> None:
    """Make every split take each set as a misfit, so that it walks every pair."""
    real = axioms._split_pairs
    monkeypatch.setattr(axioms, "_split_pairs", lambda index, support, rows=None, misfits=None: (
        real(index, support, rows, range(len(index.masks)))))


def without_certificate(monkeypatch, rule) -> str:
    """The report with every set passed as a misfit, so that the full walk runs."""
    with monkeypatch.context() as m:
        every_set_a_misfit(m)
        return encoded(list(check_all(rule).values()))


def full_walk(view):
    """The exact split with every pair walked, and its counts taken off the walk."""
    return axioms._walk_pairs(view.pairs, view.support_masks(0), (view.dens, view.nums))


def local_split(view):
    """The exact split around the view's Luce-fit misfits."""
    misfits = [i for i, _ in view.luce_fit()[3]]
    return axioms._split_pairs(view.pairs, view.support_masks(0), (view.dens, view.nums), misfits)


def visit_pairs(monkeypatch) -> list:
    """Record every nested pair (B, A) that ``_NestedPairs.subsets_of`` hands the walk."""
    visited = []
    real = axioms._NestedPairs.subsets_of

    def subsets_of(self, iA, *among):
        hits = real(self, iA, *among)
        visited.extend((iB, iA) for iB in hits)
        return hits

    monkeypatch.setattr(axioms._NestedPairs, "subsets_of", subsets_of)
    return visited


def warp_misfits(corr) -> list:
    """The sets whose Γ(A) is not the members of A that the fewest pairs leave out."""
    family = corr.family
    left_out = {a: 0 for a in family.universe}
    for P in family:
        if len(P) == 2:
            for a in P:
                left_out[a] += a not in corr.gamma(P)
    best = lambda A: ChoiceSet(a for a in A if left_out[a] == min(left_out[b] for b in A))
    return [A for A in family if corr.gamma(A) != best(A)]


def near_miss(rule, kind: str, rng: random.Random):
    """``rule`` with one row changed just off the general Luce form.

    ``shift`` moves 1/97 of one supported member's mass to another, ``cut``
    gives a supported member's whole mass to another, and ``swap`` moves a
    maximizer's mass onto a non-maximizer, whose zero it takes.
    """
    table = {A: dict(rule.row(A)) for A in rule.family}
    support = {A: [a for a in A if table[A][a] > 0] for A in rule.family}
    if kind == "swap":
        A = rng.choice([A for A in rule.family if len(support[A]) < len(A)])
        x = rng.choice(support[A])
        y = rng.choice([a for a in A if table[A][a] == 0])
        table[A][x], table[A][y] = table[A][y], table[A][x]
    else:
        A = rng.choice([A for A in rule.family if len(support[A]) >= 2])
        x, y = rng.sample(support[A], 2)
        delta = table[A][x] / 97 if kind == "shift" else table[A][x]
        table[A][x] -= delta
        table[A][y] += delta
    return RandomChoiceRule(rule.family, table, mode="exact")


class TestCertificate:
    """Holding exact rules on complete families are decided without the pair walk."""

    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_holding_rules_skip_the_walk(self, monkeypatch, n, selective):
        rule = holding_rule(n, 100 + n, selective)
        calls = count_walks(monkeypatch)
        ours = check_all(rule)
        assert calls == []
        assert all(r.holds for a, r in ours.items() if a not in (Axiom.POSITIVITY, Axiom.FULL_SUPPORT))
        assert encoded(list(ours.values())) == without_certificate(monkeypatch, rule)
        assert len(calls) == len(rule.family)  # the fallback walks every set

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=6),
        selective=st.booleans(),
    )
    def test_hypothesis_rules_match_the_walk_and_the_oracle(self, seed, n, selective):
        rule = holding_rule(n, seed, selective)
        assert certificate(axioms._RuleView(rule)) is not None
        with pytest.MonkeyPatch.context() as m:
            calls = count_walks(m)
            ours = encoded(list(check_all(rule).values()))
            assert calls == []
            assert ours == without_certificate(m, rule)
        assert ours == encoded(list(oracle.check_all(rule).values()))

    @pytest.mark.parametrize("kind", ["shift", "cut", "swap"])
    @pytest.mark.parametrize("seed", range(4))
    def test_near_misses_fall_back_and_match_the_oracle(self, kind, seed):
        rng = random.Random(seed)
        universe = helpers.universe_of(5)
        order = WeakOrder.from_classes(universe, [["b", "d"], ["a", "c", "e"]])
        gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(universe))
        rule = near_miss(general_luce_rule(gamma, helpers.random_rational_weights(universe, rng)), kind, rng)
        assert certificate(axioms._RuleView(rule)) is None
        ours, reference = check_all(rule), oracle.check_all(rule)
        assert not ours[Axiom.CHOICE_AXIOM].holds
        assert encoded(list(ours.values())) == encoded(list(reference.values()))

    def test_partial_families_and_float_rules_have_none(self):
        rng = random.Random(7)
        partial = make_rule(rng, partial_family(rng), True, False)
        complete = holding_rule(4, 7, True)
        assert certificate(axioms._RuleView(partial)) is None
        assert certificate(axioms._RuleView(complete.as_float())) is None
        assert certificate(axioms._RuleView(complete)) is not None

    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_form_counts_equal_the_walk(self, n, selective):
        view = axioms._RuleView(holding_rule(n, 200 + n, selective))
        gammas = certificate(view)
        assert gammas == view.support_masks(0)
        assert local_split(view) == full_walk(view)

    @pytest.mark.parametrize("n", range(11))
    def test_every_mask_is_the_canonical_order(self, n):
        assert list(axioms._NestedPairs.every_mask(n)) == axioms._NestedPairs.canonical(range(1, 1 << n))


def edit_rows(rule, rng: random.Random, kind: str, count: int):
    """``rule`` with ``count`` rows moved off the general Luce form.

    ``shift``, ``cut`` and ``swap`` are :func:`near_miss` edits of random rows;
    ``pairs`` shifts the mass of pair rows (those that v is read from
    included); ``nested`` edits a set and then one of its subsets.
    """
    for _ in range(count):
        table = {A: dict(rule.row(A)) for A in rule.family}
        full_pairs = [A for A in rule.family if len(A) == 2 and all(table[A].values())]
        if kind == "pairs" and full_pairs:
            A = rng.choice(full_pairs)
            x, y = A.members
            table[A][x], table[A][y] = table[A][x] / 2, table[A][y] + table[A][x] / 2
            rule = RandomChoiceRule(rule.family, table, mode="exact")
        elif kind == "nested" and full_pairs:
            rule = near_miss(rule, "shift", rng)
            (S,) = [A for A in rule.family if rule.row(A) != table[A]]
            inner = [B for B in rule.family if 2 <= len(B) < len(S) and set(B) < set(S)]
            if inner:  # move mass inside a subset of the edited set too
                B = rng.choice(inner)
                x, y = rng.sample(B.members, 2)
                table = {A: dict(rule.row(A)) for A in rule.family}
                table[B][x], table[B][y] = table[B][x] / 3, table[B][y] + 2 * table[B][x] / 3
                rule = RandomChoiceRule(rule.family, table, mode="exact")
        elif any(sum(map(bool, rule.row(A).values())) >= 2 for A in rule.family):
            rule = near_miss(rule, kind, rng)
    return rule


class TestLocalSplit:
    """Exact rules off the Luce form walk only the pairs that touch their misfits."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=3, max_value=6),
        selective=st.booleans(),
        kind=st.sampled_from(["shift", "cut", "swap", "pairs", "nested"]),
        count=st.integers(min_value=1, max_value=3),
    )
    def test_local_split_equals_the_walk(self, seed, n, selective, kind, count):
        rng = random.Random(seed)
        rule = holding_rule(n, seed, selective)
        assume(any(sum(map(bool, rule.row(A).values())) >= 2 for A in rule.family))
        if kind == "swap" and all(all(rule.row(A).values()) for A in rule.family):
            kind = "shift"  # a full-support rule has no zero to swap with
        rule = edit_rows(rule, rng, kind, count)
        view = axioms._RuleView(rule)
        local, full = local_split(view), full_walk(view)
        walks = []
        real = axioms._walk_pairs
        with pytest.MonkeyPatch.context() as m:
            m.setattr(axioms, "_walk_pairs", lambda index, support, rows=None, misfits=None: (
                walks.append(misfits) or real(index, support, rows, misfits)))
            split = axioms._RuleView(rule)._split()
        # The failing pairs, the shares, the WARP count and its failing pairs.
        assert local == full and split == full
        # The view walks once, around its misfits, whatever v is.
        assert len(walks) == 1 and walks[0] is not None

    @pytest.mark.parametrize("kind", ["shift", "nested", "pairs"])
    def test_every_set_a_misfit_is_the_full_walk(self, monkeypatch, kind):
        rng = random.Random(21)
        rule = edit_rows(holding_rule(6, 21, True), rng, kind, 2)
        reference = encoded(list(oracle.check_all(rule).values()))
        calls = count_walks(monkeypatch)
        view = axioms._RuleView(rule)
        every = range(len(view.masks))
        split = axioms._split_pairs(view.pairs, view.support_masks(0), (view.dens, view.nums), every)
        assert calls == list(every)  # each set walked once, in family order
        assert split == full_walk(view)
        calls.clear()
        assert without_certificate(monkeypatch, rule) == reference
        assert calls == list(every)

    @pytest.mark.parametrize("seed", range(3))
    def test_reports_match_the_oracle(self, seed):
        rng = random.Random(seed)
        rule = edit_rows(holding_rule(6, seed, seed % 2 == 0), rng, "nested", 2)
        ours, reference = check_all(rule), oracle.check_all(rule)
        assert encoded(list(ours.values())) == encoded(list(reference.values()))

    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_one_edited_row_visits_only_its_pairs(self, monkeypatch, size):
        # At n = 9 the full walk visits 3^9 − 2^10 + 1 = 18,660 pairs.
        n = 9
        rng = random.Random(size)
        base = holding_rule(n, size, False)
        # Not a pair that v is read from: those hold the universe's first label.
        S = ChoiceSet(rng.sample(base.universe.alternatives[1:], size))
        table = {A: dict(base.row(A)) for A in base.family}
        x, y = S.members[:2]
        table[S][x], table[S][y] = table[S][x] / 2, table[S][y] + table[S][x] / 2
        rule = RandomChoiceRule(base.family, table, mode="exact")
        visited = visit_pairs(monkeypatch)
        ours = check_all(rule)
        assert 0 < len(visited) <= (1 << size) + (1 << (n - size))
        assert len(set(visited)) == len(visited)  # each pair once
        assert not ours[Axiom.CHOICE_AXIOM].holds
        assert encoded(list(ours.values())) == without_certificate(monkeypatch, rule)

    def test_a_cycle_in_one_class_walks_only_its_pairs(self, monkeypatch):
        # Three pair rows of the worst class turn into a cycle (winner 1,
        # loser 0). v can no longer be read off those pairs, yet only the pairs
        # holding one of the four misfits are walked, not the 18,660 of n = 9.
        n = 9
        universe = Universe([f"a{i:02d}" for i in range(n)])
        family = ChoiceFamily.of_all_subsets(universe)
        labels = universe.alternatives
        order = WeakOrder.from_classes(universe, [labels[3:], labels[:3]])
        weights = LuceWeights.from_v(universe, {a: Fraction(i + 2) for i, a in enumerate(labels)})
        table = {A: dict(row) for A, row in general_luce_rule(
            correspondence_from_order(order, family), weights).table.items()}
        for winner, loser in ((0, 1), (1, 2), (2, 0)):
            table[ChoiceSet((labels[winner], labels[loser]))] = {labels[winner]: 1, labels[loser]: 0}
        rule = RandomChoiceRule(family, table, mode="exact")
        misfits = [ChoiceSet(labels[:2]), ChoiceSet(labels[0:3:2]), ChoiceSet(labels[1:3]),
                   ChoiceSet(labels[:3])]
        visited = visit_pairs(monkeypatch)
        ours = check_all(rule)
        assert 0 < len(visited) <= sum((1 << len(S)) + (1 << (n - len(S))) for S in misfits)
        assert encoded(list(ours.values())) == encoded(list(oracle.check_all(rule).values()))
        assert [family.sets[i] for i, _ in axioms._RuleView(rule).luce_fit()[3]] == misfits

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=10**6),
           data=st.data())
    def test_any_superset_of_the_misfits_splits_like_the_walk(self, n, seed, data):
        # Random nonempty supports on some rows of a general Luce rule, and the
        # Luce-fit misfits plus from none to every other set: few misfits scan
        # their list, many walk each set's submasks.
        rng = random.Random(seed)
        rule = holding_rule(n, seed, rng.random() < 0.5)
        table = {A: dict(rule.row(A)) for A in rule.family}
        for A in rng.sample(rule.family.sets, rng.randint(0, len(rule.family))):
            support = rng.sample(A.members, rng.randint(1, len(A)))
            masses = {a: Fraction(rng.randint(1, 9)) if a in support else Fraction(0) for a in A}
            table[A] = {a: m / sum(masses.values()) for a, m in masses.items()}
        view = axioms._RuleView(RandomChoiceRule(rule.family, table, mode="exact"))
        every = set(range(len(view.masks)))
        extra = data.draw(st.sets(st.sampled_from(sorted(every))) | st.just(every))
        misfits = sorted({i for i, _ in view.luce_fit()[3]} | extra)
        rows = view.dens, view.nums
        split = axioms._split_pairs(view.pairs, view.support_masks(0), rows, misfits)
        walked = full_walk(view)
        assert (split.failing, split.warp_failing, split.shares, split.warp_checked) == (
            walked.failing, walked.warp_failing, walked.shares, walked.warp_checked)


def family_of(kind: str, rng: random.Random) -> ChoiceFamily:
    """A family with nested pairs: complete, partial, or every pair plus the universe."""
    if kind == "complete":
        return ChoiceFamily.of_all_subsets(helpers.universe_of(5))
    if kind == "partial":
        family = partial_family(rng)
        universe = family.universe
        return ChoiceFamily(universe, set(family.sets) | {ChoiceSet(universe.alternatives)})
    universe = helpers.universe_of(6)
    return ChoiceFamily(universe, set(ChoiceFamily.of_pairs(universe).sets) | {ChoiceSet(universe.alternatives)})


class TestFloatArrays:
    """The numpy pair pass against the scalar full scan of ``oracle_axioms``."""

    @pytest.mark.parametrize("axiom", [Axiom.CHOICE_AXIOM, Axiom.SET_CHOICE_AXIOM])
    @pytest.mark.parametrize("kind", ["complete", "partial", "pairs"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), eps=st.sampled_from([1e-9, 1e-3]))
    def test_one_ulp_around_the_tolerance_on_every_family(self, axiom, kind, seed, eps):
        rng = random.Random(seed)
        family = family_of(kind, rng)
        rule = luce_rule(helpers.random_rational_weights(family.universe, rng), family).as_float(eps)
        A = max(family, key=len)
        inner = [B for B in family if len(B) >= 2 and set(B) < set(A)]
        assume(inner)
        x = rng.choice(rng.choice(inner).members)
        y = max((a for a in A if a != x), key=lambda a: rule.p(a, A))
        reference = RULE_CHECKERS[axiom][1]
        v0 = rule.p(x, A)
        fails = lambda v: not reference(with_cell(rule, A, x, y, v)).holds
        assume(fails(v0 + 0.9 * rule.p(y, A)))
        lo, hi = flip_point(fails, v0, v0 + 0.9 * rule.p(y, A))
        for v in (_float(_bits(lo) - 1), lo, hi, _float(_bits(hi) + 1)):
            for moved in (with_cell(rule, A, x, y, v), with_cell(rule, A, x, y, v).as_float(1e-3)):
                ours, theirs = check_all(moved), oracle.check_all(moved)
                assert encoded(list(ours.values()), moved) == encoded(list(theirs.values()), moved)

    @pytest.mark.parametrize("as_float", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_single_checkers_past_int64_masks(self, seed, as_float):
        # On 100 alternatives a set's bitmask does not fit in int64; check_all
        # refuses the universe, but the single checkers run.
        rng = random.Random(seed)
        universe = Universe([f"x{i:02d}" for i in range(100)])
        sets = {ChoiceSet(rng.sample(universe.alternatives, 2)) for _ in range(30)}
        for _ in range(3):
            big = rng.sample(universe.alternatives, rng.randint(8, 11))
            sets.add(ChoiceSet(big))
            for _ in range(3):
                sets.add(ChoiceSet(rng.sample(big, rng.randint(2, 6))))
        rule = make_rule(rng, ChoiceFamily(universe, sets), False, True)
        if as_float:
            rule = rule.as_float()
        for axiom, (checker, reference) in RULE_CHECKERS.items():
            assert outcome(checker, rule) == outcome(reference, rule), axiom
        corr = support_correspondence(rule)
        assert outcome(check_warp, corr) == outcome(oracle.check_warp, corr)

    @pytest.mark.parametrize("seed", range(3))
    def test_sets_past_the_limit_build_no_subset_masses(self, monkeypatch, seed):
        # Set choice and set intersection refuse sets of more than
        # MAX_ENUM_UNIVERSE members, so no checker may build the 2^|B| subset
        # masses of such a set, here B of 21 members off the Luce form in A.
        rng = random.Random(seed)
        universe = helpers.universe_of(24)
        big = rng.sample(universe.alternatives, 23)
        sets = {ChoiceSet(universe.alternatives), ChoiceSet(big), ChoiceSet(big[:21])}
        sets |= {ChoiceSet(rng.sample(big, rng.randint(2, 5))) for _ in range(10)}
        rule = make_rule(rng, ChoiceFamily(universe, sets), False, False).as_float()
        A, (x, y) = ChoiceSet(big), big[:2]
        rule = with_cell(rule, A, x, y, rule.p(x, A) / 2)

        def refuse(X):
            raise AssertionError(f"subset masses of {X.shape[1]} members")

        monkeypatch.setattr(axioms, "_subset_sums", refuse)
        for axiom, (checker, reference) in RULE_CHECKERS.items():
            assert outcome(checker, rule) == outcome(reference, rule), axiom
        assert not check_choice_axiom(rule).holds
        with pytest.raises(FamilySizeError):
            check_all(rule)

    def test_single_checkers_run_only_their_kernel(self, monkeypatch):
        rng = random.Random(5)
        family = ChoiceFamily.of_all_subsets(helpers.universe_of(6))
        rule = make_rule(rng, family, False, True).as_float()
        ran = []
        for axiom, kernel in list(axioms._FLOAT_KERNELS.items()):
            spy = lambda *args, axiom=axiom, kernel=kernel: ran.append(axiom) or kernel(*args)
            monkeypatch.setitem(axioms._FLOAT_KERNELS, axiom, spy)
        for axiom, (checker, reference) in RULE_CHECKERS.items():
            ran.clear()
            assert outcome(checker, rule) == outcome(reference, rule), axiom
            # Set intersection reads set choice's failures.
            own = Axiom.SET_CHOICE_AXIOM if axiom == Axiom.SET_INTERSECTION_RULE else axiom
            assert set(ran) == ({own} if own in axioms._FLOAT_KERNELS else set()), axiom

    def test_chunks_bound_peak_memory(self):
        import tracemalloc

        peaks = {}
        for n in (10, 13):
            rule = holding_rule(n, n, False).as_float()
            view = axioms._RuleView(rule)
            view.support_masks(rule.eps)
            tracemalloc.start()
            try:
                view._split()
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 27 times the pairs (3^n), 8 times the sets: the peak follows the
        # chunk and the sets, not the pairs.
        assert peaks[13] < 4 * peaks[10]

    @pytest.mark.parametrize("b", [1, 2, 5, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_set_choice_shortcut_matches_every_comparison(self, b, seed):
        # Pairs whose errors sum well below eps skip their 2^b comparisons.
        # Small masses put the tolerance near eps itself, and the error on one
        # member runs to 3·eps, so pairs on both sides of eps/2 come up.
        import numpy as np

        rng = np.random.default_rng(seed)
        eps = 1e-3
        XA = rng.random((4000, b)) * rng.choice([1e-4, 1.0 / b], size=(4000, 1))
        XB = rng.random((4000, b)) * rng.choice([1e-4, 1.0 / b], size=(4000, 1))
        XA[:, 0] += rng.random(4000) * 3 * eps
        TA, TB = axioms._subset_sums(XA), axioms._subset_sums(XB)
        every = (~within_tolerance(TA[1:], TB[1:] * TA[-1], eps)).sum(axis=0)
        assert every.any() and not every.all()
        assert axioms._float_set_choice(XA, XB, eps)[:, 0].tolist() == every.tolist()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), kind=st.sampled_from(["complete", "partial", "pairs"]))
    def test_warp_and_shares_recut_at_an_eps_override(self, seed, kind):
        # Cells between the rule's eps and the override leave the support at
        # the override (the shares) but stay in it at the rule's eps (WARP).
        rng = random.Random(seed)
        family = family_of(kind, rng)
        table = {}
        for A in family:
            weights = {a: rng.choice([rng.random(), 5e-4, 0.0]) for a in A}
            weights[rng.choice(A.members)] = 1.0
            total = sum(weights.values())
            table[A] = {a: w / total for a, w in weights.items()}
        rule = RandomChoiceRule(family, table, mode="float", eps=1e-9)
        for eps in (None, 1e-3):
            ours, reference = check_all(rule, eps=eps), oracle.check_all(rule, eps=eps)
            assert encoded(list(ours.values())) == encoded(list(reference.values()))


def spy_on_lookups(monkeypatch) -> list:
    """Record every call of the rule's probability lookups ``p``, ``p_set`` and ``row``."""
    calls = []
    for name in ("p", "p_set", "row"):
        real = getattr(RandomChoiceRule, name)
        monkeypatch.setattr(
            RandomChoiceRule, name,
            lambda self, *args, name=name, real=real: calls.append(name) or real(self, *args),
        )
    return calls


def count_pair_walks(monkeypatch) -> list:
    """Record every call of ``_walk_pairs``, the one Python scan of nested pairs."""
    calls = []
    real = axioms._walk_pairs

    def walk_pairs(index, support, rows=None, misfits=None):
        calls.append(rows is not None)
        return real(index, support, rows, misfits)

    monkeypatch.setattr(axioms, "_walk_pairs", walk_pairs)
    return calls


def negative_zero_rule():
    """A float rule on all subsets of {a, b, c}: uniform rows, but for p(·, abc) =
    (−0.0, 1.0, 0.0) and p(·, ac) = (−0.0, 1.0)."""
    family = ChoiceFamily.of_all_subsets(Universe("abc"))
    table = {A: {a: 1.0 / len(A) for a in A} for A in family}
    table[ChoiceSet("abc")] = {"a": -0.0, "b": 1.0, "c": 0.0}
    table[ChoiceSet("ac")] = {"a": -0.0, "c": 1.0}
    return RandomChoiceRule(family, table, mode="float")


class TestWitnessesFromRows:
    """Witness values come from the view's rows, as the rule's lookups give them."""

    def test_negative_zero_cells_keep_the_lookups_signs(self):
        rule = negative_zero_rule()
        ours, reference = check_all(rule), oracle.check_all(rule)
        assert encoded(list(ours.values()), rule) == encoded(list(reference.values()), rule)
        a, ab, abc = ChoiceSet("a"), ChoiceSet("ab"), ChoiceSet("abc")

        def lhs(axiom, sets, elements=()):
            (value,) = [w.lhs for w in ours[axiom].witnesses if w.sets == sets and w.elements == elements]
            return json.dumps(value)

        # A one-member set's mass is summed from zero, so -0.0 reads +0.0 ...
        assert lhs(Axiom.SET_CHOICE_AXIOM, (a, ab, abc)) == "0.0"
        assert lhs(Axiom.SET_INTERSECTION_RULE, (a, ab, abc)) == "0.0"
        # ... while a cell is read as stored.
        assert lhs(Axiom.POSITIVITY, (ChoiceSet("ac"),), ("a",)) == "-0.0"
        assert lhs(Axiom.FULL_SUPPORT, (abc,), ("a",)) == "-0.0"
        assert lhs(Axiom.CHOICE_AXIOM, (ab, abc), ("a",)) == "-0.0"

    @pytest.mark.parametrize("as_float", [False, True])
    @pytest.mark.parametrize("kind, seed", [("complete", 1), ("complete", 2), ("partial", 5), ("partial", 6)])
    def test_checkers_call_no_rule_lookup(self, monkeypatch, kind, seed, as_float):
        rng = random.Random(seed)
        family = ChoiceFamily.of_all_subsets(helpers.universe_of(5)) if kind == "complete" else partial_family(rng)
        rule = make_rule(rng, family, True, False)
        for _ in range(4):  # enough edits that every checker fails
            rule = helpers.perturb_rule(rule, rng)
        if as_float:
            rule = rule.as_float()
        reference = oracle.check_all(rule)
        single = {**{axiom: checker for axiom, (checker, _) in RULE_CHECKERS.items()},
                  Axiom.WARP: axioms._check_support_warp}
        calls = spy_on_lookups(monkeypatch)
        ours = check_all(rule)
        alone = {axiom: single[axiom](rule) for axiom in ours}
        assert calls == []
        assert encoded(list(ours.values())) == encoded(list(reference.values()))
        assert encoded(list(alone.values())) == encoded(list(reference.values()))
        assert not any(r.holds for r in ours.values())

    def test_negative_zero_rule_calls_no_rule_lookup(self, monkeypatch):
        rule = negative_zero_rule()
        reference = encoded(list(oracle.check_all(rule).values()))
        calls = spy_on_lookups(monkeypatch)
        assert encoded(list(check_all(rule).values())) == reference
        assert calls == []


class TestOnePairScan:
    """``_walk_pairs`` is the one Python scan of nested pairs, run once per need."""

    @pytest.mark.parametrize("kind", ["shift", "cut", "swap"])
    def test_failing_exact_check_all_walks_once(self, monkeypatch, kind):
        rng = random.Random(3)
        rule = near_miss(holding_rule(6, 3, True), kind, rng)
        reference = encoded(list(oracle.check_all(rule).values()))
        calls = count_pair_walks(monkeypatch)
        ours = check_all(rule)
        assert not ours[Axiom.CHOICE_AXIOM].holds
        assert calls == [True]  # one walk, against the rule's rows
        assert encoded(list(ours.values())) == reference

    def test_warp_of_a_correspondence_and_float_warp_alone_walk_once(self, monkeypatch):
        rng = random.Random(8)
        rule = make_rule(rng, ChoiceFamily.of_all_subsets(helpers.universe_of(5)), True, True).as_float()
        corr = support_correspondence(rule)
        reference = oracle.check_all(rule)[Axiom.WARP], oracle.check_warp(corr)
        calls = count_pair_walks(monkeypatch)
        assert encoded([axioms._check_support_warp(rule), check_warp(corr)]) == encoded(list(reference))
        assert calls == [False, False]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=7), data=st.data())
    def test_closed_form_counts_on_any_support(self, n, data):
        # Random nonempty supports, not of the Luce form. The walk counts the
        # shares off ``support`` when given rows; the rows only add residuals.
        universe = helpers.universe_of(n)
        family = ChoiceFamily.of_all_subsets(universe)
        rule = luce_rule(helpers.random_rational_weights(universe, random.Random(n)), family)
        pairs = axioms._NestedPairs(family)
        support = []
        for mask in pairs.masks:
            sub = data.draw(st.integers(min_value=1, max_value=mask)) & mask
            support.append(sub or mask & -mask)
        walked = axioms._walk_pairs(pairs, support, rows=(rule._dens, rule._nums))
        assert axioms._complete_counts(pairs.masks, support) == (walked.shares, walked.warp_checked)

    def test_rational_correspondence_walks_no_set(self, monkeypatch):
        # A holding rule's support is a weak order's maximizers: no set is a
        # WARP misfit, so no pair is walked (2^9 − 1 = 511 sets at n = 9).
        rule = holding_rule(9, 9, True)
        corr = support_correspondence(rule)
        calls = count_walks(monkeypatch)
        report = check_warp(corr)
        assert calls == []
        assert report.holds and report.pairs_checked > 0
        monkeypatch.undo()
        assert outcome(check_warp, corr) == outcome(oracle.check_warp, corr)

    def test_fit_on_a_rational_complete_dataset_walks_no_set(self, monkeypatch):
        universe = helpers.universe_of(7)
        family = ChoiceFamily.of_all_subsets(universe)
        corr = correspondence_from_order(helpers.random_weak_order(universe, random.Random(7)), family)
        counts = {A: {a: (3 + i % 5 if a in corr.gamma(A) else 0) for i, a in enumerate(A)} for A in family}
        calls = count_walks(monkeypatch)
        result = fit(ChoiceDataset(universe, counts))
        assert calls == []
        assert result.warp_report.holds and result.gamma_hat == corr
        assert encoded([result.warp_report]) == encoded([oracle.check_warp(corr)])

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=10**6),
           kind=st.sampled_from(["support", "order", "edited"]))
    def test_default_misfits_split_equals_the_walk(self, n, seed, kind):
        # Random nonempty supports (a rule's support at its own eps and a
        # correspondence's Γ are never empty), weak orders' maximizers, and
        # those with a few sets moved.
        rng = random.Random(seed)
        universe = helpers.universe_of(n)
        pairs = axioms._NestedPairs(ChoiceFamily.of_all_subsets(universe))
        if kind == "support":
            support = [rng.randint(1, mask) & mask or mask & -mask for mask in pairs.masks]
        else:
            corr = correspondence_from_order(helpers.random_weak_order(universe, rng), pairs.family)
            support = [pairs.mask(corr.gamma(A).members) for A in pairs.sets]
            for _ in range(rng.randint(1, 3) if kind == "edited" else 0):
                i = rng.randrange(len(support))
                support[i] = rng.randint(1, pairs.masks[i]) & pairs.masks[i] or pairs.masks[i]
        split, walked = axioms._split_pairs(pairs, support), axioms._walk_pairs(pairs, support)
        assert (split.failing, split.support, split.warp_checked, split.warp_failing) == (
            walked.failing, walked.support, walked.warp_checked, walked.warp_failing)
