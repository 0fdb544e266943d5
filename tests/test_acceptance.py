"""Acceptance gate: ten end-to-end checks over the whole public surface.

Each test prints one live ``acceptance NN PASS/FAIL`` line (through the
``announce`` fixture) and enforces its runtime budget where one applies.
The corpus fixture from ``conftest`` is shared by the checks that sweep
the same thousand rules.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from lucekit import (
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    LuceWeights,
    Universe,
    WeakOrder,
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
    decompose,
    fit,
    general_luce_rule,
    general_luce_rule_from_utility,
    lambda_smoothed_rule,
    limit_check,
    maximizers,
    support_correspondence,
    write_document,
)
from lucekit.cli import main
from lucekit.rum import (
    GumbelLuceSampler,
    IndependentRumSampler,
    LexSampler,
    empirical_rule,
    lex_compose,
)

import helpers
from oracle_estimate import log_likelihood_and_gradient


def _finish(announce, num, label, failures, seconds, budget=None):
    ok = not failures and (budget is None or seconds < budget)
    status = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    announce(f"acceptance {num:02d} {status} {label} ({seconds:.1f}s{budget_note})")
    assert not failures, failures[:5]
    if budget is not None:
        assert seconds < budget, f"took {seconds:.1f}s, budget {budget:.0f}s"


def _mc_bound(p, n):
    """Four standard errors of a binomial share."""
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_01_five_checkers_agree_on_corpus(corpus, announce):
    t0 = time.perf_counter()
    checkers = (
        check_choice_axiom,
        check_odds_independence,
        check_product_rule,
        check_set_choice_axiom,
        check_set_intersection_rule,
    )
    failures = []
    holds = fails = 0
    for i, rule in enumerate(corpus.rules):
        verdicts = [chk(rule).holds for chk in checkers]
        if any(v != verdicts[0] for v in verdicts):
            failures.append((i, verdicts))
        elif verdicts[0]:
            holds += 1
        else:
            fails += 1
    assert len(corpus.rules) >= 1000
    assert holds >= 500  # every synthesized rule factorizes
    assert fails >= 1  # and the perturbations give the checkers real work
    seconds = corpus.build_seconds + (time.perf_counter() - t0)
    _finish(
        announce, 1,
        f"five equivalent checkers agree on {len(corpus.rules)} rules "
        f"({holds} hold / {fails} fail)",
        failures, seconds, budget=60.0,
    )


def test_02_synthesize_decompose_round_trip(announce):
    t0 = time.perf_counter()
    rng = random.Random(20260401)
    sizes = (3, 4, 5, 6)
    failures = []
    for i in range(500):
        universe = helpers.universe_of(sizes[i % len(sizes)])
        family = ChoiceFamily.of_all_subsets(universe)
        order = helpers.random_weak_order(universe, rng)
        gamma = correspondence_from_order(order, family)
        weights = helpers.random_rational_weights(universe, rng)
        rule = general_luce_rule(gamma, weights)
        if not check_choice_axiom(rule).holds:
            failures.append((i, "synthesized rule fails the factorization check"))
            continue
        dec = decompose(rule)
        if any(dec.gamma.gamma(A) != gamma.gamma(A) for A in family):
            failures.append((i, "support not recovered set-exactly"))
            continue
        for group in dec.classes:
            for x in group:
                for y in group:
                    if dec.v[x] * weights.v[y] != dec.v[y] * weights.v[x]:
                        failures.append((i, f"ratio {x}:{y} drifted"))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 2,
        "synthesize/decompose round trip recovers support and weight ratios "
        "on 500 instances",
        failures, seconds, budget=60.0,
    )


def test_03_positivity_iff_full_support(corpus, announce):
    t0 = time.perf_counter()
    failures = []

    # Rules built from an everything-ties order have full support and must
    # pass both point positivity and full set support.
    rng = random.Random(17)
    full_support_rules = 0
    for n in (3, 4, 5):
        universe = helpers.universe_of(n)
        family = ChoiceFamily.of_all_subsets(universe)
        gamma = correspondence_from_order(WeakOrder.trivial(universe), family)
        for _ in range(20):
            rule = general_luce_rule(gamma, helpers.random_rational_weights(universe, rng))
            full_support_rules += 1
            if not (check_positivity(rule).holds and check_full_support(rule).holds):
                failures.append((n, "full-support synthesis failed a support check"))

    # The same holds for any corpus rule whose support happens to be full.
    # And on every rule that factorizes, the two verdicts must coincide.
    ca_passers = 0
    for i, rule in enumerate(corpus.rules):
        support = support_correspondence(rule)
        if all(support.gamma(A) == A for A in rule.family):
            full_support_rules += 1
            if not (check_positivity(rule).holds and check_full_support(rule).holds):
                failures.append((i, "full-support corpus rule failed a support check"))
        if check_choice_axiom(rule).holds:
            ca_passers += 1
            if check_positivity(rule).holds != check_full_support(rule).holds:
                failures.append((i, "positivity and full support disagree"))
    assert full_support_rules >= 60 and ca_passers >= 500
    seconds = time.perf_counter() - t0
    _finish(
        announce, 3,
        f"positivity iff full support ({full_support_rules} full-support rules, "
        f"{ca_passers} factorizing rules)",
        failures, seconds,
    )


def test_04_choice_axiom_equals_warp_plus_conditioning(corpus, announce):
    t0 = time.perf_counter()
    failures = []
    for i, rule in enumerate(corpus.rules):
        ca = check_choice_axiom(rule).holds
        warp = check_warp(support_correspondence(rule)).holds
        cond = check_renyi_conditioning(rule).holds
        if ca != (warp and cond):
            failures.append((i, ca, warp, cond))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 4,
        f"choice axiom coincides with support-rationality plus conditioning "
        f"on {len(corpus.rules)} rules",
        failures, seconds,
    )


def test_05_lexicographic_top_choice_identity(announce):
    t0 = time.perf_counter()
    rng = random.Random(8675309)
    failures = []
    pairs = 0
    for i in range(100):
        n = 3 + i % 3
        universe = helpers.universe_of(n)
        first = helpers.random_weak_order(universe, rng)
        base = GumbelLuceSampler(
            helpers.random_rational_weights(universe, rng), seed=1000 + i
        )
        base_ranks = base.draw_ranks(1, stream=i)[0]
        second = WeakOrder(
            universe, {a: int(base_ranks[universe.index(a)]) for a in universe}
        )
        composed = lex_compose(first, second)
        pairs += 1
        for A in ChoiceFamily.of_all_subsets(universe):
            lex_top = maximizers(composed, A)
            if len(lex_top.members) != 1:
                failures.append((i, A, "composed order left a tie"))
                continue
            expected = min(
                maximizers(first, A).members, key=lambda a: second.rank(a)
            )
            if lex_top.members[0] != expected:
                failures.append((i, A, lex_top.members[0], expected))
    assert pairs == 100
    seconds = time.perf_counter() - t0
    _finish(
        announce, 5,
        "lexicographic composition picks the base draw's top maximizer "
        "on every subset, 100 order/draw pairs",
        failures, seconds,
    )


def test_06_gumbel_sampler_matches_logit_shares(announce):
    t0 = time.perf_counter()
    n_draws = 200_000
    universe = Universe("abc")
    family = ChoiceFamily.of_all_subsets(universe)
    weights = LuceWeights.from_v(
        universe, {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}
    )
    sampler = GumbelLuceSampler(weights, seed=42)
    emp = empirical_rule(sampler, family, n_draws)
    failures = []
    for A in family:
        for a in A:
            target = sum(
                weights.v[b] for b in A if b == a
            ) / sum(weights.v[b] for b in A)
            target = float(target)
            observed = emp.counts[A][a] / n_draws
            if abs(observed - target) > _mc_bound(target, n_draws):
                failures.append((str(A), a, observed, target))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 6,
        "gumbel perturbation reproduces the logit shares within 4 standard "
        "errors at 200k draws",
        failures, seconds, budget=30.0,
    )


def test_07_two_tier_sampler_hard_separation(announce):
    t0 = time.perf_counter()
    n_draws = 200_000
    universe = Universe("abc")
    family = ChoiceFamily.of_all_subsets(universe)
    u = {"a": 1.0, "b": 1.0, "c": 0.0}
    weights = LuceWeights.from_alpha(
        universe, {"a": math.log(2), "b": 0.0, "c": 0.0}
    )
    sampler = IndependentRumSampler(u, weights, seed=3)
    emp = empirical_rule(sampler, family, n_draws)
    failures = []
    abc, ab = ChoiceSet("abc"), ChoiceSet("ab")
    if emp.counts[abc]["c"] != 0:
        failures.append(("c chosen from the full set", emp.counts[abc]["c"]))
    if emp.counts[ChoiceSet("ac")]["c"] != 0 or emp.counts[ChoiceSet("bc")]["c"] != 0:
        failures.append("c chosen against a higher utility level")
    for A in (abc, ab):
        for a, target in (("a", 2 / 3), ("b", 1 / 3)):
            observed = emp.counts[A][a] / n_draws
            if abs(observed - target) > _mc_bound(target, n_draws):
                failures.append((str(A), a, observed, target))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 7,
        "independent-utility sampler separates utility levels exactly and "
        "splits ties by the weights",
        failures, seconds, budget=30.0,
    )


def test_08_smoothed_rule_limit(announce):
    t0 = time.perf_counter()
    universe = Universe("abc")
    family = ChoiceFamily.of_all_subsets(universe)
    u = {"a": 1.0, "b": 1.0, "c": 0.0}
    weights = LuceWeights.from_alpha(
        universe, {"a": math.log(2), "b": 0.0, "c": 0.0}
    )
    failures = []
    target = general_luce_rule_from_utility(u, weights, family).as_float()
    smoothed = lambda_smoothed_rule(u, weights, 0.05, family)
    sup = max(abs(smoothed.p(a, A) - target.p(a, A)) for A in family for a in A)
    if sup > 1e-6:
        failures.append(("final sup-norm", sup))
    report = limit_check(u, weights, (1.0, 0.5, 0.1, 0.05), family)
    if not all(x > y for x, y in zip(report.distances, report.distances[1:])):
        failures.append(("distances not strictly decreasing", report.distances))
    if not report.converged:
        failures.append(("limit check did not converge", report.final_distance))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 8,
        f"smoothed rule converges to the two-tier target "
        f"(final sup-norm {sup:.2e})",
        failures, seconds, budget=1.0,
    )


def test_09_maximum_likelihood_recovery(announce):
    t0 = time.perf_counter()
    n_draws = 100_000
    universe = helpers.universe_of(4)
    family = ChoiceFamily.of_all_subsets(universe)
    order = WeakOrder.from_classes(universe, [["a", "b"], ["c", "d"]])
    gamma0 = correspondence_from_order(order, family)
    alpha0 = {"a": math.log(2), "b": 0.0, "c": math.log(3), "d": 0.0}
    weights = LuceWeights.from_alpha(universe, alpha0)
    sampler = LexSampler(order, GumbelLuceSampler(weights, seed=2718))
    emp = empirical_rule(sampler, family, n_draws)
    data = ChoiceDataset(universe, emp.counts)

    failures = []
    res = fit(data)
    if res.alpha_hat is None or not res.converged:
        failures.append(("fit did not converge", res.separated))
    else:
        if any(res.gamma_hat.gamma(A) != gamma0.gamma(A) for A in family):
            failures.append("estimated support differs from the truth")
        for x, y in (("a", "b"), ("c", "d")):
            got = res.alpha_hat[x] - res.alpha_hat[y]
            want = alpha0[x] - alpha0[y]
            if abs(got - want) > 0.05:
                failures.append((f"{x}-{y} gap", got, want))
        if any(x2 < x1 for x1, x2 in zip(res.ll_path, res.ll_path[1:])):
            failures.append(("log-likelihood decreased", res.ll_path))

        # The analytic gradient must match central differences at random
        # points around the optimum.
        rng = random.Random(5)
        h = 1e-5
        for _ in range(5):
            point = {a: res.alpha_hat[a] + rng.uniform(-0.5, 0.5) for a in universe}
            _, grad = log_likelihood_and_gradient(data, gamma0, point)
            for a in universe:
                up = dict(point, **{a: point[a] + h})
                down = dict(point, **{a: point[a] - h})
                numeric = (
                    log_likelihood_and_gradient(data, gamma0, up)[0]
                    - log_likelihood_and_gradient(data, gamma0, down)[0]
                ) / (2 * h)
                scale = max(1.0, abs(grad[a]))
                if abs(grad[a] - numeric) > 1e-5 * scale:
                    failures.append(("gradient mismatch", a, grad[a], numeric))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 9,
        "fit recovers the support and weight gaps from 100k draws per set",
        failures, seconds, budget=30.0,
    )


def test_10_cli_end_to_end(tmp_path, announce):
    t0 = time.perf_counter()
    rng = random.Random(424242)
    axioms = (
        "choice-axiom,odds-independence,product-rule,set-choice-axiom,"
        "set-intersection-rule,renyi-conditioning,warp"
    )
    failures = []
    for i in range(100):
        universe = helpers.universe_of(3 + i % 3)
        gamma = helpers.random_warp_correspondence(universe, rng)
        weights = helpers.random_rational_weights(universe, rng)
        gamma_path = tmp_path / f"gamma_{i}.json"
        weights_path = tmp_path / f"weights_{i}.json"
        write_document(str(gamma_path), gamma)
        write_document(str(weights_path), weights)

        rule_path = tmp_path / f"rule_{i}.json"
        report_path = tmp_path / f"report_{i}.json"
        synth_argv = [
            "synthesize", "--weights", str(weights_path),
            "--gamma", str(gamma_path), "--out", str(rule_path),
        ]
        check_argv = [
            "check", str(rule_path), "--axioms", axioms,
            "--out", str(report_path),
        ]
        if main(synth_argv) != 0:
            failures.append((i, "synthesize exited nonzero"))
            continue
        if main(check_argv) != 0:
            failures.append((i, "check exited nonzero"))
            continue
        report = json.loads(report_path.read_text())
        if report["payload"]["all_hold"] is not True:
            failures.append((i, "report is not all-hold"))

        # Repeating both commands must reproduce the files byte for byte.
        rule_bytes = rule_path.read_bytes()
        report_bytes = report_path.read_bytes()
        main(synth_argv)
        main(check_argv)
        if rule_path.read_bytes() != rule_bytes:
            failures.append((i, "synthesize output not reproducible"))
        if report_path.read_bytes() != report_bytes:
            failures.append((i, "check output not reproducible"))
    seconds = time.perf_counter() - t0
    _finish(
        announce, 10,
        "synthesize-then-check pipeline exits 0 with byte-identical reruns, "
        "100 instances",
        failures, seconds, budget=30.0,
    )
