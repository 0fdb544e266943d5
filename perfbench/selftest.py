"""Shows that the benchmark's checks catch wrong outputs.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each case takes a real lucekit output on a small generated input, confirms
the checks accept it, then feeds them a deliberately wrong copy (a flipped
verdict, a doctored witness, a shifted weight, ...) and confirms they flag
it. Exits 1 if a real output is rejected or a wrong one slips through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lucekit as lk  # noqa: E402
import lucekit.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import CliPipeline, SimulateFit, SparseFit, VerifyComplete, _check_sparse  # noqa: E402

SEED = 7
results: list[tuple[str, bool]] = []


def case(name: str, good: list[str], bad: list[str]) -> None:
    ok = not good and bool(bad)
    results.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}: real output {good[:1] or 'accepted'}, wrong output "
          f"{'flagged: ' + bad[0][:90] if bad else 'NOT flagged'}")


def report_cases() -> None:
    base = gen.holding_rule(SEED, "s6", 6, True)
    spec = gen.perturbed_rule(base, SEED, "cut")
    fspec = gen.as_float(spec)
    cache: dict = {}
    real = json.loads(VerifyComplete._check_file(gen.rule_document(spec)))
    freal = json.loads(VerifyComplete._check_file(gen.rule_document(fspec)))
    good = checks.check_axiom_report(spec, spec, real, cache)
    reps = lambda doc: {r["axiom"]: r for r in doc["payload"]["reports"]}

    def mutated(fn, doc=real, s=spec):
        doc = copy.deepcopy(doc)
        fn(reps(doc))
        return checks.check_axiom_report(s, spec, doc, cache)

    def flip(r):
        r["choice-axiom"].update(holds=True, verdict="holds", violation_count=0, witnesses=[])

    def flip_all(r):
        for ax in ("choice-axiom", "odds-independence", "product-rule", "set-choice-axiom", "set-intersection-rule"):
            r[ax].update(holds=True, verdict="holds", violation_count=0, witnesses=[])

    def doctor(r):
        w = r["choice-axiom"]["witnesses"][0]
        w["elements"] = [next(a for a in w["sets"][0] if a != w["elements"][0])]

    def swap(r):
        ws = r["product-rule"]["witnesses"]
        ws[0], ws[1] = ws[1], ws[0]

    def recount(r):
        r["warp"]["violation_count"] += 1

    def drop(r):
        r["full-support"]["witnesses"].pop()

    case("flipped verdict", good, mutated(flip))
    case("five checkers flipped together", good, mutated(flip_all))
    case("doctored witness", good, mutated(doctor))
    case("witnesses out of scan order", good, mutated(swap))
    case("violation count off by one", good, mutated(recount))
    case("witness dropped under the cap", good, mutated(drop))
    fgood = checks.check_axiom_report(fspec, spec, freal, cache)
    case("float verdict differs from exact", fgood, mutated(flip, freal, fspec))
    case("float witnesses out of scan order", fgood, mutated(swap, freal, fspec))


def synth_cases() -> None:
    spec = gen.holding_rule(SEED, "s5", 5, True)
    gamma = lk.loads_document(gen.correspondence_document(spec))
    weights = lk.loads_document(gen.weights_document(spec.labels, spec.v))
    rule = lk.general_luce_rule(gamma, weights)
    dec = lk.decompose(rule)
    good = VerifyComplete._check_synth(spec, rule, dec)
    table = {tuple(A.members): dict(row) for A, row in rule.table.items()}
    key = next(k for k, row in table.items() if sum(1 for x in row.values() if x) >= 2)
    a, b = [x for x, p in table[key].items() if p][:2]
    table[key][a] += gen.Fraction(1, 100)
    table[key][b] -= gen.Fraction(1, 100)
    case("shifted synthesized probability", good, checks.check_synthesized(spec, table))
    gmap = {tuple(A.members): tuple(dec.gamma.gamma(A).members) for A in dec.gamma.family}
    v = dict(dec.v)
    shifted = next(x for x in v if v[x] != 1)
    v[shifted] *= 2
    case("shifted decomposed weight", good, checks.check_decomposition(spec, dec.classes, v, gmap))
    merged = [sum((list(c) for c in dec.classes), [])]
    case("merged indifference classes", good, checks.check_decomposition(spec, merged, dict(dec.v), gmap))


def sim_cases() -> None:
    wl = SimulateFit(SEED, "")
    wl.SIMS = [("g5", 5, "gumbel", 4000, 1), ("l5", 5, "lex", 4000, 2)]
    wl.setup()
    for sim, universe, family, make in wl.inputs:
        emp = lk.empirical_rule(make(), family, sim.draws)
        counts = SimulateFit._counts(emp.counts)
        good = checks.check_shares(sim, counts)
        bad = copy.deepcopy(counts)
        if sim.sampler == "lex":
            m = next(m for m in bad if gen.maximizers(sim.ranks, m) != m)
            off = next(j for j in gen.bits(m) if not gen.maximizers(sim.ranks, m) >> j & 1)
            top = next(j for j in gen.bits(gen.maximizers(sim.ranks, m)))
            bad[m][top] -= 1
            bad[m][off] += 1
            case("lex sampler picks a non-maximizer", good, checks.check_shares(sim, bad))
        else:
            full = (1 << sim.n) - 1
            j, k = gen.bits(full)[:2]
            shift = sim.draws // 20
            bad[full][j] -= shift
            bad[full][k] += shift
            case("empirical share shifted by 5 points", good, checks.check_shares(sim, bad))
        res = lk.fit(lk.ChoiceDataset(universe, emp.counts))
        good = SimulateFit._check_fit(sim, counts, res)
        if sim.sampler == "gumbel":
            alpha = dict(res.alpha_hat)
            alpha[gen.label(sim.n - 1)] += 0.1
            case("fitted weight moved off the optimum", good,
                 SimulateFit._check_fit(sim, counts, dataclasses.replace(res, alpha_hat=alpha)))
            path = list(res.ll_path)
            path.insert(1, path[0] - 1.0)
            case("ll_path not monotone", good,
                 SimulateFit._check_fit(sim, counts, dataclasses.replace(res, ll_path=tuple(path))))


def sparse_cases() -> None:
    wl = SparseFit(SEED, "")
    wl.N, wl.GROUPS = 60, 40
    wl.setup()
    out = lk.dumps_document(lk.fit(lk.loads_document(wl.doc)))
    good = _check_sparse(wl.spec, out)
    doc = json.loads(out)
    row = next(r for r in doc["payload"]["gamma_hat"]["table"] if len(r["chosen"]) >= 2)
    row["chosen"] = row["chosen"][:1]
    case("estimated support loses a member", good, _check_sparse(wl.spec, json.dumps(doc)))


def cli_cases() -> None:
    workdir = os.path.join(HERE, f".work-selftest-{os.getpid()}")
    try:
        wl = CliPipeline(SEED, workdir)
        wl.setup()
        outcomes = []
        for command, argv, out, want, shared in wl.calls:
            if os.path.exists(out):
                os.remove(out)
            res = wl._in_process(argv)
            outcomes.append((res, wl._check(len(outcomes), res)))
        good = [p for _, probs in outcomes for p in probs]
        i = next(i for i, call in enumerate(wl.calls) if call[3] == 1)
        (code, err), _ = outcomes[i]
        case("wrong exit code", good, wl._check(i, (0, err)))
        case("rerun output differs", good, wl._check(i, (code, err + "x")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    report_cases()
    synth_cases()
    sim_cases()
    sparse_cases()
    cli_cases()
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} wrong outputs flagged, real outputs accepted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
