"""The four workloads: inputs, timed operations and their checks.

Each workload builds its inputs from the seed in ``setup`` (repeatable, and
the same seed gives the same inputs), then ``run_round`` performs one fixed
round of operations through ``runner.op(category, fn, check)``: ``fn`` is
the timed call into lucekit, ``check`` inspects its output afterwards,
untimed. ``summary`` turns the recorded rounds into the named end-to-end
figures of the workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from statistics import median

import gen
from checks import (
    check_axiom_report,
    check_cli_json,
    check_decomposition,
    check_fit,
    check_fit_payload,
    check_shares,
    check_synthesized,
)

import lucekit as lk


def _names(cs) -> tuple[str, ...]:
    return tuple(cs.members)


def _round_sum(rounds, *categories) -> float:
    return median(sum(dt for cat, dt, _ in r if cat in categories) for r in rounds)


class VerifyComplete:
    """Rule files on complete families: decode, nine checkers, encode the report.

    Holding, failing and float rules are timed apart, so a shortcut that only
    helps verdicts that hold shows what it costs the others. The same round
    synthesizes and decomposes each holding rule of n <= 10 from (Γ, weights).
    """

    # (name, n, selective)
    HOLD = [("h7", 7, False), ("h9", 9, True), ("h10", 10, False), ("h11", 11, True)]
    # (name, n, selective, perturbation)
    FAIL = [("f8", 8, False, "shift"), ("f9", 9, True, "cut"), ("f10", 10, True, "shift")]
    FLOAT = ["h7", "h9", "h10", "f8", "f9"]
    SYNTH = ["h7", "h9", "h10"]

    name = "verify-complete"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> str:
        s = self.seed
        specs = {name: gen.holding_rule(s, name, n, sel) for name, n, sel in self.HOLD}
        for name, n, sel, kind in self.FAIL:
            specs[name] = gen.perturbed_rule(gen.holding_rule(s, name, n, sel), s, kind)
        self.specs = specs
        self.floats = {name: gen.as_float(specs[name]) for name in self.FLOAT}
        self.docs = {name: gen.rule_document(sp) for name, sp in specs.items()}
        self.float_docs = {name: gen.rule_document(sp) for name, sp in self.floats.items()}
        self.synth_inputs = {}
        for name in self.SYNTH:
            sp = specs[name]
            gamma = lk.loads_document(gen.correspondence_document(sp))
            weights = lk.loads_document(gen.weights_document(sp.labels, sp.v))
            self.synth_inputs[name] = (gamma, weights)
        self.cache: dict = {}
        self.round_tripped: set = set()
        digest = hashlib.sha256()
        for text in list(self.docs.values()) + list(self.float_docs.values()):
            digest.update(text.encode())
        return digest.hexdigest()

    @staticmethod
    def _check_file(text: str) -> str:
        rule = lk.loads_document(text)
        reports = lk.check_all(rule)
        payload = {
            "type": "axioms",
            "mode": rule.mode,
            "eps": rule.eps,
            "all_hold": all(r.holds for r in reports.values()),
            "reports": [lk.documents.encode_axiom_report(r) for r in reports.values()],
        }
        return lk.dumps_document(payload, kind="report")

    def _checker(self, spec, exact_spec, text):
        def check(out: str) -> list[str]:
            problems = check_axiom_report(spec, exact_spec, json.loads(out), self.cache)
            if spec.name not in self.round_tripped:
                # Canonical bytes: re-encoding the decoded input gives it back.
                self.round_tripped.add(spec.name)
                if lk.dumps_document(lk.loads_document(text)) != text:
                    problems.append(f"{spec.name}: document does not re-encode to the same bytes")
            return problems
        return check

    def run_round(self, runner) -> None:
        for name, *_ in self.HOLD:
            text = self.docs[name]
            runner.op("hold", lambda t=text: self._check_file(t), self._checker(self.specs[name], self.specs[name], text))
        for name, *_ in self.FAIL:
            text = self.docs[name]
            runner.op("fail", lambda t=text: self._check_file(t), self._checker(self.specs[name], self.specs[name], text))
        for name in self.FLOAT:
            text = self.float_docs[name]
            runner.op("float", lambda t=text: self._check_file(t), self._checker(self.floats[name], self.specs[name], text))
        for name in self.SYNTH:
            gamma, weights = self.synth_inputs[name]

            def synth(g=gamma, w=weights):
                rule = lk.general_luce_rule(g, w)
                return rule, lk.decompose(rule)

            runner.op("synth_decompose", synth, lambda out, sp=self.specs[name]: self._check_synth(sp, *out))

    @staticmethod
    def _check_synth(spec, rule, dec) -> list[str]:
        table = {_names(A): dict(row) for A, row in rule.table.items()}
        gamma = {_names(A): _names(dec.gamma.gamma(A)) for A in dec.gamma.family}
        return check_synthesized(spec, table) + check_decomposition(spec, dec.classes, dict(dec.v), gamma)

    def summary(self, rounds) -> list[tuple[str, float, str]]:
        return [
            ("check_hold_s", _round_sum(rounds, "hold"), "s"),
            ("check_fail_s", _round_sum(rounds, "fail"), "s"),
            ("check_float_s", _round_sum(rounds, "float"), "s"),
            ("synth_decompose_s", _round_sum(rounds, "synth_decompose"), "s"),
        ]


class SimulateFit:
    """Seeded simulation with the three samplers on complete families, then fit."""

    # (name, n, sampler, draws per set, weak-order levels)
    SIMS = [("g9", 9, "gumbel", 1500, 1), ("i10", 10, "independent", 1500, 3), ("l8", 8, "lex", 1500, 2)]

    name = "simulate-fit"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> str:
        from lucekit.rum import GumbelLuceSampler, IndependentRumSampler, LexSampler

        self.inputs = []
        digest = hashlib.sha256()
        for name, n, sampler, draws, levels in self.SIMS:
            sim = gen.sim_spec(self.seed, name, n, sampler, draws, levels)
            wdoc = gen.weights_document(sim.labels, sim.v)
            udoc = gen.utility_document(sim.labels, sim.ranks)
            digest.update((wdoc + udoc + str(sim.seed)).encode())
            weights, u = lk.loads_document(wdoc), lk.loads_document(udoc)
            universe = weights.universe
            family = lk.ChoiceFamily.of_all_subsets(universe)
            if sampler == "gumbel":
                make = lambda w=weights, s=sim.seed: GumbelLuceSampler(w, seed=s)
            elif sampler == "independent":
                make = lambda w=weights, u=u, s=sim.seed: IndependentRumSampler(u, w, seed=s)
            else:
                order = lk.WeakOrder.from_utility(universe, u)
                make = lambda w=weights, o=order, s=sim.seed: LexSampler(o, GumbelLuceSampler(w, seed=s))
            self.inputs.append((sim, universe, family, make))
        return digest.hexdigest()

    def run_round(self, runner) -> None:
        for sim, universe, family, make in self.inputs:
            emp = runner.op(
                sim.sampler,
                lambda: lk.empirical_rule(make(), family, sim.draws),
                lambda out, sim=sim: check_shares(sim, self._counts(out.counts)),
                draws=sim.draws * len(family),
            )
            runner.op(
                "fit_dense",
                lambda: lk.fit(lk.ChoiceDataset(universe, emp.counts)),
                lambda res, sim=sim: self._check_fit(sim, self._counts(emp.counts), res),
            )

    @staticmethod
    def _counts(counts) -> dict[int, dict[int, int]]:
        return {gen.mask_of(int(a[1:]) for a in A.members): {int(a[1:]): c for a, c in row.items()}
                for A, row in counts.items()}

    @staticmethod
    def _check_fit(sim, counts, res) -> list[str]:
        menus = sorted(counts)
        fit = {
            "gamma_hat": {_names(A): _names(res.gamma_hat.gamma(A)) for A in res.gamma_hat.family},
            "alpha_hat": None if res.alpha_hat is None else dict(res.alpha_hat),
            "ll_path": list(res.ll_path),
            "warp_holds": res.warp_report.holds,
            "warp_pairs": res.warp_report.pairs_checked,
        }
        gammas = [gen.maximizers(sim.ranks, m) for m in menus]
        return check_fit(sim.name, sim.n, menus, [counts[m] for m in menus], gammas, fit)

    def summary(self, rounds) -> list[tuple[str, float, str]]:
        sims = ("gumbel", "independent", "lex")
        rates = [
            sum(x for cat, _, x in r if cat in sims) / sum(dt for cat, dt, _ in r if cat in sims)
            for r in rounds
        ]
        return [("draws_per_s", median(rates), "draws/s"), ("fit_dense_s", _round_sum(rounds, "fit_dense"), "s")]


class SparseFit:
    """Decode a large sparse dataset document, fit it, encode the result."""

    N, GROUPS = 400, 500  # 400 alternatives, 2,000 menus of 2-6 members

    name = "sparse-fit"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> str:
        self.spec = gen.sparse_dataset(self.seed, self.N, self.GROUPS)
        self.doc = gen.dataset_document(self.N, self.spec.menus, self.spec.counts)
        return hashlib.sha256(self.doc.encode()).hexdigest()

    def run_round(self, runner) -> None:
        def op():
            result = lk.fit(lk.loads_document(self.doc))
            return lk.dumps_document(result)

        runner.op("sparse", op, lambda out: _check_sparse(self.spec, out))

    def summary(self, rounds) -> list[tuple[str, float, str]]:
        return [("fit_sparse_s", _round_sum(rounds, "sparse"), "s")]


def _check_sparse(sp, out: str) -> list[str]:
    gammas = [sp.gamma(m) for m in sp.menus]
    return check_fit_payload("sparse", sp.n, sp.menus, sp.counts, gammas, json.loads(out)["payload"])


class CliPipeline:
    """The six subcommands as separate processes on small universes, in order."""

    # (n, weak-order levels, limit schedule); u6's schedule is not strictly
    # decreasing, which the CLI must refuse with exit code 2.
    UNIVERSES = [(4, 1, "1,0.5,0.1,0.05"), (5, 3, "1,0.5,0.1,0.05"), (6, 2, "1,0.5,0.5")]
    DRAWS = 2000
    COMMANDS = ("synthesize", "check", "decompose", "simulate", "fit", "limit")

    name = "cli-pipeline"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def setup(self) -> str:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.calls = []  # (command, argv, output path, expected exit code, ground truth)
        self.first: dict = {}  # call index -> (code, out bytes, stderr) of the first round
        digest = hashlib.sha256()
        for n, levels, schedule in self.UNIVERSES:
            rng = gen.rng_for(self.seed, "cli", n)
            ranks = gen.weak_order(rng, n, levels)
            v = gen.rational_weights(rng, n)
            masks = gen.canonical_masks(n)
            spec = gen.RuleSpec(f"u{n}", n, ranks, v, masks, gen.luce_rows(n, masks, ranks, v))
            spec.full_support = len(set(ranks)) == 1
            sim = gen.SimSpec(f"u{n}-lex", n, "lex", ranks, v, self.DRAWS, rng.randrange(2**31))
            files = {
                "w": gen.weights_document(spec.labels, v),
                "g": gen.correspondence_document(spec),
                "u": gen.utility_document(spec.labels, ranks),
            }
            for key, text in files.items():
                with open(self._path(f"{key}{n}.json"), "w", encoding="utf-8") as fh:
                    fh.write(text)
                digest.update(text.encode())
            p = lambda key: self._path(f"{key}{n}.json")
            shared = {"spec": spec, "sim": sim, "cache": {}}
            limit_ok = schedule == "1,0.5,0.1,0.05"
            self.calls += [
                ("synthesize", ["synthesize", "--weights", p("w"), "--gamma", p("g"), "--out", p("rule")], p("rule"), 0, shared),
                ("check", ["check", p("rule"), "--out", p("report")], p("report"), 0 if spec.full_support else 1, shared),
                ("decompose", ["decompose", p("rule"), "--out", p("dec")], p("dec"), 0, shared),
                ("simulate", ["simulate", "--sampler", "lex", "--weights", p("w"), "--utility", p("u"),
                              "--draws", str(self.DRAWS), "--seed", str(sim.seed), "--out", p("data")], p("data"), 0, shared),
                ("fit", ["fit", p("data"), "--out", p("fit")], p("fit"), 0, shared),
                ("limit", ["limit", "--utility", p("u"), "--weights", p("w"), "--schedule", schedule,
                           "--out", p("lim")], p("lim"), 0 if limit_ok else 2, shared),
            ]
        return digest.hexdigest()

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _subprocess(self, argv):
        code = "import sys; from lucekit.cli import main; sys.exit(main())"
        proc = subprocess.run([sys.executable, "-c", code] + argv, env=self.env, cwd=self.workdir,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stderr.decode()

    def _in_process(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lk.cli.main(argv)
        return code, err.getvalue()

    def run_round(self, runner, in_process: bool = False) -> None:
        invoke = self._in_process if in_process else self._subprocess
        for i, (command, argv, out, code, shared) in enumerate(self.calls):
            if os.path.exists(out):
                os.remove(out)
            runner.op(command if not in_process else "cli", lambda argv=argv: invoke(argv),
                      lambda res, i=i: self._check(i, res))

    def _check(self, i: int, res) -> list[str]:
        command, argv, out, want, shared = self.calls[i]
        code, stderr = res
        problems = []
        if code != want:
            problems.append(f"{command} {shared['spec'].name}: exit {code}, want {want}: {stderr.strip()[:200]}")
        text = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        if want == 2:
            if text is not None or not stderr.startswith("lucekit: "):
                problems.append(f"{command}: a refused call must write no output and one error line")
        elif text is None:
            problems.append(f"{command}: no output written")
        else:
            if command == "simulate":
                data = json.loads(text)["payload"]["observations"]
                shared["counts"] = {gen.mask_of(int(a[1:]) for a in r["set"]): {int(a[1:]): c for a, c in r["counts"].items()}
                                    for r in data}
            expect = dict(shared, command=command)
            problems += [f"{command}: {p}" for p in check_cli_json(text, expect)]
        seen = (code, text, stderr)
        if self.first.setdefault(i, seen) != seen:
            problems.append(f"{command} {shared['spec'].name}: rerun output differs from the first run")
        return problems

    def summary(self, rounds) -> list[tuple[str, float, str]]:
        calls = [dt for r in rounds for _, dt, _ in r]
        out = [("cli_call_s", median(calls), "s"), ("cli_pipeline_s", median(sum(dt for _, dt, _ in r) for r in rounds), "s")]
        for command in self.COMMANDS:
            out.append((f"cli.{command}_s", median(dt for r in rounds for cat, dt, _ in r if cat == command), "s"))
        return out


WORKLOADS = {w.name: w for w in (VerifyComplete, SimulateFit, SparseFit, CliPipeline)}
