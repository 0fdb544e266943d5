"""Benchmark for lucekit: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout (lucekit is imported from src/):

    python3 perfbench/run.py --workload verify-complete --seed 1 --seconds 20 --trace 0

Workloads: verify-complete, simulate-fit, sparse-fit, cli-pipeline (see
README.md). The run builds its inputs from --seed, repeats whole rounds of
the workload's operations until --seconds have passed, checks every output,
and prints human-readable lines followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run alternates untraced and
traced rounds and reports per-layer metrics from the spans instead.
"""

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # set-up repetitions; setup_s reports their median
CHECKERS = (
    "choice_axiom",
    "odds_independence",
    "product_rule",
    "set_choice_axiom",
    "set_intersection_rule",
    "positivity",
    "full_support",
    "warp",
    "renyi_conditioning",
)


class Runner:
    """Times operations, runs their checks, counts attempts and failures."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # operations whose output a check found wrong
        self.problems: list[str] = []
        self.ops: list[tuple[str, float, float]] = []

    def op(self, category: str, fn, check, draws: float = 0.0):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.tracer.op(category, fn) if self.tracer else fn()
        except Exception:
            self._fail(category, traceback.format_exc(limit=3))
            return None
        finally:
            # Failed operations are timed too, so every round lists the same operations.
            self.ops.append((category, perf_counter() - t0, draws))
        try:
            problems = check(out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
        if problems:
            self.wrong += 1
            self._fail(category, "; ".join(problems))
        return out

    def _fail(self, category: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{category}: {why}")


def environment(lk) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lucekit_backend": lk.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas_threads": blas,
    }


def fresh_import_seconds(modules: str) -> float:
    """Wall time of importing ``modules`` in a new interpreter."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120, check=True)
    return float(proc.stdout)


def layer_metrics(s: dict, cli: dict) -> dict:
    """Per-layer metrics from one traced round's span summary."""
    t = lambda key: s.get("time:" + key, 0.0)
    c = lambda key: s.get("count:" + key, 0)
    m = {
        "core.self_s": s.get("self:core", 0.0),
        "core.rule_build_s": t("core.rule_build"),
        "core.family_build_s": t("core.family_build"),
        "core.support_correspondence_s": t("core.support_correspondence"),
        "documents.self_s": s.get("self:documents", 0.0),
        "documents.decode_s": t("documents.decode"),
        "documents.encode_s": t("documents.encode") + t("documents.encode_report"),
        "documents.bytes": c("documents.decode:bytes") + c("documents.encode:bytes"),
        "axioms.self_s": s.get("self:axioms", 0.0),
    }
    for name in CHECKERS:
        for cat in ("hold", "fail", "float"):
            m[f"axioms.{name}.{cat}_s"] = t(f"axioms.{name}:{cat}")
        m[f"axioms.{name}.instances"] = c(f"axioms.{name}:instances")
    m["axioms.violations"] = sum(c(f"axioms.{name}:violations") for name in CHECKERS)
    m["axioms.witnesses"] = sum(c(f"axioms.{name}:witnesses") for name in CHECKERS)
    m["axioms.warp.sparse_s"] = t("axioms.warp:sparse")
    m["axioms.warp.sparse_instances"] = c("axioms.warp:sparse:instances")
    m.update({
        "synthesize.self_s": s.get("self:synthesize", 0.0),
        "synthesize.general_luce_rule_s": t("synthesize.general_luce_rule"),
        "decompose.self_s": s.get("self:decompose", 0.0),
        "decompose.decompose_s": t("decompose.decompose"),
        "rum.self_s": s.get("self:rum", 0.0),
        "rum._kernels.self_s": s.get("self:_kernels", 0.0),
        "rum.gumbel_s": t("rum.empirical_rule:gumbel"),
        "rum.independent_s": t("rum.empirical_rule:independent"),
        "rum.lex_s": t("rum.empirical_rule:lex"),
        "rum.draws": c("rum.empirical_rule:draws"),
        "estimate.self_s": s.get("self:estimate", 0.0),
        "estimate.support_from_counts_s": t("estimate.support_from_counts"),
        "estimate.fit_alpha_mle_s": t("estimate.fit_alpha_mle"),
        "estimate.iterations": c("estimate.fit_alpha_mle:iterations"),
        "cli.self_s": s.get("self:cli", 0.0),
        "trace.spans": s.get("spans", 0),
    })
    for key in ("cli.import_s", "cli.main_s") + tuple(f"cli.{cmd}_s" for cmd in
                                                      ("synthesize", "check", "decompose", "simulate", "fit", "limit")):
        m[key] = cli.get(key, 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lucekit", "__init__.py")):
        print(f"perfbench: no lucekit sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: with one CLI child at a time the run never has more
    # busy threads than two, and timings do not depend on a thread pool.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, SRC)
    import lucekit as lk
    import lucekit._kernels
    import lucekit.cli
    import lucekit.rum

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(lucekit._kernels), sort_keys=True))

    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        return _run(args, wl, Tracer)
    finally:
        if os.path.isdir(workdir):
            import shutil

            shutil.rmtree(workdir)


def _run(args, wl, Tracer) -> int:
    # Set-up is measured SETUPS times: imports in fresh interpreters, and
    # input generation in this one (every repeat must give the same inputs).
    import_times, setup_times, digests = [], [], set()
    for _ in range(SETUPS):
        import_times.append(fresh_import_seconds("lucekit, lucekit.cli, lucekit.rum"))
        t0 = perf_counter()
        digests.add(wl.setup())
        setup_times.append(perf_counter() - t0)
    if len(digests) != 1:
        print("perfbench: the generator gave different inputs for one seed", file=sys.stderr)
        return 1
    setup_s = median(import_times) + median(setup_times)

    tracer = Tracer() if args.trace else None
    plain, traced = Runner(), Runner(tracer)
    plain_rounds, traced_rounds, layer_rows, cli_rows = [], [], [], []
    in_process = wl.name == "cli-pipeline"
    if args.trace and in_process:
        cli_import = median(fresh_import_seconds("lucekit.cli") for _ in range(SETUPS))
        wl.run_round(Runner(), in_process=True)  # first in-process calls import lazily; not timed
    t_loop = perf_counter()
    while not plain_rounds or perf_counter() - t_loop < args.seconds:
        start = len(plain.ops)
        wl.run_round(plain)
        plain_rounds.append(plain.ops[start:])
        if not args.trace:
            continue
        cli = {}
        if in_process:
            cli_plain = Runner()
            wl.run_round(cli_plain, in_process=True)
            cli["cli.main_s"] = median(dt for _, dt, _ in cli_plain.ops)
            cli["cli.import_s"] = cli_import
            cli.update((k, v) for k, v, _ in wl.summary([plain_rounds[-1]]) if k.startswith("cli."))
            plain_rounds[-1] = cli_plain.ops  # overhead compares in-process rounds
        first, start = len(tracer.spans), len(traced.ops)
        tracer.install()
        try:
            if in_process:
                wl.run_round(traced, in_process=True)
            else:
                wl.run_round(traced)
        finally:
            tracer.uninstall()
        traced_rounds.append(traced.ops[start:])
        layer_rows.append(tracer.summarize(first, len(tracer.spans)))
        cli_rows.append(cli)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for line in plain.problems + traced.problems:
        print("FAILED " + line, file=sys.stderr)
    rss_kind = resource.RUSAGE_CHILDREN if in_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024.0
    round_times = [sum(dt for _, dt, _ in r) for r in plain_rounds]

    if not args.trace:
        for name, value, unit in wl.summary(plain_rounds):
            print(f"metric {name} = {value:.6g} {unit}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_s": (op_geomean(plain_rounds), "s"),
            "round_s": (median(round_times), "s"),
        }
    else:
        rows = [layer_metrics(s, c) for s, c in zip(layer_rows, cli_rows)]
        overhead = median(sum(dt for _, dt, _ in r) for r in traced_rounds) - median(round_times)
        metrics = {key: (median(row[key] for row in rows), "count" if _is_count(key) else ("bytes" if key.endswith("bytes") else "s"))
                   for key in rows[0]}
        metrics["trace.overhead_s"] = (overhead, "s")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"trace-{wl.name}-{args.seed}.jsonl"))
    print(f"rounds {len(plain_rounds)} traced {len(traced_rounds)} attempted {attempted} failed {failed}")
    print("op_seconds " + json.dumps([[round(dt, 6) for _, dt, _ in r] for r in plain_rounds]))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{'layer' if args.trace else 'e2e'} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def op_geomean(rounds) -> float:
    """Geometric mean over a round's operations of each one's median time.

    Rounds repeat the same operations in the same order, so position i of
    every round is the same operation. Unlike ``round_s``, which the largest
    inputs dominate, every operation weighs the same here.
    """
    per_op = [median(r[i][1] for r in rounds) for i in range(len(rounds[0]))]
    return math.exp(sum(math.log(t) for t in per_op) / len(per_op))


def _is_count(key: str) -> bool:
    return key.endswith((".instances", ".violations", ".witnesses", ".draws", ".iterations", ".spans", "sparse_instances"))


if __name__ == "__main__":
    sys.exit(main())
