import contextlib
import copy
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    DocumentError,
    LucekitError,
    LuceWeights,
    RandomChoiceRule,
    Universe,
    WeakOrder,
    check_choice_axiom,
    correspondence_from_order,
    dumps_document,
    from_document,
    general_luce_rule,
    loads_document,
    luce_rule,
    write_document,
)
from lucekit import cli, errors
from lucekit.cli import _error_slug, main

import helpers
from test_axioms import bad_rule
from test_decompose import denormal_pair_rule
from test_documents import _JSON, VALID, _edit, _nodes, broken_document
from test_estimate import OVERSIZED_COUNTS

EQUIVALENTS_CSV = (
    "choice-axiom,odds-independence,product-rule,"
    "set-choice-axiom,set-intersection-rule,renyi-conditioning,warp"
)


@pytest.fixture
def work(tmp_path):
    """Temp documents shared by the command tests."""
    u = Universe("abc")
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1)})
    order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
    gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
    paths = {
        "weights": tmp_path / "weights.json",
        "gamma": tmp_path / "gamma.json",
        "utility": tmp_path / "utility.json",
        "bad_rule": tmp_path / "bad_rule.json",
    }
    write_document(str(paths["weights"]), w)
    write_document(str(paths["gamma"]), gamma)
    write_document(str(paths["utility"]), {"a": 1.0, "b": 1.0, "c": 0.0}, kind="utility")
    write_document(str(paths["bad_rule"]), bad_rule())
    paths["dir"] = tmp_path
    return paths


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def synth(work, capsys, *extra):
    rule_path = work["dir"] / "rule.json"
    code, _, err = run(
        ["synthesize", "--weights", work["weights"], "--gamma", work["gamma"],
         "--out", rule_path, *extra],
        capsys,
    )
    assert code == 0, err
    return rule_path


class TestCheck:
    def test_full_support_rule_exits_zero(self, work, capsys):
        code, _, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", "all",
             "--out", work["dir"] / "full.json"],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["check", work["dir"] / "full.json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["payload"]["all_hold"] is True
        assert [r["axiom"] for r in doc["payload"]["reports"]] == [
            "choice-axiom",
            "odds-independence",
            "product-rule",
            "set-choice-axiom",
            "set-intersection-rule",
            "positivity",
            "full-support",
            "renyi-conditioning",
            "warp",
        ]

    def test_selective_rule_fails_only_support_axioms(self, work, capsys):
        rule_path = synth(work, capsys)
        code, out, _ = run(["check", rule_path], capsys)
        holds = {
            r["axiom"]: r["holds"] for r in json.loads(out)["payload"]["reports"]
        }
        assert code == 1
        assert holds["choice-axiom"] and holds["warp"]
        assert not holds["positivity"] and not holds["full-support"]
        code, _, _ = run(["check", rule_path, "--axioms", EQUIVALENTS_CSV], capsys)
        assert code == 0

    def test_violating_rule_exits_one_with_witnesses(self, work, capsys):
        code, out, _ = run(["check", work["bad_rule"]], capsys)
        doc = json.loads(out)
        assert code == 1
        ca = doc["payload"]["reports"][0]
        assert ca["axiom"] == "choice-axiom" and not ca["holds"]
        assert ca["witnesses"][0]["sets"] == [["a", "b"], ["a", "b", "c"]]

    def test_axioms_filter_and_unknown_axiom(self, work, capsys):
        code, out, _ = run(
            ["check", work["bad_rule"], "--axioms", "positivity,full-support"], capsys
        )
        assert code == 0 and len(json.loads(out)["payload"]["reports"]) == 2
        code, _, err = run(["check", work["bad_rule"], "--axioms", "nope"], capsys)
        assert code == 2 and "unknown axiom" in err

    def test_mode_coercion(self, work, capsys):
        rule_path = synth(work, capsys)
        code, out, _ = run(
            ["check", rule_path, "--mode", "float", "--eps", "1e-7"], capsys
        )
        assert json.loads(out)["payload"]["mode"] == "float"
        float_path = work["dir"] / "float_rule.json"
        code, _, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", "all",
             "--mode", "float", "--out", float_path],
            capsys,
        )
        assert code == 0
        code, _, err = run(["check", float_path, "--mode", "exact"], capsys)
        assert code == 2 and "promoted" in err

    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("mode", [None, "exact", "float"])
    def test_bad_eps_is_usage_error(self, work, capsys, eps, mode):
        argv = ["check", synth(work, capsys), f"--eps={eps}"]
        if mode:
            argv += ["--mode", mode]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("lucekit: bad --eps") and err.count("\n") == 1

    def test_missing_file_is_usage_error(self, work, capsys):
        code, _, err = run(["check", work["dir"] / "absent.json"], capsys)
        assert code == 2 and "cannot read" in err

    def test_non_finite_probability_is_usage_error(self, work, capsys):
        rule = RandomChoiceRule(
            ChoiceFamily(Universe("ab"), [ChoiceSet("ab")]),
            {ChoiceSet("ab"): {"a": 0.5, "b": 0.5}},
            mode="float",
        )
        path = work["dir"] / "nan_rule.json"
        path.write_text(dumps_document(rule).replace('"b": 0.5', '"b": NaN'))
        code, out, err = run(["check", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith("lucekit: ") and err.count("\n") == 1

    def test_wrong_kind_is_usage_error(self, work, capsys):
        code, _, err = run(["check", work["weights"]], capsys)
        assert code == 2 and "not a rule document" in err


class TestDecompose:
    def test_good_rule_emits_decomposition(self, work, capsys):
        rule_path = synth(work, capsys)
        code, out, _ = run(["decompose", rule_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "decomposition"
        assert doc["payload"]["classes"] == [["a", "b"], ["c"]]
        assert doc["payload"]["v"] == {"a": "1", "b": "1/2", "c": "1"}

    def test_violating_rule_emits_error_document_with_witness(self, work, capsys):
        code, out, _ = run(["decompose", work["bad_rule"]], capsys)
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["type"] == "error"
        assert payload["error"] == "choice-axiom"
        w = payload["report"]["witnesses"][0]
        assert w["sets"] == [["a", "b"], ["a", "b", "c"]]
        assert (w["lhs"], w["rhs"]) == ("1/2", "2/5")

    @pytest.mark.parametrize("table, error, message", [
        (
            {"ab": {"a": 1, "b": 0}, "cd": {"c": 1, "d": 0}},
            "missing-pairs",
            "revealed order needs every pair in the family",
        ),
        (
            {"ab": {"a": 1, "b": 0}, "bc": {"b": 1, "c": 0}, "ac": {"a": 0, "c": 1}},
            "not-rational",
            "binary supports are not consistent with any weak order (first mismatch at {a,b})",
        ),
    ])
    def test_refusal_after_the_choice_axiom_holds(self, tmp_path, capsys, table, error, message):
        rows = {ChoiceSet(members): row for members, row in table.items()}
        family = ChoiceFamily(Universe(sorted(set("".join(table)))), rows)
        path = tmp_path / "rule.json"
        write_document(str(path), RandomChoiceRule(family, rows))
        code, out, err = run(["decompose", path], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out)["payload"] == {"type": "error", "error": error, "message": message}

    def test_float_odds_past_the_float_range_is_an_error_document(self, tmp_path, capsys):
        path = tmp_path / "rule.json"
        write_document(str(path), denormal_pair_rule())
        code, out, err = run(["decompose", path], capsys)
        assert (code, err) == (1, "")
        payload = json.loads(out)["payload"]
        assert (payload["type"], payload["error"]) == ("error", "degenerate-odds")
        assert payload["message"].startswith("odds of 'b' against its class representative 'a'")
        fresh = subprocess.run(
            [sys.executable, "-m", "lucekit.cli", "decompose", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert "Traceback" not in fresh.stderr
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (1, out, "")


class TestSynthesize:
    def test_from_utility_argmax(self, work, capsys):
        out_path = work["dir"] / "via_util.json"
        code, _, _ = run(
            ["synthesize", "--weights", work["weights"], "--utility", work["utility"],
             "--family", "all", "--out", out_path],
            capsys,
        )
        assert code == 0
        rule = loads_document(out_path.read_text())
        assert rule.p("c", ChoiceSet("abc")) == 0
        assert rule.p("a", ChoiceSet("abc")) == Fraction(2, 3)

    def test_pairs_family_on_two_labels(self, tmp_path, capsys):
        # The one pair is the whole universe; every command that reads
        # --family pairs writes its document.
        u = Universe("ab")
        weights, utility = tmp_path / "weights.json", tmp_path / "utility.json"
        write_document(str(weights), LuceWeights.from_v(u, {"a": Fraction(2), "b": Fraction(1)}))
        write_document(str(utility), {"a": 1.0, "b": 0.0}, kind="utility")
        calls = {
            "limit": ["limit", "--utility", utility, "--weights", weights],
            "simulate": ["simulate", "--weights", weights, "--draws", "5"],
            "synthesize": ["synthesize", "--weights", weights, "--utility", utility],
        }
        for name, argv in calls.items():
            out_path = tmp_path / f"{name}.json"
            code, out, err = run([*argv, "--family", "pairs", "--out", out_path], capsys)
            assert (code, out, err) == (0, "", "")
            assert out_path.exists()
        assert loads_document((tmp_path / "synthesize.json").read_text()).family.sets == (
            ChoiceSet("ab"),
        )

    def test_family_variants(self, work, capsys):
        code, out, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", "pairs"], capsys
        )
        assert code == 0
        rule = loads_document(out)
        assert len(rule.family) == 4  # three pairs plus the full set

        fam_file = work["dir"] / "family.json"
        fam_file.write_text(json.dumps([["a", "b"], ["a"], ["b"], ["c"]]))
        code, out, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", fam_file], capsys
        )
        assert code == 0 and len(loads_document(out).family) == 4

        # A document holding a family works too.
        rule_path = synth(work, capsys)
        code, _, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", rule_path], capsys
        )
        assert code == 0

    def test_non_warp_gamma_is_semantic_failure(self, work, capsys):
        u = Universe("abc")
        fam = ChoiceFamily.of_all_subsets(u)
        table = {A: A for A in fam}
        table[ChoiceSet("ab")] = ChoiceSet("a")
        from lucekit import ChoiceCorrespondence

        bad_gamma = work["dir"] / "bad_gamma.json"
        write_document(str(bad_gamma), ChoiceCorrespondence(fam, table))
        code, out, _ = run(
            ["synthesize", "--weights", work["weights"], "--gamma", bad_gamma], capsys
        )
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["error"] == "not-rational"
        assert payload["report"]["witnesses"]

    def test_byte_identical_output(self, work, capsys):
        code1, out1, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", "all"], capsys
        )
        code2, out2, _ = run(
            ["synthesize", "--weights", work["weights"], "--family", "all"], capsys
        )
        assert code1 == code2 == 0 and out1 == out2


class TestSimulateAndFit:
    def test_pipeline_recovers_weights(self, work, capsys):
        data_path = work["dir"] / "data.json"
        code, _, err = run(
            ["simulate", "--sampler", "gumbel", "--weights", work["weights"],
             "--draws", "8000", "--seed", "11", "--out", data_path],
            capsys,
        )
        assert code == 0, err
        code, out, _ = run(["fit", data_path], capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["converged"] is True
        # True gap: alpha_a - alpha_b = ln 2.
        gap = payload["alpha_hat"]["a"] - payload["alpha_hat"]["b"]
        assert abs(gap - math.log(2)) < 0.1

    def test_simulate_is_seed_deterministic(self, work, capsys):
        args = ["simulate", "--sampler", "gumbel", "--weights", work["weights"],
                "--draws", "300", "--seed", "4"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        _, out3, _ = run(args[:-1] + ["5"], capsys)
        assert out3 != out1

    def test_lex_and_independent_need_utility(self, work, capsys):
        for sampler in ("independent", "lex"):
            code, _, err = run(
                ["simulate", "--sampler", sampler, "--weights", work["weights"],
                 "--draws", "10", "--seed", "0"],
                capsys,
            )
            assert code == 2 and "--utility" in err

    def test_lex_sampler_respects_utility_order(self, work, capsys):
        data_path = work["dir"] / "lex.json"
        code, _, _ = run(
            ["simulate", "--sampler", "lex", "--weights", work["weights"],
             "--utility", work["utility"], "--draws", "500", "--seed", "2",
             "--out", data_path],
            capsys,
        )
        assert code == 0
        data = loads_document(data_path.read_text())
        assert data.observations[ChoiceSet("abc")]["c"] == 0

    def test_draws_must_be_positive(self, work, capsys):
        code, _, _ = run(
            ["simulate", "--sampler", "gumbel", "--weights", work["weights"],
             "--draws", "0", "--seed", "0"],
            capsys,
        )
        assert code == 2

    def test_fit_blocked_by_warp_exits_one(self, work, capsys):
        cyc = work["dir"] / "cyclic.json"
        doc = {
            "kind": "dataset",
            "version": "1",
            "payload": {
                "universe": ["a", "b", "c"],
                "observations": [
                    {"set": ["a", "b"], "counts": {"a": 10, "b": 0}},
                    {"set": ["a", "b", "c"], "counts": {"a": 5, "b": 5, "c": 5}},
                ],
            },
        }
        cyc.write_text(json.dumps(doc))
        code, out, _ = run(["fit", cyc], capsys)
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["alpha_hat"] is None
        assert payload["warp_report"]["holds"] is False


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1e308"])
    def test_fit_bad_pseudo_count_exits_two(self, work, capsys, value):
        data_path = work["dir"] / "data.json"
        data_path.write_text(json.dumps({
            "kind": "dataset",
            "version": "1",
            "payload": {
                "universe": ["a", "b"],
                "observations": [{"set": ["a", "b"], "counts": {"a": 30, "b": 10}}],
            },
        }))
        code, out, err = run(["fit", data_path, f"--pseudo-count={value}"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("lucekit: ") and err.count("\n") == 1 and "pseudo-count" in err
        code, out, _ = run(["fit", data_path, "--pseudo-count=0.5"], capsys)
        assert code == 0
        assert json.loads(out)["payload"]["stop_reason"] == "ll-tol"

    @pytest.mark.parametrize("name", sorted(OVERSIZED_COUNTS))
    def test_fit_oversized_counts_do_not_blame_the_flag(self, work, capsys, name):
        code, out, err = run(["fit", _counts_file(work, name)], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("lucekit: choice counts") and "--pseudo-count" not in err


class TestLimit:
    def test_converged_schedule_exits_zero(self, work, capsys):
        code, out, _ = run(
            ["limit", "--utility", work["utility"], "--weights", work["weights"],
             "--schedule", "1,0.5,0.1,0.05"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["converged"] is True
        assert payload["final_distance"] <= 1e-6

    def test_coarse_schedule_exits_one(self, work, capsys):
        code, out, _ = run(
            ["limit", "--utility", work["utility"], "--weights", work["weights"],
             "--schedule", "1,0.9"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["payload"]["converged"] is False

    def test_bad_schedule_is_usage_error(self, work, capsys):
        for schedule in ("1,2", "x", "-1,0.5"):
            code, _, _ = run(
                ["limit", "--utility", work["utility"], "--weights", work["weights"],
                 "--schedule", schedule],
                capsys,
            )
            assert code == 2, schedule

    @pytest.mark.parametrize("schedule", ["inf,1,0.5", "1,1e-320"])
    def test_infinite_or_overflowing_lambda_is_usage_error(self, work, capsys, schedule):
        code, out, err = run(
            ["limit", "--utility", work["utility"], "--weights", work["weights"],
             "--schedule", schedule],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("lucekit: ") and err.count("\n") == 1 and "λ" in err


def _broken_file(work, name):
    path = work["dir"] / f"{name}.json"
    path.write_text(json.dumps(broken_document(name)))
    return path


def _report_file(work):
    path = work["dir"] / "fit_report.json"
    path.write_text(json.dumps(VALID["fit-report"]))
    return path


def _short_utility(work):
    path = work["dir"] / "short_utility.json"
    write_document(str(path), {"a": 1.0, "b": 0.0}, kind="utility")
    return path


def _other_gamma(work):
    u = Universe("ab")
    path = work["dir"] / "other_gamma.json"
    gamma = correspondence_from_order(WeakOrder.trivial(u), ChoiceFamily.of_all_subsets(u))
    write_document(str(path), gamma)
    return path


def _counts_file(work, name):
    path = work["dir"] / f"{name}.json"
    observations = [{"set": ["a", "b"], "counts": OVERSIZED_COUNTS[name]}]
    path.write_text(json.dumps({
        "kind": "dataset",
        "version": "1",
        "payload": {"universe": ["a", "b"], "observations": observations},
    }))
    return path


def _binary_file(work):
    path = work["dir"] / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    return path


def _synth_family(name):
    return lambda w: ["synthesize", "--weights", w["weights"], "--family", _broken_file(w, name)]


def _limit_tolerance(value):
    return lambda w: ["limit", "--utility", w["utility"], "--weights", w["weights"],
                      f"--tolerance={value}"]


# Inputs that used to end in a traceback: argv builder and a word the
# one-line message must hold.
MALFORMED_INPUTS = {
    "rule-row": (lambda w: ["check", _broken_file(w, "rule-row")], "rule table"),
    "correspondence-row": (
        lambda w: ["synthesize", "--weights", w["weights"], "--gamma",
                   _broken_file(w, "correspondence-row")],
        "correspondence table",
    ),
    "dataset-row": (lambda w: ["fit", _broken_file(w, "dataset-row")], "dataset observations"),
    "axioms-reports": (_synth_family("axioms-reports"), "'reports'"),
    "decomposition-classes": (_synth_family("decomposition-classes"), "decomposition class"),
    "fit-alpha-list": (_synth_family("fit-alpha-list"), "alpha_hat"),
    "fit-no-converged": (_synth_family("fit-no-converged"), "converged"),
    "weights-huge-int": (
        lambda w: ["simulate", "--weights", _broken_file(w, "weights-huge-int"), "--draws", "5"],
        "weight for 'a'",
    ),
    "negative-seed": (
        lambda w: ["simulate", "--weights", w["weights"], "--draws", "5", "--seed", "-1"],
        "--seed",
    ),
    "independent-short-utility": (
        lambda w: ["simulate", "--sampler", "independent", "--weights", w["weights"],
                   "--utility", _short_utility(w), "--draws", "5"],
        "utility",
    ),
    "synthesize-short-utility": (
        lambda w: ["synthesize", "--weights", w["weights"], "--utility", _short_utility(w)],
        "utility",
    ),
    "synthesize-other-universe": (
        lambda w: ["synthesize", "--weights", w["weights"], "--gamma", _other_gamma(w)],
        "universe",
    ),
    "undecodable-file": (lambda w: ["check", _binary_file(w)], "cannot read"),
    "rule-huge-exponent": (lambda w: ["check", _broken_file(w, "rule-huge-exponent")], "exponent"),
    "synthesize-report-as-utility": (
        lambda w: ["synthesize", "--weights", w["weights"], "--utility", _report_file(w)],
        "is not a utility document",
    ),
    "simulate-report-as-utility": (
        lambda w: ["simulate", "--sampler", "lex", "--weights", w["weights"],
                   "--utility", _report_file(w), "--draws", "5"],
        "is not a utility document",
    ),
    "limit-report-as-utility": (
        lambda w: ["limit", "--utility", _report_file(w), "--weights", w["weights"]],
        "is not a utility document",
    ),
    "tolerance-negative": (_limit_tolerance("-1"), "tolerance"),
    "tolerance-nan": (_limit_tolerance("nan"), "tolerance"),
    "tolerance-inf": (_limit_tolerance("inf"), "tolerance"),
    **{
        f"fit-{name}": (lambda w, name=name: ["fit", _counts_file(w, name)], "choice counts")
        for name in OVERSIZED_COUNTS
    },
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_two_with_one_line(self, work, capsys, case):
        argv, word = MALFORMED_INPUTS[case]
        code, out, err = run(argv(work), capsys)
        assert code == 2 and out == ""
        assert err.startswith("lucekit: ") and err.count("\n") == 1 and word in err

    def test_subprocess_never_shows_a_traceback(self, work):
        # Every case above, each kind of document the CLI reads among them, in a
        # fresh process.
        calls = [argv(work) for argv, _ in MALFORMED_INPUTS.values()]
        argvs = json.dumps([[str(a) for a in argv] for argv in calls])
        code = (
            "import json, sys; from lucekit.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", code, argvs],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert "Traceback" not in out.stderr
        assert out.returncode == 0 and json.loads(out.stdout) == [2] * len(calls)
        assert out.stderr.count("lucekit: ") == len(calls)


def _document(kind, payload):
    return {"kind": kind, "version": "1", "payload": payload}


_PAIR_ROW = {"set": ["a", "b"], "p": {"a": "1/2", "b": "1/2"}}


def _dataset_document(observations):
    return _document("dataset", {"universe": ["a", "b", "c"], "observations": observations})


# Refusals of documents the CLI reads: the document, the command that reads
# it (given the shared documents and the document's path) and the message.
REFUSALS = {
    "duplicate-row": (
        _document("rule", {"universe": ["a", "b"], "mode": "exact", "table": [_PAIR_ROW, _PAIR_ROW]}),
        lambda w, path: ["check", path],
        "duplicate row for {a,b}",
    ),
    "float-cell-in-exact-rule": (
        _document("rule", {"universe": ["a", "b"], "mode": "exact",
                           "table": [{"set": ["a", "b"], "p": {"a": 0.5, "b": "1/2"}}]}),
        lambda w, path: ["check", path],
        "exact rule has non-rational entry at ('a', {a,b})",
    ),
    "empty-utility": (
        _document("utility", {"u": {}}),
        lambda w, path: ["synthesize", "--weights", w["weights"], "--utility", path],
        "utility payload needs a nonempty 'u' mapping",
    ),
    "chosen-outside-its-set": (
        _document("correspondence", {"universe": ["a", "b", "c"],
                                     "table": [{"set": ["a", "b"], "chosen": ["c"]}]}),
        lambda w, path: ["synthesize", "--weights", w["weights"], "--gamma", path],
        "chosen set {c} not contained in {a,b}",
    ),
    "empty-dataset": (
        _dataset_document([]),
        lambda w, path: ["fit", path],
        "dataset must contain at least one observed set",
    ),
    "label-outside-the-universe": (
        _dataset_document([{"set": ["a", "z"], "counts": {"a": 1}}]),
        lambda w, path: ["fit", path],
        "{a,z} contains 'z', not in the universe",
    ),
    "true-count": (
        _dataset_document([{"set": ["a", "b"], "counts": {"a": True, "b": 1}}]),
        lambda w, path: ["fit", path],
        "count for 'a' in {a,b} must be an integer",
    ),
}


class TestErrorDocuments:
    def test_every_error_takes_its_report_by_keyword(self):
        report = check_choice_axiom(bad_rule())
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, LucekitError)]
        assert len(classes) == 11
        for cls in classes:
            bare, carrying = cls("refused"), cls("refused", report=report)
            assert bare.report is None and carrying.report is report
            assert bare.args == carrying.args == ("refused",)
            assert str(bare) == str(carrying) == "refused"
            assert "__init__" not in vars(cls) or cls is LucekitError
        assert _error_slug(errors.NotRationalError("refused")) == "not-rational"
        assert _error_slug(errors.CountsOffSupportError("refused")) == "counts-off-support"


class TestRefusalTexts:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_document_error_and_one_line_exit_two(self, work, capsys, case):
        doc, argv, message = REFUSALS[case]
        with pytest.raises(DocumentError) as exc:
            from_document(doc)
        assert str(exc.value) == message
        path = work["dir"] / f"{case}.json"
        path.write_text(json.dumps(doc))
        assert run(argv(work, path), capsys) == (2, "", f"lucekit: {message}\n")


class TestEncodeErrors:
    @pytest.mark.parametrize("exc", [ValueError, TypeError])
    def test_encoder_failure_exits_two_without_output_file(
        self, work, capsys, monkeypatch, exc
    ):
        def refuse(obj, kind=None):
            raise exc("Out of range float values are not JSON compliant")

        monkeypatch.setattr("lucekit.cli.dumps_document", refuse)
        out_path = work["dir"] / "rule.json"
        code, out, err = run(
            ["synthesize", "--weights", work["weights"], "--gamma", work["gamma"],
             "--out", out_path],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("lucekit: cannot encode") and err.count("\n") == 1
        assert not out_path.exists()


class TestValueErrorBoundary:
    # A ValueError from any callee of a command ends in main: exit 2, one line.
    @pytest.mark.parametrize("command, callee", [
        ("check", "_run_checkers"), ("decompose", "check_choice_axiom")])
    def test_a_value_error_exits_two_with_one_line(self, work, capsys, monkeypatch, command, callee):
        def refuse(*args, **kwargs):
            raise ValueError("the callee refused its arguments")

        monkeypatch.setattr(sys.modules["lucekit.cli"], callee, refuse)
        code, out, err = run([command, work["bad_rule"]], capsys)
        assert (code, out, err) == (2, "", "lucekit: the callee refused its arguments\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_entry_point_subprocess(self, work):
        out = subprocess.run(
            [sys.executable, "-m", "lucekit.cli", "check", str(work["bad_rule"])],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 1
        assert json.loads(out.stdout)["payload"]["all_hold"] is False


# Flag values: well-formed numbers of every size and sign, non-finite
# spellings, and short junk.
_JUNK = st.sampled_from(
    ["", " ", "x", "1.5", "1e3", "nan", "inf", "-inf", "0x10", "1_0", "--", "\x00", "a\nb"]
) | st.text(max_size=4)
_INTS = st.integers(-(10**30), 10**30).map(str) | _JUNK
_FLOATS = (
    st.sampled_from(["1", "0.5", "2", "1e-300", "5e-324", "1e300"])
    | (st.floats() | st.integers(-(10**400), 10**400)).map(repr)
    | _INTS
)
# --draws stays small when it parses: the property is about refusal, not load.
_DRAWS = st.integers(-3, 200).map(str) | _JUNK
_AXIOMS = st.lists(st.sampled_from(EQUIVALENTS_CSV.split(",") + ["positivity", "nope", ""]), max_size=3)
_MODES = st.sampled_from(["exact", "float", "EXACT", ""])


@pytest.fixture(scope="class")
def flag_inputs(tmp_path_factory):
    """Documents and family files shared by every example of the flag property."""
    root = tmp_path_factory.mktemp("flags")
    u = Universe("abc")
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(3)})
    order = WeakOrder.from_classes(u, [["a", "b"], ["c"]])
    gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
    docs = {
        "weights": (w, None),
        "gamma": (gamma, None),
        "utility": ({"a": 1.0, "b": 1.0, "c": 0.0}, "utility"),
        "rule": (general_luce_rule(gamma, w), None),
        "bad_rule": (bad_rule(), None),
        "float_rule": (general_luce_rule(gamma, w).as_float(), None),
        "dataset": (ChoiceDataset(u, {ChoiceSet("abc"): {"a": 3, "b": 1, "c": 0},
                                      ChoiceSet("ab"): {"a": 2, "b": 2}}), None),
    }
    paths = {}
    for name, (obj, kind) in docs.items():
        paths[name] = root / f"{name}.json"
        write_document(str(paths[name]), obj, kind=kind)
    paths["family"] = root / "family.json"
    paths["family"].write_text(json.dumps([["a", "b"], ["a", "b", "c"], ["c"]]))
    return {k: str(v) for k, v in paths.items()}


def _families(paths):
    return st.sampled_from(
        ["all", "pairs", paths["family"], paths["weights"], paths["dataset"], paths["rule"],
         paths["family"] + ".missing"]
    ) | _JUNK


@st.composite
def _cli_calls(draw, paths):
    """A subcommand with a random pick of its flags, each given as --flag=value."""
    def flags(**options):
        out = []
        for name, values in options.items():
            if draw(st.booleans()):
                out.append(f"--{name}={draw(values)}")
        return out

    command = draw(st.sampled_from(["check", "decompose", "synthesize", "simulate", "fit", "limit"]))
    rule = draw(st.sampled_from([paths["rule"], paths["bad_rule"], paths["float_rule"]]))
    if command == "check":
        return ["check", rule] + flags(axioms=_AXIOMS.map(",".join), mode=_MODES, eps=_FLOATS)
    if command == "decompose":
        return ["decompose", rule]
    if command == "synthesize":
        source = draw(st.sampled_from([[], ["--gamma", paths["gamma"]], ["--utility", paths["utility"]]]))
        return ["synthesize", "--weights", paths["weights"], *source] + flags(
            family=_families(paths), mode=_MODES
        )
    if command == "simulate":
        sampler = draw(st.sampled_from(["gumbel", "independent", "lex", "logit"]))
        return ["simulate", f"--sampler={sampler}", "--weights", paths["weights"],
                "--utility", paths["utility"], f"--draws={draw(_DRAWS)}"] + flags(
            seed=_INTS, family=_families(paths)
        )
    if command == "fit":
        return ["fit", paths["dataset"]] + flags(**{"pseudo-count": _FLOATS})
    schedule = st.lists(_FLOATS, max_size=4).map(",".join)
    return ["limit", "--utility", paths["utility"], "--weights", paths["weights"]] + flags(
        schedule=schedule, tolerance=_FLOATS, family=_families(paths)
    )


class TestFlagProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_flag_values_exit_cleanly(self, flag_inputs, data):
        argv = data.draw(_cli_calls(flag_inputs), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == "" and err.startswith("lucekit: ") and err.count("\n") == 1, err
        else:
            assert code in (0, 1), (code, err)
            if code == 0:
                loads_document(out)


# Float cells and tolerances from the edges of the float range: denormals,
# 1e-300 and ordinary values.
_EDGE_FLOATS = st.sampled_from([0.0, 5e-324, 1e-320, 1e-318, 1e-310, 1e-300, 1e-9, 0.25, 0.5, 1.0])


@st.composite
def _float_rule_documents(draw):
    """A float rule document on every subset of 2-3 labels; each row's last cell
    takes what the others leave of 1, so most rows are valid."""
    labels = "abc"[:draw(st.integers(2, 3))]
    table = []
    for A in Universe(labels).subsets():
        cells = [draw(_EDGE_FLOATS) for _ in A.members[1:]]
        cells.insert(draw(st.integers(0, len(cells))), 1.0 - sum(cells))
        table.append({"set": list(A.members), "p": dict(zip(A.members, cells))})
    return {"kind": "rule", "version": "1", "payload": {
        "eps": draw(st.sampled_from([5e-324, 1e-320, 1e-300, 1e-9, 1e-3])),
        "mode": "float",
        "table": table,
        "universe": list(labels),
    }}


class TestFloatEdgeProperty:
    @settings(max_examples=150, deadline=None)
    @given(doc=_float_rule_documents())
    def test_denormal_cells_exit_cleanly(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("edge") / "rule.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "decompose"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            err = err.getvalue()
            assert code in (0, 1, 2), (command, code, err)
            if code == 2 or err:
                assert err.startswith("lucekit: ") and err.count("\n") == 1, (command, err)


@pytest.fixture(scope="class")
def hostile_inputs(tmp_path_factory):
    """Valid documents of every kind the CLI reads, and a path for each edited copy."""
    root = tmp_path_factory.mktemp("hostile")
    u = Universe("ab")
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 2)})
    gamma = correspondence_from_order(WeakOrder.from_classes(u, [["a"], ["b"]]),
                                      ChoiceFamily.of_all_subsets(u))
    values = {
        "rule": (general_luce_rule(gamma, w), None),
        "float-rule": (luce_rule(w, ChoiceFamily.of_all_subsets(u)).as_float(), None),
        "correspondence": (gamma, None),
        "weights": (w, None),
        "float-weights": (LuceWeights.from_alpha(u, {"a": 0.0, "b": -1.5}), None),
        "utility": ({"a": 1.0, "b": 0.0}, "utility"),
        "dataset": (ChoiceDataset(u, {ChoiceSet("ab"): {"a": 3, "b": 1},
                                      ChoiceSet("a"): {"a": 2}}), None),
    }
    docs = {name: json.loads(dumps_document(obj, kind=kind)) for name, (obj, kind) in values.items()}
    paths = {"edited": str(root / "edited.json")}
    for name in ("weights", "utility"):
        paths[name] = str(root / f"{name}.json")
        obj, kind = values[name]
        write_document(paths[name], obj, kind=kind)
    # One parser for every call: building it is most of an in-process call on
    # documents this small, and parsing leaves it as it was.
    build = cli._build_parser
    cli._build_parser = functools.cache(build)
    yield docs, paths
    cli._build_parser = build


def _readers(kind, path, paths):
    """Every command that reads a document of ``kind``, given at ``path``."""
    weights, utility = paths["weights"], paths["utility"]
    if kind in ("rule", "float-rule"):
        return [["check", path], ["decompose", path]]
    if kind == "correspondence":
        return [["synthesize", "--weights", weights, "--gamma", path]]
    if kind in ("weights", "float-weights"):
        return [["synthesize", "--weights", path], ["simulate", "--weights", path, "--draws", "3"],
                ["limit", "--utility", utility, "--weights", path, "--schedule", "1,0.5"]]
    if kind == "utility":
        return [["synthesize", "--weights", weights, "--utility", path]] + [
            ["simulate", f"--sampler={s}", "--weights", weights, "--utility", path, "--draws", "3"]
            for s in ("independent", "lex")
        ] + [["limit", "--utility", path, "--weights", weights, "--schedule", "1,0.5"]]
    return [["fit", path]]


_HOSTILE_KEYS = st.sampled_from(["", "é", "1e400", "nan", "set", "p", "v", "u"]) | st.text(max_size=3)
_HOSTILE_VALUES = st.sampled_from([
    "1e400", "-1e400", "1e-400", "nan", "inf", "1/0", "-1/2", "", "é", "1" * 5000, 10**400, -(10**400),
    1e308, -1.0, 0, 0.0, True, None, [], {}, ["a"], "1/2", 0.5,
]) | _JSON


class TestHostileDocuments:
    # One leaf or key of a valid document replaced by a hostile value (huge or
    # non-finite numbers, bad rational strings, wrong JSON types), read by
    # every command that reads its kind: exit 0, 1 or 2, and exit 2 with an
    # empty stdout and one "lucekit:" line.
    @pytest.mark.parametrize("kind", ["rule", "float-rule", "correspondence", "weights",
                                      "float-weights", "utility", "dataset"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_reader_exits_cleanly(self, hostile_inputs, kind, data):
        docs, paths = hostile_inputs
        doc = copy.deepcopy(docs[kind])
        if data.draw(st.booleans(), label="replace a key"):
            path, key = data.draw(st.sampled_from(
                [(p, k) for p, node in _nodes(doc) if isinstance(node, dict) for k in node]))
            parent = _edit(doc, (), doc)
            for step in path:
                parent = parent[step]
            parent[data.draw(_HOSTILE_KEYS)] = parent.pop(key)
        else:
            leaves = [p for p, node in _nodes(doc) if p and not isinstance(node, (dict, list))]
            _edit(doc, data.draw(st.sampled_from(leaves)), data.draw(_HOSTILE_VALUES))
        Path(paths["edited"]).write_text(json.dumps(doc))
        for argv in _readers(kind, paths["edited"], paths):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2), (argv, code, err)
            if code == 2:
                assert out == "" and err.startswith("lucekit: ") and err.count("\n") == 1, (argv, err)
