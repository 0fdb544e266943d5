"""The import boundary: the exact side of lucekit never loads numpy, nor
does checking WARP or positivity alone on a float rule, and ``check`` runs
neither ``lucekit.decompose`` nor ``lucekit.estimate``.

Each check runs in a fresh interpreter (``PYTHONPATH=src``), since the test
process itself has numpy loaded long before any of these tests run.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lucekit
from lucekit import (
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    LuceWeights,
    Universe,
    WeakOrder,
    correspondence_from_order,
    write_document,
)
from lucekit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs main() on each argv in sys.argv[1] (a JSON list), then prints the exit
# codes, the captured stdout of each call, and whether numpy got loaded.
_RUN_MAIN = """
import contextlib, io, json, sys
from lucekit.cli import main
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    outs.append(out.getvalue())
print(json.dumps({"codes": codes, "outs": outs, "numpy": "numpy" in sys.modules}))
"""


def _python(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_main(calls: list[list[str]]) -> dict:
    return json.loads(_python(_RUN_MAIN, json.dumps(calls)))


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def exact_inputs(tmp_path):
    u = Universe("abcd")
    w = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 3), "c": Fraction(2), "d": Fraction(5, 2)})
    order = WeakOrder.from_classes(u, [["a", "b"], ["c", "d"]])
    gamma = correspondence_from_order(order, ChoiceFamily.of_all_subsets(u))
    data = ChoiceDataset(u, {ChoiceSet("abcd"): {"a": 4, "b": 2, "c": 0, "d": 0},
                             ChoiceSet("ab"): {"a": 3, "b": 1}})
    paths = {name: str(tmp_path / f"{name}.json") for name in ("w", "g", "u", "data", "rule")}
    write_document(paths["w"], w)
    write_document(paths["g"], gamma)
    write_document(paths["u"], {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0}, kind="utility")
    write_document(paths["data"], data)
    return paths


class TestNoNumpyOnTheExactSide:
    def test_import_lucekit(self):
        out = _python("import sys, lucekit; print('numpy' in sys.modules)")
        assert out.strip() == "False"

    def test_exact_commands(self, exact_inputs):
        p = exact_inputs
        calls = [
            ["synthesize", "--weights", p["w"], "--gamma", p["g"], "--out", p["rule"]],
            ["check", p["rule"]],
            ["check", p["rule"], "--mode", "exact", "--axioms", "choice-axiom,warp"],
            ["decompose", p["rule"]],
            ["synthesize", "--weights", p["w"], "--utility", p["u"], "--family", "pairs"],
            ["limit", "--utility", p["u"], "--weights", p["w"]],
        ]
        result = _run_main(calls)
        # check exits 1: the selective rule fails positivity and full support.
        assert result["codes"] == [0, 1, 0, 0, 0, 0]
        assert result["numpy"] is False
        # The same calls in this process, numpy loaded, write the same bytes.
        assert [_in_process(argv)[1] for argv in calls[1:]] == result["outs"][1:]

    def test_float_warp_and_positivity(self, tmp_path):
        # The float checkers' arrays are built from the pair walk only when a
        # checker needs them; WARP reads the walk alone.
        u = Universe("abcde")
        w = LuceWeights.from_v(u, {a: Fraction(i + 1, 3) for i, a in enumerate(u)})
        path = str(tmp_path / "rule.json")
        write_document(path, lucekit.luce_rule(w, ChoiceFamily.of_all_subsets(u)).as_float())
        argv = ["check", path, "--axioms", "warp,positivity"]
        result = _run_main([argv])
        assert result["codes"] == [0]
        assert result["numpy"] is False
        assert result["outs"] == [_in_process(argv)[1]]


class TestCheckRunsOnlyWhatItNeeds:
    # Runs main() on sys.argv[1:] and prints whether lucekit.decompose and
    # lucekit.estimate ran: a module whose code ran is a plain module.
    _CODE = (
        "import contextlib, io, json, sys, types\n"
        "from lucekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "ran = [type(sys.modules.get(m)) is types.ModuleType\n"
        "       for m in ('lucekit.decompose', 'lucekit.estimate')]\n"
        "print(json.dumps([code, ran]))"
    )

    @pytest.mark.parametrize("extra", [[], ["--mode", "float"]])
    def test_check_runs_neither_decompose_nor_estimate(self, exact_inputs, extra):
        p = exact_inputs
        assert main(["synthesize", "--weights", p["w"], "--gamma", p["g"], "--out", p["rule"]]) == 0
        assert json.loads(_python(self._CODE, "check", p["rule"], *extra)) == [1, [False, False]]
        # The control: decompose and fit run their modules.
        assert json.loads(_python(self._CODE, "decompose", p["rule"]))[1] == [True, False]
        assert json.loads(_python(self._CODE, "fit", p["data"]))[1] == [False, True]

    def test_the_lazy_names_are_the_modules_own(self):
        code = (
            "import lucekit, sys\n"
            "import lucekit.decompose\n"
            "from lucekit.estimate import fit\n"
            "mod = sys.modules['lucekit.decompose']\n"
            "print(lucekit.decompose is mod.decompose, lucekit.fit is fit,"
            " lucekit.estimate is sys.modules['lucekit.estimate'])"
        )
        assert _python(code).split() == ["True", "True", "True"]


class TestNumpyPathsStillWork:
    def test_lazy_names_resolve_to_their_modules(self):
        code = (
            "import sys, lucekit\n"
            "before = 'numpy' in sys.modules\n"
            "from lucekit.rum import GumbelLuceSampler\n"
            "from lucekit._kernels import backend_name\n"
            "print(before, lucekit.GumbelLuceSampler is GumbelLuceSampler,"
            " lucekit.backend_name is backend_name, 'numpy' in sys.modules)"
        )
        assert _python(code).split() == ["False", "True", "True", "True"]

    def test_lazy_module_attributes(self):
        code = "import lucekit; print(lucekit.rum.__name__, lucekit._kernels.backend_name())"
        assert _python(code).split() == ["lucekit.rum", "numpy"]

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lucekit.no_such_name

    def test_numpy_commands_match_the_in_process_bytes(self, exact_inputs):
        p = exact_inputs
        write_document(p["rule"], lucekit.general_luce_rule(
            lucekit.read_document(p["g"]), lucekit.read_document(p["w"])))
        calls = [
            ["simulate", "--sampler", "lex", "--weights", p["w"], "--utility", p["u"],
             "--draws", "300", "--seed", "7"],
            ["fit", p["data"]],
            ["check", p["rule"], "--mode", "float"],
        ]
        result = _run_main(calls)
        assert result["numpy"] is True
        assert result["codes"] == [0, 0, 1]
        assert [_in_process(argv) for argv in calls] == list(zip(result["codes"], result["outs"]))


class TestPublicSurface:
    def test_star_import_and_dir_cover_all(self):
        code = (
            "import json, lucekit\n"
            "names = {}\n"
            "exec('from lucekit import *', names)\n"
            "print(json.dumps({'all': lucekit.__all__, 'star': sorted(names),"
            " 'dir': dir(lucekit)}))"
        )
        out = json.loads(_python(code))
        assert out["all"] == sorted(set(out["all"]))
        assert set(out["all"]) <= set(out["star"]) and set(out["all"]) <= set(out["dir"])

    def test_all_lists_every_public_name(self):
        public = {
            name
            for name, value in vars(lucekit).items()
            if not name.startswith("_") and not isinstance(value, type(lucekit))
        }
        assert public <= set(lucekit.__all__)
        for name in ("EmpiricalRule", "GumbelLuceSampler", "IndependentRumSampler", "LexSampler",
                     "empirical_rule", "lex_compose", "backend_name", "rank_rows", "top_counts"):
            assert name in lucekit.__all__ and getattr(lucekit, name) is not None
