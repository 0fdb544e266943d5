import ast
import importlib
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lucekit._kernels
from lucekit._kernels import rank_rows, top_counts
from lucekit.rum import GumbelLuceSampler, IndependentRumSampler, LexSampler


def _rank_oracle(scores: np.ndarray) -> np.ndarray:
    """Quadratic reference: rank = how many entries strictly beat you, with
    earlier-column wins on ties."""
    n, k = scores.shape
    out = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        for j in range(k):
            r = 0
            for t in range(k):
                if scores[i, t] > scores[i, j] or (
                    scores[i, t] == scores[i, j] and t < j
                ):
                    r += 1
            out[i, j] = r
    return out


class TestRankRows:
    def test_simple(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 5.0]])
        expect = np.array([[0, 2, 1], [1, 2, 0]])
        assert np.array_equal(rank_rows(scores), expect)

    def test_stable_ties_prefer_earlier_column(self):
        scores = np.array([[1.0, 1.0, 1.0]])
        assert np.array_equal(rank_rows(scores), [[0, 1, 2]])

    def test_rows_are_permutations(self):
        rng = np.random.default_rng(0)
        ranks = rank_rows(rng.standard_normal((50, 7)))
        assert np.array_equal(np.sort(ranks, axis=1), np.tile(np.arange(7), (50, 1)))

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.floats(-100, 100).map(lambda x: round(x, 1)),
        )
    )
    def test_matches_oracle(self, scores):
        assert np.array_equal(rank_rows(scores), _rank_oracle(scores))


class TestTopCounts:
    def test_counts_winners(self):
        keys = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
        # winners among columns {0, 2}: rows pick 0, 2, 2
        assert np.array_equal(top_counts(keys[:, [0, 2]]), [1, 2])

    def test_single_member(self):
        keys = np.array([[0.0, 1.0]])
        assert np.array_equal(top_counts(keys[:, [1]]), [1])

    def test_totals_match_draws(self):
        rng = np.random.default_rng(1)
        keys = rng.standard_exponential((200, 3))
        counts = top_counts(keys)
        assert counts.sum() == 200 and counts.dtype == np.int64

    def test_ties_go_to_the_earlier_column(self):
        keys = np.array([[1.0, 1.0, 2.0], [3.0, 0.5, 0.5]])
        assert np.array_equal(top_counts(keys), [1, 1, 0])


class TestBenchmarkHarnessNames:
    """``perfbench/`` imports ``lucekit._kernels`` and wraps these names."""

    def test_kernel_names(self):
        assert lucekit._kernels.backend_name() == "numpy"
        assert callable(lucekit._kernels.rank_rows)
        assert callable(lucekit._kernels.top_counts)

    def test_samplers_define_draw_ranks(self):
        for cls in (GumbelLuceSampler, IndependentRumSampler, LexSampler):
            assert "draw_ranks" in cls.__dict__, cls.__name__

    def test_every_traced_name_resolves(self):
        # A traced benchmark run wraps each (module, attribute or Class.method)
        # of the harness's TARGETS; a renamed one would break it.
        source = (Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text()
        targets = next(
            ast.literal_eval(node.value) for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
        )
        assert targets
        for module_name, attr, _, _ in targets:
            module = importlib.import_module("lucekit." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert callable(vars(getattr(module, cls_name)).get(meth)), (module_name, attr)
            else:
                assert callable(getattr(module, attr, None)), (module_name, attr)
