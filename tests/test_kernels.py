import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lucekit._kernels import (
    HAVE_NUMBA,
    rank_rows,
    rank_rows_np,
    top_counts,
    top_counts_np,
)

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


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
        keys = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=np.int64)
        members = np.array([0, 2], dtype=np.int64)
        # winners among columns {0, 2}: rows pick 0, 2, 2
        assert np.array_equal(top_counts(keys, members), [1, 2])

    def test_single_member(self):
        keys = np.array([[0, 1]], dtype=np.int64)
        assert np.array_equal(top_counts(keys, np.array([1], dtype=np.int64)), [1])

    def test_totals_match_draws(self):
        rng = np.random.default_rng(1)
        keys = rank_rows(rng.standard_normal((200, 5)))
        members = np.array([0, 2, 3], dtype=np.int64)
        counts = top_counts(keys, members)
        assert counts.sum() == 200 and counts.dtype == np.int64


@needs_numba
class TestBackendAgreement:
    def test_rank_rows_including_ties(self):
        from lucekit._kernels import rank_rows_nb

        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 10))
            scores = rng.standard_normal((n, k))
            if trial % 3 == 0:
                scores = np.round(scores)  # force heavy tie pressure
            scores = np.ascontiguousarray(scores)
            assert np.array_equal(rank_rows_nb(scores), rank_rows_np(scores))

    def test_top_counts(self):
        from lucekit._kernels import top_counts_nb

        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 9))
            keys = rank_rows_np(rng.standard_normal((n, k)))
            m = int(rng.integers(1, k + 1))
            members = np.sort(rng.choice(k, size=m, replace=False)).astype(np.int64)
            keys = np.ascontiguousarray(keys)
            assert np.array_equal(
                top_counts_nb(keys, members), top_counts_np(keys, members)
            )


class TestEnvironmentSwitch:
    def test_disable_flag_selects_numpy(self):
        code = (
            "from lucekit._kernels import backend_name, USE_NUMBA;"
            "assert not USE_NUMBA;"
            "print(backend_name())"
        )
        env = {"PATH": "/usr/bin:/bin", "LUCEKIT_DISABLE_NUMBA": "1"}
        # An uninstalled checkout is importable only through PYTHONPATH.
        if "PYTHONPATH" in os.environ:
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numpy"

    def test_backend_name_is_consistent(self):
        from lucekit._kernels import USE_NUMBA, backend_name

        assert backend_name() == ("numba" if USE_NUMBA else "numpy")
