"""Numpy kernels behind ranking and top-choice tallies.

``rank_rows`` turns a matrix of draw scores into per-draw rank vectors (the
samplers' ``draw_ranks``); ``top_counts`` tallies which column holds each
row's smallest key. Ties break toward the earlier column in both: stable
sort in ranking, first index in tallying.

No library code calls ``top_counts`` since ``empirical_rule`` draws each
set's tally as one multinomial. It stays only as a name the benchmark
harness's traced runs wrap (``perfbench/spans.py``), until the benchmark
drops it and this module can go (ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """Per-row ranks of descending score: 0 marks the row's best column."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    rows = np.arange(scores.shape[0])[:, None]
    ranks[rows, order] = np.arange(scores.shape[1])[None, :]
    return ranks


def top_counts(keys: np.ndarray) -> np.ndarray:
    """How often each column holds its row's smallest key.

    ``keys`` is a (draws, members) matrix where lower is better; it must hold
    no NaN, which would win its row's argmin.
    """
    winners = np.argmin(keys, axis=1)
    return np.bincount(winners, minlength=keys.shape[1]).astype(np.int64)
