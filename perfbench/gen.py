"""Seeded input generator for the benchmark.

Everything here is plain Python (``fractions``, ``random``, ``json``): no
lucekit constructor is called, so the ground truth the benchmark checks
against never comes from the code under test. The program only ever sees
the document texts built here.

Alternatives are labelled ``x000``, ``x001``, ... so that label order equals
index order; a choice set is a bitmask over those indices, and a complete
family lists every nonempty mask by (size, members), which is lucekit's
canonical family order.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

FLOAT_EPS = 1e-9  # lucekit's default tolerance, written into float documents


def label(i: int) -> str:
    return f"x{i:03d}"


def bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def mask_of(indices) -> int:
    m = 0
    for j in indices:
        m |= 1 << j
    return m


def canonical_masks(n: int) -> list[int]:
    """Every nonempty subset of n alternatives in (size, members) order."""
    return [mask_of(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]


def rng_for(seed: int, *tags) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are stable across
    # processes and Python builds.
    return random.Random(":".join(str(t) for t in (seed,) + tags))


@dataclass
class RuleSpec:
    """Ground truth of one generated rule on a complete family."""

    name: str
    n: int
    ranks: list[int]  # weak order, 0 = best level
    v: list[Fraction]  # positive weights
    masks: list[int]  # complete family, canonical order
    rows: list[dict[int, Fraction]]  # p(j, A) for every member j of A
    exact: bool = True
    perturbed: int | None = None  # position of the one edited row
    kind: str = "hold"  # hold | shift | cut
    full_support: bool = True
    pos: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pos = {m: i for i, m in enumerate(self.masks)}

    @property
    def labels(self) -> list[str]:
        return [label(i) for i in range(self.n)]

    def p(self, j: int, mask: int):
        return self.rows[self.pos[mask]].get(j, 0)

    def support(self, mask: int) -> int:
        row = self.rows[self.pos[mask]]
        return mask_of(j for j, x in row.items() if x > (0 if self.exact else FLOAT_EPS))


# Seeds permute fixed multisets of levels and weights: every seed gives
# different inputs of the same shape and arithmetic size, so run-to-run
# spread measures the program, not the luck of the draw.
def weak_order(rng: random.Random, n: int, levels: int) -> list[int]:
    """Levels of (nearly) equal size, assigned to alternatives at random."""
    ranks = [i % levels for i in range(n)]
    rng.shuffle(ranks)
    return ranks


def rational_weights(rng: random.Random, n: int) -> list[Fraction]:
    v = [Fraction(1 + i % 9, 1 + i % 4) for i in range(n)]
    rng.shuffle(v)
    return v


def integer_weights(rng: random.Random, n: int, top: int) -> list[Fraction]:
    v = [Fraction(1 + i % top) for i in range(n)]
    rng.shuffle(v)
    return v


def maximizers(ranks: list[int], mask: int) -> int:
    best = min(ranks[j] for j in bits(mask))
    return mask_of(j for j in bits(mask) if ranks[j] == best)


def luce_rows(n: int, masks: list[int], ranks: list[int], v: list[Fraction]):
    """Shares v(a) / Σv over the maximizers of the weak order, zero elsewhere."""
    rows = []
    for m in masks:
        chosen = bits(maximizers(ranks, m))
        total = sum(v[j] for j in chosen)
        rows.append({j: (v[j] / total if j in chosen else Fraction(0)) for j in bits(m)})
    return rows


def holding_rule(seed: int, name: str, n: int, selective: bool) -> RuleSpec:
    rng = rng_for(seed, "rule", name)
    ranks = weak_order(rng, n, 3) if selective else [0] * n
    v = rational_weights(rng, n)
    masks = canonical_masks(n)
    spec = RuleSpec(name, n, ranks, v, masks, luce_rows(n, masks, ranks, v))
    spec.full_support = len(set(ranks)) == 1
    return spec


def perturbed_rule(base: RuleSpec, seed: int, kind: str) -> RuleSpec:
    """Edit one row of a holding rule so that the factorization fails.

    ``shift`` moves a share of one supported member's mass to another
    supported member (the support, hence WARP, is unchanged); ``cut`` moves
    all of it (the support shrinks, so WARP fails too). The edited set has
    four members, two or more of them supported.
    """
    rng = rng_for(seed, "perturb", base.name, kind)
    candidates = [
        i for i, m in enumerate(base.masks)
        if bin(m).count("1") == 4 and bin(base.support(m)).count("1") >= 2
    ]
    i = rng.choice(candidates)
    row = dict(base.rows[i])
    donor, receiver = rng.sample(bits(base.support(base.masks[i])), 2)
    delta = row[donor] if kind == "cut" else row[donor] / 3
    row[donor] -= delta
    row[receiver] += delta
    rows = list(base.rows)
    rows[i] = row
    spec = RuleSpec(f"{base.name}-{kind}", base.n, base.ranks, base.v, base.masks, rows,
                    perturbed=i, kind=kind)
    spec.full_support = base.full_support and kind != "cut"
    return spec


def as_float(spec: RuleSpec) -> RuleSpec:
    rows = [{j: float(x) for j, x in row.items()} for row in spec.rows]
    out = RuleSpec(f"{spec.name}-float", spec.n, spec.ranks, spec.v, spec.masks, rows,
                   exact=False, perturbed=spec.perturbed, kind=spec.kind)
    out.full_support = spec.full_support
    return out


def _dumps(doc: dict) -> str:
    # lucekit's canonical form: sorted keys, two-space indent, trailing newline.
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _doc(kind: str, payload: dict) -> str:
    return _dumps({"kind": kind, "version": "1", "payload": payload})


def _value(x) -> str | float:
    return str(x) if isinstance(x, Fraction) else float(x)


def rule_document(spec: RuleSpec) -> str:
    payload = {
        "universe": spec.labels,
        "mode": "exact" if spec.exact else "float",
        "table": [
            {"set": [label(j) for j in bits(m)], "p": {label(j): _value(x) for j, x in row.items()}}
            for m, row in zip(spec.masks, spec.rows)
        ],
    }
    if not spec.exact:
        payload["eps"] = FLOAT_EPS
    return _doc("rule", payload)


def correspondence_document(spec: RuleSpec) -> str:
    return _doc("correspondence", {
        "universe": spec.labels,
        "table": [
            {"set": [label(j) for j in bits(m)],
             "chosen": [label(j) for j in bits(maximizers(spec.ranks, m))]}
            for m in spec.masks
        ],
    })


def weights_document(labels: list[str], v: list[Fraction]) -> str:
    return _doc("weights", {"universe": labels, "mode": "exact",
                            "v": {a: str(x) for a, x in zip(labels, v)}})


def utility_document(labels: list[str], ranks: list[int]) -> str:
    return _doc("utility", {"u": {a: float(-r) for a, r in zip(labels, ranks)}})


@dataclass
class SimSpec:
    """A complete-family simulation input: weights, weak order, sampler."""

    name: str
    n: int
    sampler: str  # gumbel | independent | lex
    ranks: list[int]
    v: list[Fraction]
    draws: int
    seed: int

    @property
    def labels(self) -> list[str]:
        return [label(i) for i in range(self.n)]

    def shares(self, mask: int) -> dict[int, float]:
        """Closed-form top-choice probabilities of the sampler on ``mask``."""
        pool = bits(mask) if self.sampler == "gumbel" else bits(maximizers(self.ranks, mask))
        total = sum(float(self.v[j]) for j in pool)
        return {j: (float(self.v[j]) / total if j in pool else 0.0) for j in bits(mask)}


def sim_spec(seed: int, name: str, n: int, sampler: str, draws: int, levels: int) -> SimSpec:
    rng = rng_for(seed, "sim", name)
    ranks = [0] * n if sampler == "gumbel" else weak_order(rng, n, levels)
    # Integer weights in [1, 4] keep every share of a top level at least
    # 1/(1 + 4(n-1)), so with the chosen draw counts each supported member
    # is drawn dozens of times in expectation and the estimated support is
    # the true one.
    v = integer_weights(rng, n, 4)
    return SimSpec(name, n, sampler, ranks, v, draws, rng.randrange(2**31))


@dataclass
class SparseSpec:
    """A large sparse dataset whose counts come from a selective rule."""

    n: int
    ranks: list[int]
    v: list[Fraction]
    menus: list[int]  # bitmasks, canonical (size, members) order
    counts: list[dict[int, int]]

    def gamma(self, mask: int) -> int:
        return maximizers(self.ranks, mask)


def sparse_dataset(seed: int, n: int, groups: int) -> SparseSpec:
    """``groups`` base menus of six members plus three nested submenus each.

    Counts per menu are drawn from the logit shares over the weak order's
    maximizers, then every maximizer gets one more choice, so the
    positive-frequency support equals the true Γ on every menu.
    """
    rng = rng_for(seed, "sparse")
    ranks = weak_order(rng, n, 4)
    v = integer_weights(rng, n, 9)
    menus: set[int] = set()
    while len(menus) < 4 * groups:
        base = rng.sample(range(n), 6)
        menus.add(mask_of(base))
        for size in rng.sample(range(2, 6), 3):
            menus.add(mask_of(rng.sample(base, size)))
    ordered = sorted(menus, key=lambda m: (bin(m).count("1"), bits(m)))[: 4 * groups]
    counts = []
    for m in ordered:
        chosen = bits(maximizers(ranks, m))
        weights = [float(v[j]) for j in chosen]
        row = {j: 0 for j in bits(m)}
        for j in rng.choices(chosen, weights=weights, k=rng.randint(10, 40)):
            row[j] += 1
        for j in chosen:
            row[j] += 1
        counts.append(row)
    return SparseSpec(n, ranks, v, ordered, counts)


def dataset_document(n: int, menus: list[int], counts: list[dict[int, int]]) -> str:
    return _doc("dataset", {
        "universe": [label(i) for i in range(n)],
        "observations": [
            {"set": [label(j) for j in bits(m)], "counts": {label(j): c for j, c in row.items()}}
            for m, row in zip(menus, counts)
        ],
    })
