"""Output checks that share no code with lucekit.

Every check takes plain data (parsed JSON, or values copied out of the
program's objects by the workloads) plus the generator's ground truth, and
returns a list of problems; an empty list means the output is correct.
Exact arithmetic uses ``fractions`` on the generator's raw tables; float
comparisons use the documented tolerance ``|l - r| <= eps (1 + |l| + |r|)``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from gen import FLOAT_EPS, RuleSpec, bits, canonical_masks, label, mask_of, maximizers

WITNESS_CAP = 100
IDENTITY = (
    "choice-axiom",
    "odds-independence",
    "product-rule",
    "set-choice-axiom",
    "set-intersection-rule",
    "renyi-conditioning",
)
EQUIVALENT = IDENTITY[:5]  # the factorization and its four classical forms
AXIOMS = IDENTITY + ("positivity", "full-support", "warp")
MC_SIGMAS = 6.0  # empirical shares must sit within this many standard errors
GRAD_TOL = 1e-6  # |d ll / d alpha| at the fitted weights, per observed choice


def _names(mask: int) -> tuple[str, ...]:
    return tuple(label(j) for j in bits(mask))


def _mask(names) -> int:
    return mask_of(int(a[1:]) for a in names)


def _fraction(raw):
    return Fraction(raw) if isinstance(raw, str) else raw


class _Table:
    """Probability lookups on a generator table, exact or with tolerance."""

    def __init__(self, spec: RuleSpec) -> None:
        self.spec = spec
        self.exact = spec.exact
        self.eps = 0.0 if spec.exact else FLOAT_EPS

    def p(self, j: int, m: int):
        return self.spec.p(j, m)

    def ps(self, c: int, m: int):
        row = self.spec.rows[self.spec.pos[m]]
        return sum((row[j] for j in bits(c & m)), Fraction(0) if self.exact else 0.0)

    def eq(self, lhs, rhs) -> bool:
        if self.exact:
            return lhs == rhs
        return abs(lhs - rhs) <= self.eps * (1.0 + abs(lhs) + abs(rhs))

    def pos(self, x) -> bool:
        return x > self.eps

    def ratio_kind(self, num, den) -> str:
        if self.pos(den):
            return "finite"
        return "infinite" if self.pos(num) else "indeterminate"

    def support(self, m: int) -> int:
        return mask_of(j for j in bits(m) if self.pos(self.p(j, m)))

    # One predicate per axiom: is this instance a violation? Each returns
    # (violated, lhs, rhs) with the witness's documented sides.
    def choice(self, B, A, j):
        lhs, rhs = self.p(j, A), self.p(j, B) * self.ps(B, A)
        return not self.eq(lhs, rhs), lhs, rhs

    def odds(self, P, A, j, k):
        rk = self.ratio_kind(self.p(j, A), self.p(k, A))
        if rk == "indeterminate":
            return False, None, None
        lk = self.ratio_kind(self.p(j, P), self.p(k, P))
        same = lk == rk and (
            lk == "infinite" or self.eq(self.p(j, P) * self.p(k, A), self.p(k, P) * self.p(j, A))
        )
        return not same, None, None

    def product(self, B, A, j, k):
        lhs, rhs = self.p(k, B) * self.p(j, A), self.p(j, B) * self.p(k, A)
        return not self.eq(lhs, rhs), lhs, rhs

    def set_choice(self, C, B, A):
        lhs, rhs = self.ps(C, A), self.ps(C, B) * self.ps(B, A)
        return not self.eq(lhs, rhs), lhs, rhs

    def set_intersection(self, Y, B, A):
        lhs, rhs = self.ps(Y & B, A), self.ps(Y, B) * self.ps(B, A)
        return not self.eq(lhs, rhs), lhs, rhs

    def renyi(self, B, A, j):
        if not self.pos(self.p(j, A)):
            return False, None, None
        lhs, rhs = self.p(j, B), self.p(j, A) / self.ps(B, A)
        return not self.eq(self.p(j, B) * self.ps(B, A), self.p(j, A)), lhs, rhs

    def warp(self, B, A):
        cut = self.support(A) & B
        return bool(cut) and self.support(B) != cut, None, None


def _witness_instance(t: _Table, w: dict):
    """Re-evaluate one reported witness on the raw table."""
    sets = [_mask(s) for s in w["sets"]]
    el = [int(a[1:]) for a in w["elements"]]
    ax = w["axiom"]
    full = (1 << t.spec.n) - 1
    for s in sets:
        if s == 0 or s & ~full:
            raise ValueError("set outside the universe")
    if ax in ("positivity", "full-support"):
        (A,), (j,) = sets, el
        if not A >> j & 1 or (ax == "positivity" and bin(A).count("1") != 2):
            raise ValueError("malformed witness")
        return not t.pos(t.p(j, A)), t.p(j, A), None
    if ax == "set-choice-axiom" or ax == "set-intersection-rule":
        C, B, A = sets
        if B == A or B & A != B or (ax == "set-choice-axiom" and C & B != C):
            raise ValueError("malformed witness")
        return (t.set_choice if ax == "set-choice-axiom" else t.set_intersection)(C, B, A)
    B, A = sets
    if B == A or B & A != B or any(not B >> j & 1 for j in el):
        raise ValueError("malformed witness")
    if ax == "warp":
        return t.warp(B, A)
    if ax == "choice-axiom":
        return t.choice(B, A, *el)
    if ax == "renyi-conditioning":
        return t.renyi(B, A, *el)
    if ax == "product-rule":
        return t.product(B, A, *el)
    if ax == "odds-independence":
        if bin(B).count("1") != 2:
            raise ValueError("malformed witness")
        return t.odds(B, A, *el)
    raise ValueError(f"unknown axiom {ax!r}")


def _touched_pairs(spec: RuleSpec) -> list[tuple[int, int]]:
    """Nested pairs (B, A) with B or A the edited row, in checker scan order."""
    A0 = spec.masks[spec.perturbed]
    full = (1 << spec.n) - 1
    pairs = []
    sub = (A0 - 1) & A0
    while sub:
        pairs.append((sub, A0))
        sub = (sub - 1) & A0
    rest = full & ~A0
    sup = rest
    while sup:
        pairs.append((A0, A0 | sup))
        sup = (sup - 1) & rest
    pairs.sort(key=lambda p: (spec.pos[p[1]], spec.pos[p[0]]))
    return pairs


def _size_key(m: int):
    return (bin(m).count("1"), bits(m))


def expected_violations(spec: RuleSpec, cache: dict) -> dict[str, tuple[int, list]]:
    """Exact violation count and first ``WITNESS_CAP`` witness keys per axiom.

    The base rule of every generated table factorizes, so identity and WARP
    violations can only involve the edited row; positivity and full support
    are enumerated over the whole family.
    """
    key = spec.name
    if key in cache:
        return cache[key]
    t = _Table(spec)
    out: dict[str, tuple[int, list]] = {}
    fs = [((_names(A),), (label(j),)) for A in spec.masks for j in bits(A) if not t.pos(t.p(j, A))]
    out["full-support"] = (len(fs), fs[:WITNESS_CAP])
    pv = [w for w in fs if len(w[0][0]) == 2]
    out["positivity"] = (len(pv), pv[:WITNESS_CAP])
    if spec.perturbed is None:
        for ax in IDENTITY + ("warp",):
            out[ax] = (0, [])
        cache[key] = out
        return out
    found: dict[str, list] = {ax: [] for ax in IDENTITY + ("warp",)}
    inter_count = 0
    canon = None
    for B, A in _touched_pairs(spec):
        nB, nA = _names(B), _names(A)
        mem = bits(B)
        for j in mem:
            if t.choice(B, A, j)[0]:
                found["choice-axiom"].append(((nB, nA), (label(j),)))
        for x, j in enumerate(mem):
            for k in mem[x + 1:]:
                if t.product(B, A, j, k)[0]:
                    found["product-rule"].append(((nB, nA), (label(j), label(k))))
        failing = []
        sub = B
        while sub:
            if t.set_choice(sub, B, A)[0]:
                failing.append(sub)
            sub = (sub - 1) & B
        failing.sort(key=_size_key)
        found["set-choice-axiom"].extend(((_names(C), nB, nA), ()) for C in failing)
        if failing:
            inter_count += len(failing) << (spec.n - len(mem))
            lst = found["set-intersection-rule"]
            if len(lst) < WITNESS_CAP:
                canon = canon or canonical_masks(spec.n)
                fail = set(failing)
                for Y in canon:
                    if Y & B in fail:
                        lst.append(((_names(Y), nB, nA), ()))
                        if len(lst) >= WITNESS_CAP:
                            break
        if t.warp(B, A)[0]:
            found["warp"].append(((nB, nA), ()))
        for j in mem:
            if t.renyi(B, A, j)[0]:
                found["renyi-conditioning"].append(((nB, nA), (label(j),)))
    A0 = spec.masks[spec.perturbed]
    mem = bits(A0)
    for x, j in enumerate(mem):
        for k in mem[x + 1:]:
            P = (1 << j) | (1 << k)
            if t.odds(P, A0, j, k)[0]:
                found["odds-independence"].append(((_names(P), _names(A0)), (label(j), label(k))))
    for ax, lst in found.items():
        count = inter_count if ax == "set-intersection-rule" else len(lst)
        out[ax] = (count, lst[:WITNESS_CAP])
    cache[key] = out
    return out


def check_axiom_report(spec: RuleSpec, exact_spec: RuleSpec, doc: dict, cache: dict) -> list[str]:
    """Check one encoded ``check`` report against the rule's ground truth.

    ``exact_spec`` is the exact rule ``spec`` was copied from (itself for
    exact rules): float verdicts must equal its exact verdicts.
    """
    problems: list[str] = []
    payload = doc.get("payload", {})
    reports = {r.get("axiom"): r for r in payload.get("reports", [])}
    if sorted(reports) != sorted(AXIOMS):
        return [f"{spec.name}: report covers {sorted(reports)}"]
    t = _Table(spec)
    truth = expected_violations(exact_spec, cache)
    # A float copy keeps the exact rule's verdicts; its counts and witness
    # lists are those of its own table under the tolerance.
    own = truth if spec is exact_spec else expected_violations(spec, cache)
    for ax, r in reports.items():
        count, wits = r["violation_count"], r["witnesses"]
        if r["holds"] != (count == 0) or r["verdict"] != ("holds" if count == 0 else "fails"):
            problems.append(f"{spec.name}/{ax}: verdict disagrees with violation_count {count}")
        if r["holds"] != (truth[ax][0] == 0):
            problems.append(f"{spec.name}/{ax}: verdict {r['verdict']}, truth has {truth[ax][0]} violations")
        if len(wits) != min(count, WITNESS_CAP):
            problems.append(f"{spec.name}/{ax}: {len(wits)} witnesses for {count} violations")
        for w in wits:
            try:
                bad, lhs, rhs = _witness_instance(t, w)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{spec.name}/{ax}: unreadable witness {w}: {exc}")
                continue
            if w["axiom"] != ax or not bad:
                problems.append(f"{spec.name}/{ax}: witness is no violation: {w['sets']} {w['elements']}")
            elif spec.exact and lhs is not None and (
                _fraction(w["lhs"]) != lhs or (rhs is not None and _fraction(w["rhs"]) != rhs)
            ):
                problems.append(f"{spec.name}/{ax}: witness sides differ from the table")
        keys = [(tuple(tuple(s) for s in w["sets"]), tuple(w["elements"])) for w in wits]
        if count != own[ax][0]:
            problems.append(f"{spec.name}/{ax}: {count} violations, truth {own[ax][0]}")
        elif keys != own[ax][1]:
            problems.append(f"{spec.name}/{ax}: witnesses are not the first violations in scan order")
    holds = {ax: r["holds"] for ax, r in reports.items()}
    if len({holds[ax] for ax in EQUIVALENT}) != 1:
        problems.append(f"{spec.name}: the five equivalent checkers disagree")
    if holds["choice-axiom"] != (holds["warp"] and holds["renyi-conditioning"]):
        problems.append(f"{spec.name}: choice axiom is not WARP plus Renyi conditioning")
    if payload.get("all_hold") != all(holds.values()):
        problems.append(f"{spec.name}: all_hold disagrees with the reports")
    return problems


def check_synthesized(spec: RuleSpec, table: dict) -> list[str]:
    """``table`` maps member-label tuples to {label: Fraction}."""
    want = {_names(m): {label(j): x for j, x in row.items()} for m, row in zip(spec.masks, spec.rows)}
    if table != want:
        bad = next((k for k in want if table.get(k) != want[k]), None)
        return [f"{spec.name}: synthesized table differs from the generator at {bad}"]
    return []


def expected_classes(ranks: list[int]) -> list[list[str]]:
    return [[label(j) for j in range(len(ranks)) if ranks[j] == r] for r in sorted(set(ranks))]


def check_decomposition(spec: RuleSpec, classes, v: dict, gamma: dict) -> list[str]:
    """Classes best first, v(x) = v(x) / v(representative) exactly, Γ = maximizers."""
    problems = []
    want = expected_classes(spec.ranks)
    if [list(c) for c in classes] != want:
        problems.append(f"{spec.name}: classes {classes} != {want}")
        return problems
    for group in want:
        rep = spec.v[int(group[0][1:])]
        for a in group:
            if v.get(a) != spec.v[int(a[1:])] / rep:
                problems.append(f"{spec.name}: weight of {a} is {v.get(a)}")
    for m in spec.masks:
        if gamma.get(_names(m)) != _names(maximizers(spec.ranks, m)):
            problems.append(f"{spec.name}: decomposed support wrong at {_names(m)}")
            break
    return problems


def check_shares(sim, counts: dict) -> list[str]:
    """Tallies against the sampler's closed-form top-choice shares.

    ``counts`` maps each set mask to {index: count}. Shares off the pool of
    the sampler (non-maximizers for the lex and independent samplers) must
    be exactly zero; the rest must lie within ``MC_SIGMAS`` binomial
    standard errors (plus one draw, for discreteness).
    """
    n_draws = sim.draws
    worst = 0.0
    for m in range(1, 1 << sim.n):
        row = counts.get(m)
        if row is None or sum(row.values()) != n_draws:
            return [f"{sim.name}: set {_names(m)} has {None if row is None else sum(row.values())} draws"]
        for j, p in sim.shares(m).items():
            c = row.get(j, 0)
            if p == 0.0:
                if c:
                    return [f"{sim.name}: {label(j)} picked {c} times from {_names(m)} off the maximizers"]
                continue
            se = math.sqrt(p * (1 - p) / n_draws)
            worst = max(worst, (abs(c / n_draws - p) - 1 / n_draws) / se if se else 0.0)
    if worst > MC_SIGMAS:
        return [f"{sim.name}: a share sits {worst:.1f} standard errors from its logit value"]
    return []


def gradient(menus: list[int], counts: list[dict[int, int]], gammas: list[int], alpha: np.ndarray) -> np.ndarray:
    """Gradient of the within-support logit log-likelihood, flattened numpy."""
    grad = np.zeros_like(alpha)
    for m, row, g in zip(menus, counts, gammas):
        idx = np.array(bits(g))
        c = np.array([row.get(j, 0) for j in idx], dtype=float)
        s = alpha[idx]
        e = np.exp(s - s.max())
        grad[idx] += c - c.sum() * e / e.sum()
    return grad


def check_fit(name: str, n: int, menus, counts, gammas, fit: dict) -> list[str]:
    """``fit`` holds gamma_hat (names -> names), alpha_hat, ll_path, warp verdict."""
    problems = []
    for m, g in zip(menus, gammas):
        if fit["gamma_hat"].get(_names(m)) != _names(g):
            return [f"{name}: estimated support of {_names(m)} is {fit['gamma_hat'].get(_names(m))}"]
    if not fit["warp_holds"] or fit["warp_pairs"] <= 0:
        problems.append(f"{name}: WARP verdict {fit['warp_holds']} on {fit['warp_pairs']} pairs")
    path = fit["ll_path"]
    if any(b < a for a, b in zip(path, path[1:])):
        problems.append(f"{name}: ll_path decreases")
    alpha_hat = fit["alpha_hat"]
    if alpha_hat is None:
        return problems + [f"{name}: no weights fitted"]
    alpha = np.array([alpha_hat[label(j)] for j in range(n)])
    g = gradient(menus, counts, gammas, alpha)
    total = sum(sum(r.values()) for r in counts)
    if not np.isfinite(g).all() or np.abs(g).max() > GRAD_TOL * total:
        problems.append(f"{name}: gradient {np.abs(g).max():.3g} at alpha_hat")
    return problems


def check_cli_json(text: str, expect: dict) -> list[str]:
    """Light checks on one CLI output document, keyed by command."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    kind = expect["command"]
    payload = doc.get("payload", {})
    if kind == "synthesize":
        table = {tuple(r["set"]): {a: Fraction(x) for a, x in r["p"].items()} for r in payload["table"]}
        return check_synthesized(expect["spec"], table)
    if kind == "check":
        return check_axiom_report(expect["spec"], expect["spec"], doc, expect["cache"])
    if kind == "decompose":
        gamma = {tuple(r["set"]): tuple(r["chosen"]) for r in payload["gamma"]["table"]}
        v = {a: Fraction(x) for a, x in payload["v"].items()}
        return check_decomposition(expect["spec"], payload["classes"], v, gamma)
    if kind == "simulate":
        counts = {_mask(r["set"]): {int(a[1:]): c for a, c in r["counts"].items()} for r in payload["observations"]}
        return check_shares(expect["sim"], counts)
    if kind == "fit":
        sim = expect["sim"]
        menus = list(range(1, 1 << sim.n))
        gammas = [maximizers(sim.ranks, m) for m in menus]
        return check_fit_payload(sim.name, sim.n, menus, [expect["counts"][m] for m in menus], gammas, payload)
    if kind == "limit":
        d = payload["distances"]
        if any(b > a for a, b in zip(d, d[1:])) or not payload["converged"]:
            return [f"limit distances {d} converged={payload['converged']}"]
        return []
    raise ValueError(kind)


def check_fit_payload(name: str, n: int, menus, counts, gammas, payload: dict) -> list[str]:
    """``check_fit`` on an encoded fit report, which must also have converged unseparated."""
    fit = {
        "gamma_hat": {tuple(r["set"]): tuple(r["chosen"]) for r in payload["gamma_hat"]["table"]},
        "alpha_hat": payload["alpha_hat"],
        "ll_path": payload["ll_path"],
        "warp_holds": payload["warp_report"]["holds"],
        "warp_pairs": payload["warp_report"]["pairs_checked"],
    }
    problems = check_fit(name, n, menus, counts, gammas, fit)
    if not payload["converged"] or payload["separated"]:
        problems.append(f"{name}: converged={payload['converged']}, separated {payload['separated'][:5]}")
    return problems
