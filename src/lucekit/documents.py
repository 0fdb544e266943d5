"""JSON documents for rules, correspondences, weights, datasets, and reports.

Every file is one JSON object ``{"kind": ..., "version": "1", "payload":
...}``. Unknown kinds or versions are rejected, never guessed. Exact
probabilities travel as ``"num/den"`` strings so parsing reproduces the same
rationals bit for bit; floats travel as JSON numbers (shortest round-trip
decimals). Serialization is canonical: sorted keys, two-space indent,
trailing newline, so identical values produce identical bytes.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Any, Mapping

from .axioms import Axiom, AxiomReport, Witness
from .core import (
    EXACT,
    FLOAT,
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    ExtendedRatio,
    RandomChoiceRule,
    Universe,
    Value,
    WeakOrder,
)
from .decompose import LuceDecomposition
from .errors import DocumentError
from .estimate import ChoiceDataset, FitResult
from .synthesize import LimitReport, LuceWeights

DOCUMENT_VERSION = "1"

KINDS = (
    "rule",
    "correspondence",
    "weights",
    "utility",
    "dataset",
    "report",
    "decomposition",
)


def _encode_value(v: Value | ExtendedRatio | None) -> Any:
    if v is None:
        return None
    if isinstance(v, ExtendedRatio):
        out: dict[str, Any] = {"ratio": v.kind}
        if v.is_finite:
            out["value"] = _encode_value(v.value)
        return out
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def _decode_value(raw: Any) -> Value | ExtendedRatio | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational literal {raw!r}") from exc
    if isinstance(raw, dict):
        kind = raw.get("ratio")
        if kind == ExtendedRatio.FINITE:
            return ExtendedRatio(kind, _decode_value(raw.get("value")))
        if kind in (ExtendedRatio.INFINITE, ExtendedRatio.INDETERMINATE):
            return ExtendedRatio(kind)
        raise DocumentError(f"bad ratio tag {raw!r}")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise DocumentError(f"cannot decode value {raw!r}")


def _encode_universe(universe: Universe) -> list[str]:
    return list(universe.alternatives)


def _decode_universe(raw: Any) -> Universe:
    if not isinstance(raw, list) or not all(isinstance(a, str) for a in raw):
        raise DocumentError("universe must be a list of strings")
    try:
        return Universe(raw)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _decode_set(raw: Any) -> ChoiceSet:
    if not isinstance(raw, list) or not all(isinstance(a, str) for a in raw):
        raise DocumentError(f"choice set must be a list of strings, got {raw!r}")
    try:
        return ChoiceSet(raw)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _rule_payload(rule: RandomChoiceRule) -> dict:
    payload: dict[str, Any] = {
        "universe": _encode_universe(rule.universe),
        "mode": rule.mode,
        "table": [
            {
                "set": list(A.members),
                "p": {a: _encode_value(rule.p(a, A)) for a in A},
            }
            for A in rule.family
        ],
    }
    if rule.mode == FLOAT:
        payload["eps"] = rule.eps
    return payload


def _decode_rule(payload: dict) -> RandomChoiceRule:
    universe = _decode_universe(payload.get("universe"))
    mode = payload.get("mode")
    if mode not in (EXACT, FLOAT):
        raise DocumentError(f"rule mode must be 'exact' or 'float', got {mode!r}")
    rows = payload.get("table")
    if not isinstance(rows, list):
        raise DocumentError("rule table must be a list of rows")
    table: dict[ChoiceSet, dict[str, Value]] = {}
    for row in rows:
        A = _decode_set(row.get("set"))
        probs = row.get("p")
        if not isinstance(probs, dict):
            raise DocumentError(f"row for {A} lacks probabilities")
        decoded: dict[str, Value] = {}
        for a, raw in probs.items():
            v = _decode_value(raw)
            if mode == EXACT and not isinstance(v, Fraction):
                raise DocumentError(f"exact rule has non-rational entry at ({a!r}, {A})")
            decoded[a] = v
        if A in table:
            raise DocumentError(f"duplicate row for {A}")
        table[A] = decoded
    family = _decode_family(universe, table.keys())
    kwargs: dict[str, Any] = {}
    try:
        if "eps" in payload:
            kwargs["eps"] = float(payload["eps"])
        return RandomChoiceRule(family, table, mode=mode, **kwargs)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def _decode_family(universe: Universe, sets) -> ChoiceFamily:
    try:
        return ChoiceFamily(universe, sets)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _correspondence_payload(corr: ChoiceCorrespondence) -> dict:
    return {
        "universe": _encode_universe(corr.universe),
        "table": [
            {"set": list(A.members), "chosen": list(corr.gamma(A).members)}
            for A in corr.family
        ],
    }


def _decode_correspondence(payload: dict) -> ChoiceCorrespondence:
    universe = _decode_universe(payload.get("universe"))
    rows = payload.get("table")
    if not isinstance(rows, list):
        raise DocumentError("correspondence table must be a list of rows")
    table = {}
    for row in rows:
        A = _decode_set(row.get("set"))
        if A in table:
            raise DocumentError(f"duplicate row for {A}")
        table[A] = _decode_set(row.get("chosen"))
    family = _decode_family(universe, table.keys())
    try:
        return ChoiceCorrespondence(family, table)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _weights_payload(weights: LuceWeights) -> dict:
    return {
        "universe": _encode_universe(weights.universe),
        "mode": weights.mode,
        "v": {a: _encode_value(weights.v[a]) for a in weights.universe},
    }


def _decode_weights(payload: dict) -> LuceWeights:
    universe = _decode_universe(payload.get("universe"))
    raw = payload.get("v")
    if not isinstance(raw, dict):
        raise DocumentError("weights payload needs a 'v' mapping")
    v = {a: _decode_value(x) for a, x in raw.items()}
    try:
        return LuceWeights(universe, v)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def _utility_payload(u: Mapping[str, float]) -> dict:
    return {"u": {a: float(x) for a, x in u.items()}}


def _decode_utility(payload: dict) -> dict[str, float]:
    raw = payload.get("u")
    if not isinstance(raw, dict) or not raw:
        raise DocumentError("utility payload needs a nonempty 'u' mapping")
    out = {}
    for a, x in raw.items():
        # abs(x) <= the largest float refuses NaN, infinities and huge ints.
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= sys.float_info.max:
            raise DocumentError(f"utility for {a!r} must be a finite number")
        out[a] = float(x)
    return out


def _dataset_payload(data: ChoiceDataset) -> dict:
    return {
        "universe": _encode_universe(data.universe),
        "observations": [
            {
                "set": list(A.members),
                "counts": {a: data.observations[A][a] for a in A},
            }
            for A in sorted(data.observations, key=lambda s: (len(s), s.members))
        ],
    }


def _decode_dataset(payload: dict) -> ChoiceDataset:
    universe = _decode_universe(payload.get("universe"))
    rows = payload.get("observations")
    if not isinstance(rows, list):
        raise DocumentError("dataset observations must be a list of rows")
    obs: dict[ChoiceSet, dict[str, int]] = {}
    for row in rows:
        A = _decode_set(row.get("set"))
        counts = row.get("counts")
        if not isinstance(counts, dict):
            raise DocumentError(f"row for {A} lacks counts")
        for a, c in counts.items():
            if not isinstance(c, int) or isinstance(c, bool):
                raise DocumentError(f"count for {a!r} in {A} must be an integer")
        if A in obs:
            raise DocumentError(f"duplicate observations for {A}")
        obs[A] = dict(counts)
    try:
        return ChoiceDataset(universe, obs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def encode_witness(w: Witness) -> dict:
    return {
        "axiom": w.axiom.value,
        "sets": [list(s.members) for s in w.sets],
        "elements": list(w.elements),
        "lhs": _encode_value(w.lhs),
        "rhs": _encode_value(w.rhs),
        "detail": w.detail,
    }


def decode_witness(raw: Any) -> Witness:
    if not isinstance(raw, dict):
        raise DocumentError("witness must be an object")
    try:
        axiom = Axiom(raw.get("axiom"))
    except ValueError as exc:
        raise DocumentError(f"unknown axiom {raw.get('axiom')!r}") from exc
    sets = raw.get("sets")
    if not isinstance(sets, list):
        raise DocumentError("witness sets must be a list")
    return Witness(
        axiom=axiom,
        sets=tuple(_decode_set(s) for s in sets),
        elements=tuple(raw.get("elements") or ()),
        lhs=_decode_value(raw.get("lhs")),
        rhs=_decode_value(raw.get("rhs")),
        detail=raw.get("detail") or "",
    )


def encode_axiom_report(report: AxiomReport) -> dict:
    return {
        "axiom": report.axiom.value,
        "verdict": report.verdict,
        "holds": report.holds,
        "violation_count": report.violation_count,
        "pairs_checked": report.pairs_checked,
        "family_complete": report.family_complete,
        "witnesses": [encode_witness(w) for w in report.witnesses],
    }


def decode_axiom_report(raw: Any) -> AxiomReport:
    if not isinstance(raw, dict):
        raise DocumentError("axiom report must be an object")
    try:
        axiom = Axiom(raw.get("axiom"))
    except ValueError as exc:
        raise DocumentError(f"unknown axiom {raw.get('axiom')!r}") from exc
    try:
        return AxiomReport(
            axiom=axiom,
            holds=bool(raw["holds"]),
            witnesses=tuple(decode_witness(w) for w in raw.get("witnesses", ())),
            violation_count=int(raw["violation_count"]),
            pairs_checked=int(raw["pairs_checked"]),
            family_complete=bool(raw["family_complete"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DocumentError(f"bad axiom report: {exc}") from exc


def _decomposition_payload(dec: LuceDecomposition) -> dict:
    return {
        "universe": _encode_universe(dec.universe),
        "gamma": _correspondence_payload(dec.gamma),
        "classes": [list(group) for group in dec.classes],
        "representatives": list(dec.representatives),
        "v": {a: _encode_value(dec.v[a]) for a in dec.universe},
        "alpha": {a: float(dec.alpha[a]) for a in dec.universe},
        "reconstruction_verified": True,
    }


def _decode_decomposition(payload: dict) -> LuceDecomposition:
    gamma = _decode_correspondence(payload.get("gamma") or {})
    classes_raw = payload.get("classes")
    if not isinstance(classes_raw, list):
        raise DocumentError("decomposition needs a 'classes' list")
    classes = tuple(tuple(group) for group in classes_raw)
    try:
        order = WeakOrder.from_classes(gamma.universe, classes)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    v_raw = payload.get("v")
    alpha_raw = payload.get("alpha")
    if not isinstance(v_raw, dict) or not isinstance(alpha_raw, dict):
        raise DocumentError("decomposition needs 'v' and 'alpha' mappings")
    return LuceDecomposition(
        gamma=gamma,
        order=order,
        classes=classes,
        representatives=tuple(payload.get("representatives") or ()),
        v={a: _decode_value(x) for a, x in v_raw.items()},
        alpha={a: float(x) for a, x in alpha_raw.items()},
    )


def fit_result_payload(result: FitResult) -> dict:
    ll = result.log_likelihood
    return {
        "type": "fit",
        "gamma_hat": _correspondence_payload(result.gamma_hat),
        "alpha_hat": (
            None
            if result.alpha_hat is None
            else {a: float(x) for a, x in sorted(result.alpha_hat.items())}
        ),
        "log_likelihood": None if math.isnan(ll) else ll,
        "converged": result.converged,
        "warp_report": encode_axiom_report(result.warp_report),
        "separated": list(result.separated),
        "components": [list(c) for c in result.components],
        "ll_path": list(result.ll_path),
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
    }


def _decode_fit_result(payload: dict) -> FitResult:
    alpha = payload.get("alpha_hat")
    ll = payload.get("log_likelihood")
    return FitResult(
        gamma_hat=_decode_correspondence(payload.get("gamma_hat") or {}),
        alpha_hat=None if alpha is None else {a: float(x) for a, x in alpha.items()},
        log_likelihood=float("nan") if ll is None else float(ll),
        converged=bool(payload["converged"]),
        warp_report=decode_axiom_report(payload.get("warp_report")),
        separated=tuple(payload.get("separated") or ()),
        components=tuple(tuple(c) for c in payload.get("components") or ()),
        ll_path=tuple(float(x) for x in payload.get("ll_path") or ()),
        iterations=int(payload.get("iterations") or 0),
        stop_reason=payload.get("stop_reason"),
    )


def limit_report_payload(report: LimitReport) -> dict:
    return {
        "type": "limit",
        "lambdas": list(report.lambdas),
        "distances": list(report.distances),
        "tolerance": report.tolerance,
        "tail_monotone": report.tail_monotone,
        "final_distance": report.final_distance,
        "converged": report.converged,
    }


def _decode_limit_report(payload: dict) -> LimitReport:
    try:
        return LimitReport(
            lambdas=tuple(float(x) for x in payload["lambdas"]),
            distances=tuple(float(x) for x in payload["distances"]),
            tolerance=float(payload["tolerance"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad limit report: {exc}") from exc


def _decode_report(payload: dict) -> dict:
    kind = payload.get("type")
    if kind == "axioms":
        out = dict(payload)
        out["reports"] = [decode_axiom_report(r) for r in payload.get("reports", ())]
        return out
    if kind == "fit":
        return {"type": "fit", "result": _decode_fit_result(payload)}
    if kind == "limit":
        return {"type": "limit", "report": _decode_limit_report(payload)}
    if kind == "error":
        return dict(payload)
    raise DocumentError(f"unknown report type {kind!r}")


def to_document(obj: Any, *, kind: str | None = None) -> dict:
    """Wrap a supported value into its document dict.

    The kind is inferred from the type; plain mappings are ambiguous, so a
    utility (label to number mapping) or a prebuilt report payload must name
    its kind explicitly.
    """
    if kind is None:
        if isinstance(obj, RandomChoiceRule):
            kind = "rule"
        elif isinstance(obj, ChoiceCorrespondence):
            kind = "correspondence"
        elif isinstance(obj, LuceWeights):
            kind = "weights"
        elif isinstance(obj, ChoiceDataset):
            kind = "dataset"
        elif isinstance(obj, LuceDecomposition):
            kind = "decomposition"
        elif isinstance(obj, FitResult):
            kind = "report"
            obj = fit_result_payload(obj)
        elif isinstance(obj, LimitReport):
            kind = "report"
            obj = limit_report_payload(obj)
        else:
            raise DocumentError(f"cannot infer document kind for {type(obj).__name__}")
    if kind == "rule":
        payload = _rule_payload(obj)
    elif kind == "correspondence":
        payload = _correspondence_payload(obj)
    elif kind == "weights":
        payload = _weights_payload(obj)
    elif kind == "utility":
        payload = _utility_payload(obj)
    elif kind == "dataset":
        payload = _dataset_payload(obj)
    elif kind == "decomposition":
        payload = _decomposition_payload(obj)
    elif kind == "report":
        if isinstance(obj, FitResult):
            obj = fit_result_payload(obj)
        elif isinstance(obj, LimitReport):
            obj = limit_report_payload(obj)
        if not isinstance(obj, dict) or "type" not in obj:
            raise DocumentError("report payloads must be dicts with a 'type' field")
        payload = obj
    else:
        raise DocumentError(f"unknown document kind {kind!r}")
    return {"kind": kind, "version": DOCUMENT_VERSION, "payload": payload}


def from_document(doc: Any) -> Any:
    """Decode a document dict into its typed value.

    Returns a :class:`RandomChoiceRule`, :class:`ChoiceCorrespondence`,
    :class:`LuceWeights`, utility mapping, :class:`ChoiceDataset`,
    :class:`LuceDecomposition`, or, for reports, a dict holding the decoded
    objects under type-specific keys.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    version = doc.get("version")
    if version != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version {version!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("document payload must be an object")
    if kind == "rule":
        return _decode_rule(payload)
    if kind == "correspondence":
        return _decode_correspondence(payload)
    if kind == "weights":
        return _decode_weights(payload)
    if kind == "utility":
        return _decode_utility(payload)
    if kind == "dataset":
        return _decode_dataset(payload)
    if kind == "decomposition":
        return _decode_decomposition(payload)
    if kind == "report":
        return _decode_report(payload)
    raise DocumentError(f"unknown document kind {kind!r}")


def dumps_document(obj: Any, *, kind: str | None = None) -> str:
    """Canonical text form: stable key order, two-space indent, one trailing newline."""
    doc = obj if _is_document(obj) else to_document(obj, kind=kind)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _is_document(obj: Any) -> bool:
    return (
        isinstance(obj, dict)
        and set(obj) == {"kind", "version", "payload"}
        and obj.get("kind") in KINDS
    )


def _refuse_constant(name: str) -> None:
    raise DocumentError(f"non-finite number {name} in document")


def loads_document(text: str) -> Any:
    try:
        doc = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return from_document(doc)


def write_document(path: str, obj: Any, *, kind: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(obj, kind=kind))


def read_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads_document(text)
