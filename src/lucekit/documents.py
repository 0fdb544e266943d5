"""JSON documents for rules, correspondences, weights, datasets, and reports.

Every file is one JSON object ``{"kind": ..., "version": "1", "payload":
...}``. Unknown kinds or versions are rejected, never guessed. Exact
probabilities travel as ``"num/den"`` strings so parsing reproduces the same
rationals bit for bit; floats travel as JSON numbers (shortest round-trip
decimals). Serialization is canonical: sorted keys, two-space indent,
trailing newline, so identical values produce identical bytes.

Decoding checks the shape of every value it reads (object, list, string,
number) and hands the rest to the constructors' own validation, so any
malformed document raises :class:`DocumentError` and nothing else.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .axioms import Axiom, AxiomReport, Witness
from .core import (
    DEFAULT_EPS,
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
from .errors import DocumentError
from .synthesize import LimitReport, LuceWeights

if TYPE_CHECKING:
    from .decompose import LuceDecomposition
    from .estimate import ChoiceDataset, FitResult

DOCUMENT_VERSION = "1"

_FLOAT_MAX = sys.float_info.max

_JSON_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string",
               int: "an integer", bool: "true or false"}


def _build(ctor, *args, **kwargs):
    """``ctor(*args, **kwargs)``, its ``ValueError``/``TypeError`` as ``DocumentError``."""
    try:
        return ctor(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def _refuse(raw: Any, expected: str, what: str, args: tuple) -> DocumentError:
    # Checks name the value as what.format(*args), formatted only here, on
    # failure, so that decoding a valid table formats no messages.
    return DocumentError(f"{what.format(*args)} must be {expected}, got {reprlib.repr(raw)}")


def _shape(raw: Any, kind: type, what: str, *args: Any) -> Any:
    """``raw`` if it is of JSON type ``kind`` (a bool is not an integer)."""
    if isinstance(raw, kind) and (kind is bool or not isinstance(raw, bool)):
        return raw
    raise _refuse(raw, _JSON_NAMES[kind], what, args)


def _strings(raw: Any, what: str) -> list[str]:
    if not all(map(isinstance, _shape(raw, list, what), repeat(str))):
        raise _refuse(raw, "a list of strings", what, ())
    return raw


def _number(raw: Any, what: str, *args: Any) -> float:
    # abs(raw) <= the largest float refuses NaN, infinities and huge ints.
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= _FLOAT_MAX:
        return float(raw)
    raise _refuse(raw, "a finite number", what, args)


def _numbers(payload: dict, key: str, what: str) -> tuple[float, ...]:
    name = f"{what} {key!r}"
    return tuple(_number(x, "entry of {}", name) for x in _shape(payload.get(key, []), list, name))


def _rows(payload: dict, key: str, what: str) -> Iterator[tuple[ChoiceSet, dict]]:
    """Each object in the list ``payload[key]`` with its decoded ``"set"``; no set twice."""
    seen: set[ChoiceSet] = set()
    for row in _shape(payload.get(key), list, what):
        A = _decode_set(_shape(row, dict, "row of {}", what).get("set"))
        if A in seen:
            raise DocumentError(f"duplicate row for {A}")
        seen.add(A)
        yield A, row


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


def _huge_exponent(text: str) -> bool:
    """Whether ``Fraction(text)`` would build 10**|exponent| with more digits
    than ``int`` parses from a string: a twelve-character ``"1e100000000"``
    would otherwise hold the decoder for minutes."""
    limit = sys.get_int_max_str_digits()
    try:
        exponent = int(text.lower().rpartition("e")[2])
    except ValueError:  # not a decimal exponent; Fraction refuses what it cannot read
        return False
    return 0 < limit <= abs(exponent)


def _decode_scalar(raw: Any, what: str, *args: Any) -> Value:
    """A rational string as a Fraction, a finite JSON number as a float."""
    if isinstance(raw, str):
        if ("e" in raw or "E" in raw) and _huge_exponent(raw):
            raise DocumentError(
                f"rational literal {reprlib.repr(raw)} has an exponent that would build "
                f"an integer of more than {sys.get_int_max_str_digits()} digits"
            )
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational literal {reprlib.repr(raw)}") from exc
    # _number's test, inline.
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= _FLOAT_MAX:
        return float(raw)
    raise _refuse(raw, "a rational string or a finite number", what, args)


def _literal(raw: str) -> tuple[int, int]:
    """A rational string as (numerator, denominator > 0): decimal ``p`` or ``p/q`` with
    ``int``, any other with ``Fraction``, which reads the same value or refuses it."""
    num, slash, den = raw.partition("/")
    limit = sys.get_int_max_str_digits()  # 0 for none
    if num.isdecimal() and (den.isdecimal() or not slash) and not 0 < limit < len(raw):
        if int(den or 1):
            return int(num), int(den or 1)
    x = _decode_scalar(raw, "rational literal")
    return x.numerator, x.denominator


def _exact_row(cells: dict, A: ChoiceSet, read: dict[str, tuple[int, int]]) -> dict:
    """An exact rule's cells as {label: (numerator, denominator)}, from rational strings
    only. ``read`` holds the pairs of the literals read so far: each is parsed once."""
    try:
        return dict(zip(cells, map(read.__getitem__, cells.values())))
    except (KeyError, TypeError):  # a literal not read yet, or a cell that is none
        pass
    for a, raw in cells.items():
        if not isinstance(raw, str):
            _decode_scalar(raw, "probability of {!r} in {}", a, A)  # refuses what is no number
            raise DocumentError(f"exact rule has non-rational entry at ({a!r}, {A})")
        if raw not in read:
            read[raw] = _literal(raw)
    return dict(zip(cells, map(read.__getitem__, cells.values())))


def _decode_value(raw: Any, what: str) -> Value | ExtendedRatio | None:
    if raw is None:
        return None
    if isinstance(raw, dict):
        kind = raw.get("ratio")
        if kind == ExtendedRatio.FINITE:
            return ExtendedRatio(kind, _decode_scalar(raw.get("value"), what))
        if kind in (ExtendedRatio.INFINITE, ExtendedRatio.INDETERMINATE):
            return ExtendedRatio(kind)
        raise DocumentError(f"bad ratio tag {reprlib.repr(raw)}")
    return _decode_scalar(raw, what)


def _decode_universe(payload: dict) -> Universe:
    return _build(Universe, _strings(payload.get("universe"), "universe"))


def _decode_set(raw: Any) -> ChoiceSet:
    return _build(ChoiceSet, _strings(raw, "choice set"))


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, reduced by gcd without building the Fraction."""
    common = math.gcd(num, den)
    return str(num // common) if common == den else f"{num // common}/{den // common}"


def _rule_payload(rule: RandomChoiceRule) -> dict:
    position = rule.universe._index  # type: ignore[attr-defined]
    cell = _ratio if rule.mode == EXACT else (lambda num, den: num)
    payload: dict[str, Any] = {
        "universe": list(rule.universe.alternatives),
        "mode": rule.mode,
        "table": [
            {"set": list(A.members), "p": {a: cell(num[position[a]], den) for a in A.members}}
            for A, den, num in zip(rule.family.sets, rule._dens, rule._nums)  # type: ignore[attr-defined]
        ],
    }
    if rule.mode == FLOAT:
        payload["eps"] = rule.eps
    return payload


def _decode_rule(payload: dict) -> RandomChoiceRule:
    """A rule, exact cells read straight to (numerator, denominator) pairs. Faults
    come in the order: literal and shape errors, family errors, then the rows'
    checks in family order."""
    universe = _decode_universe(payload)
    mode = payload.get("mode")
    if mode not in (EXACT, FLOAT):
        raise DocumentError(f"rule mode must be 'exact' or 'float', got {reprlib.repr(mode)}")
    table: dict[ChoiceSet, dict[str, Any]] = {}
    literals: dict[str, tuple[int, int]] = {}
    for A, row in _rows(payload, "table", "rule table"):
        cells = _shape(row.get("p"), dict, "probabilities of {}", A)
        if mode == EXACT:
            table[A] = _exact_row(cells, A, literals)
        else:
            table[A] = {a: _decode_scalar(x, "probability of {!r} in {}", a, A) for a, x in cells.items()}
    eps = _number(payload["eps"], "rule eps") if "eps" in payload else DEFAULT_EPS
    family = _build(ChoiceFamily, universe, table)
    if mode == EXACT:
        return _build(RandomChoiceRule._of_pairs, family, table, eps)
    return _build(RandomChoiceRule, family, table, mode=mode, eps=eps)


def _correspondence_payload(corr: ChoiceCorrespondence) -> dict:
    return {
        "universe": list(corr.universe.alternatives),
        "table": [
            {"set": list(A.members), "chosen": list(corr.gamma(A).members)}
            for A in corr.family
        ],
    }


def _decode_correspondence(payload: dict) -> ChoiceCorrespondence:
    universe = _decode_universe(payload)
    table = {
        A: _decode_set(row.get("chosen"))
        for A, row in _rows(payload, "table", "correspondence table")
    }
    return _build(ChoiceCorrespondence, _build(ChoiceFamily, universe, table), table)


def _weights_payload(weights: LuceWeights) -> dict:
    return {
        "universe": list(weights.universe.alternatives),
        "mode": weights.mode,
        "v": {a: _encode_value(weights.v[a]) for a in weights.universe},
    }


def _decode_weights(payload: dict) -> LuceWeights:
    universe = _decode_universe(payload)
    v = _shape(payload.get("v"), dict, "weights 'v'")
    return _build(
        LuceWeights, universe, {a: _decode_scalar(x, "weight for {!r}", a) for a, x in v.items()}
    )


def _utility_payload(u: Mapping[str, float]) -> dict:
    return {"u": {a: float(x) for a, x in u.items()}}


def _decode_utility(payload: dict) -> dict[str, float]:
    u = _shape(payload.get("u"), dict, "utility 'u'")
    if not u:
        raise DocumentError("utility payload needs a nonempty 'u' mapping")
    return {a: _number(x, "utility for {!r}", a) for a, x in u.items()}


def _dataset_payload(data: ChoiceDataset) -> dict:
    return {
        "universe": list(data.universe.alternatives),
        "observations": [
            {
                "set": list(A.members),
                "counts": {a: data.observations[A][a] for a in A},
            }
            for A in sorted(data.observations, key=lambda s: (len(s), s.members))
        ],
    }


def _decode_dataset(payload: dict) -> ChoiceDataset:
    from .estimate import ChoiceDataset

    universe = _decode_universe(payload)
    obs = {
        A: _shape(row.get("counts"), dict, "counts of {}", A)
        for A, row in _rows(payload, "observations", "dataset observations")
    }
    return _build(ChoiceDataset, universe, obs)


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
    raw = _shape(raw, dict, "witness")
    return Witness(
        axiom=_build(Axiom, raw.get("axiom")),
        sets=tuple(_decode_set(s) for s in _shape(raw.get("sets"), list, "witness sets")),
        elements=tuple(_strings(raw.get("elements", []), "witness elements")),
        lhs=_decode_value(raw.get("lhs"), "witness lhs"),
        rhs=_decode_value(raw.get("rhs"), "witness rhs"),
        detail=_shape(raw.get("detail", ""), str, "witness detail"),
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
    raw = _shape(raw, dict, "axiom report")
    kinds = {"holds": bool, "violation_count": int, "pairs_checked": int, "family_complete": bool}
    fields = {
        key: _shape(raw.get(key), kind, "axiom report {!r}", key) for key, kind in kinds.items()
    }
    witnesses = _shape(raw.get("witnesses", []), list, "axiom report 'witnesses'")
    return _build(
        AxiomReport,
        axiom=_build(Axiom, raw.get("axiom")),
        witnesses=tuple(decode_witness(w) for w in witnesses),
        **fields,
    )


def _decomposition_payload(dec: LuceDecomposition) -> dict:
    return {
        "universe": list(dec.universe.alternatives),
        "gamma": _correspondence_payload(dec.gamma),
        "classes": [list(group) for group in dec.classes],
        "representatives": list(dec.representatives),
        "v": {a: _encode_value(dec.v[a]) for a in dec.universe},
        "alpha": {a: float(dec.alpha[a]) for a in dec.universe},
        "reconstruction_verified": True,
    }


def _decode_decomposition(payload: dict) -> LuceDecomposition:
    from .decompose import LuceDecomposition

    gamma = _decode_correspondence(_shape(payload.get("gamma"), dict, "decomposition 'gamma'"))
    classes = tuple(
        tuple(_strings(group, "decomposition class"))
        for group in _shape(payload.get("classes"), list, "decomposition 'classes'")
    )
    v = _shape(payload.get("v"), dict, "decomposition 'v'")
    alpha = _shape(payload.get("alpha"), dict, "decomposition 'alpha'")
    if not set(v) == set(alpha) == set(gamma.universe.alternatives):
        raise DocumentError("decomposition 'v' and 'alpha' must cover the universe")
    return LuceDecomposition(
        gamma=gamma,
        order=_build(WeakOrder.from_classes, gamma.universe, classes),
        classes=classes,
        representatives=tuple(_strings(payload.get("representatives", []), "representatives")),
        v={a: _decode_scalar(x, "weight for {!r}", a) for a, x in v.items()},
        alpha={a: _number(x, "alpha for {!r}", a) for a, x in alpha.items()},
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
    from .estimate import FitResult

    alpha = payload.get("alpha_hat")
    ll = payload.get("log_likelihood")
    stop = payload.get("stop_reason")
    components = _shape(payload.get("components", []), list, "fit 'components'")
    return FitResult(
        gamma_hat=_decode_correspondence(_shape(payload.get("gamma_hat"), dict, "fit 'gamma_hat'")),
        alpha_hat=None if alpha is None else {
            a: _number(x, "alpha_hat for {!r}", a)
            for a, x in _shape(alpha, dict, "fit 'alpha_hat'").items()
        },
        log_likelihood=math.nan if ll is None else _number(ll, "fit 'log_likelihood'"),
        converged=_shape(payload.get("converged"), bool, "fit 'converged'"),
        warp_report=decode_axiom_report(payload.get("warp_report")),
        separated=tuple(_strings(payload.get("separated", []), "fit 'separated'")),
        components=tuple(tuple(_strings(c, "fit component")) for c in components),
        ll_path=_numbers(payload, "ll_path", "fit"),
        iterations=_shape(payload.get("iterations", 0), int, "fit 'iterations'"),
        stop_reason=None if stop is None else _shape(stop, str, "fit 'stop_reason'"),
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
    lambdas = _numbers(payload, "lambdas", "limit report")
    distances = _numbers(payload, "distances", "limit report")
    if not distances or len(distances) != len(lambdas):
        raise DocumentError("limit report needs one distance per noise level")
    tolerance = _number(payload.get("tolerance"), "limit report 'tolerance'")
    return LimitReport(lambdas=lambdas, distances=distances, tolerance=tolerance)


def _report_payload(obj: Any) -> dict:
    if _is_a(obj, ("estimate.FitResult",)):
        return fit_result_payload(obj)
    if isinstance(obj, LimitReport):
        return limit_report_payload(obj)
    if not isinstance(obj, dict) or "type" not in obj:
        raise DocumentError("report payloads must be dicts with a 'type' field")
    return obj


def _decode_report(payload: dict) -> dict:
    kind = payload.get("type")
    if kind == "axioms":
        reports = _shape(payload.get("reports", []), list, "axioms report 'reports'")
        return {**payload, "reports": [decode_axiom_report(r) for r in reports]}
    if kind == "fit":
        return {"type": "fit", "result": _decode_fit_result(payload)}
    if kind == "limit":
        return {"type": "limit", "report": _decode_limit_report(payload)}
    if kind == "error":
        return dict(payload)
    raise DocumentError(f"unknown report type {reprlib.repr(kind)}")


def _is_a(obj: Any, names: tuple[str, ...]) -> bool:
    """Whether ``obj`` is an instance of one of the types ``names``, each
    ``module.Type`` in lucekit; told by name, so that inference imports nothing."""
    full = {f"{__package__}.{name}" for name in names}
    return any(f"{c.__module__}.{c.__qualname__}" in full for c in type(obj).__mro__)


# kind -> (the types that infer the kind, payload encoder, payload decoder). A
# utility is a plain mapping, so it is encoded only when named explicitly.
_CODECS = {
    "rule": (("core.RandomChoiceRule",), _rule_payload, _decode_rule),
    "correspondence": (
        ("core.ChoiceCorrespondence",), _correspondence_payload, _decode_correspondence
    ),
    "weights": (("synthesize.LuceWeights",), _weights_payload, _decode_weights),
    "utility": ((), _utility_payload, _decode_utility),
    "dataset": (("estimate.ChoiceDataset",), _dataset_payload, _decode_dataset),
    "report": (("estimate.FitResult", "synthesize.LimitReport"), _report_payload, _decode_report),
    "decomposition": (
        ("decompose.LuceDecomposition",), _decomposition_payload, _decode_decomposition
    ),
}
KINDS = tuple(_CODECS)


def _codec(kind: Any) -> tuple:
    if kind not in KINDS:  # a tuple test, so an unhashable kind is refused too
        raise DocumentError(f"unknown document kind {reprlib.repr(kind)}")
    return _CODECS[kind]


def to_document(obj: Any, *, kind: str | None = None) -> dict:
    """Wrap a supported value into its document dict.

    The kind is inferred from the type; plain mappings are ambiguous, so a
    utility (label to number mapping) or a prebuilt report payload must name
    its kind explicitly.
    """
    if kind is None:
        kind = next((k for k, (cls, _, _) in _CODECS.items() if _is_a(obj, cls)), None)
        if kind is None:
            raise DocumentError(f"cannot infer document kind for {type(obj).__name__}")
    _, encode, _ = _codec(kind)
    return {"kind": kind, "version": DOCUMENT_VERSION, "payload": encode(obj)}


def from_document(doc: Any, *, kind: str | None = None) -> Any:
    """Decode a document dict into its typed value.

    Returns a :class:`RandomChoiceRule`, :class:`ChoiceCorrespondence`,
    :class:`LuceWeights`, utility mapping, :class:`ChoiceDataset`,
    :class:`LuceDecomposition`, or, for reports, a dict holding the decoded
    objects under type-specific keys. With ``kind``, a document of any other
    kind is refused before its payload is read.
    """
    doc = _shape(doc, dict, "document")
    version = doc.get("version")
    if version != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version {reprlib.repr(version)}")
    if kind is not None and doc.get("kind") != kind:
        raise DocumentError(
            f"document of kind {reprlib.repr(doc.get('kind'))} is not a {kind} document"
        )
    _, _, decode = _codec(doc.get("kind"))
    return decode(_shape(doc.get("payload"), dict, "document payload"))


def dumps_document(obj: Any, *, kind: str | None = None) -> str:
    """Canonical text: ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
    and a newline, errors included, written by :func:`_json_text` rather than by
    json's indenting encoder, which is pure Python."""
    doc = obj if _is_document(obj) else to_document(obj, kind=kind)
    try:
        return _json_text(doc, "\n") + "\n"
    except (KeyError, TypeError, RecursionError):  # a type, key or depth the walk leaves to json
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii  # json's C string encoder


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


# json's text for a scalar of exactly these types.
_SCALARS = {str: _ESCAPE, int: int.__repr__, float: _json_float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(value: Any, indent: str) -> str:
    """``value`` as json's indenting encoder writes it (sorted keys, two spaces, no
    NaN), ``indent`` being a newline and the enclosing spaces: dicts, lists and
    tuples walked here, with string keys; scalars from :data:`_SCALARS`. Any other
    type or key raises ``KeyError`` or ``TypeError``."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        return _SCALARS[kind](value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    get = _SCALARS.get  # the scalars, inline
    if kind is dict:
        parts = [
            _ESCAPE(k) + ": " + (w(v) if (w := get(type(v))) else _json_text(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    parts = [w(x) if (w := get(type(x))) else _json_text(x, inner) for x in value]
    return "[" + inner + ("," + inner).join(parts) + indent + "]"


def _is_document(obj: Any) -> bool:
    return (
        isinstance(obj, dict)
        and set(obj) == {"kind", "version", "payload"}
        and obj.get("kind") in KINDS
    )


def _refuse_constant(name: str) -> None:
    raise DocumentError(f"non-finite number {name} in document")


def _parse(text: str) -> Any:
    """The JSON value in ``text``; bare NaN/Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, over-long integers
        raise DocumentError(f"not valid JSON: {exc}") from exc


def loads_document(text: str, *, kind: str | None = None) -> Any:
    return from_document(_parse(text), kind=kind)


def write_document(path: str, obj: Any, *, kind: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(obj, kind=kind))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError; a NUL in the path
        raise DocumentError(f"cannot read {path!r}: {exc}") from exc


def read_document(path: str, *, kind: str | None = None) -> Any:
    return loads_document(_read_text(path), kind=kind)
