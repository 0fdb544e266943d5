"""JSON documents for rules, correspondences, weights, datasets, and reports.

Every file is one JSON object ``{"kind": ..., "version": "1", "payload":
...}``. Unknown kinds or versions are rejected, never guessed. Exact
probabilities travel as ``"num/den"`` strings so parsing reproduces the same
rationals bit for bit; floats travel as JSON numbers (shortest round-trip
decimals). Serialization is canonical: sorted keys, two-space indent,
trailing newline, so identical values produce identical bytes.

Each kind but the rule, and the fit and limit reports, is one field table
(:class:`_Table`) naming every payload key once, with its writer and reader.
Decoding checks the shape of every value it reads, leaves finiteness to
:func:`lucekit.core._finite` and the rest to the constructors' validation, so
any malformed document raises :class:`DocumentError` and nothing else.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from importlib import import_module
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator

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
    _finite,
    set_sort_key,
)
from .errors import DocumentError
from .synthesize import LimitReport, LuceWeights

if TYPE_CHECKING:
    from .decompose import LuceDecomposition

DOCUMENT_VERSION = "1"

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


def _strings(raw: Any, what: str) -> tuple[str, ...]:
    if not all(map(isinstance, _shape(raw, list, what), repeat(str))):
        raise _refuse(raw, "a list of strings", what, ())
    return tuple(raw)


def _number(raw: Any, what: str, *args: Any) -> float:
    if not math.isnan(x := _finite(raw)):
        return x
    raise _refuse(raw, "a finite number", what, args)


def _rows(payload: dict, key: str, what: str) -> Iterator[tuple[ChoiceSet, dict]]:
    """Each object in the list ``payload[key]`` with its decoded ``"set"``; no set twice."""
    return _set_rows(payload.get(key), what)


def _set_rows(raw: Any, what: str) -> Iterator[tuple[ChoiceSet, dict]]:
    seen: set[ChoiceSet] = set()
    for row in _shape(raw, list, what):
        A = _decode_set(_shape(row, dict, "row of {}", what).get("set"))
        if A in seen:
            raise DocumentError(f"duplicate row for {A}")
        seen.add(A)
        yield A, row


def _encode_value(v: Value | ExtendedRatio | None) -> Any:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, ExtendedRatio):
        out: dict[str, Any] = {"ratio": v.kind}
        if v.is_finite:
            out["value"] = _encode_value(v.value)
        return out
    return None if v is None else float(v)


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
    if not math.isnan(x := _finite(raw)):
        return x
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
    return _UNIVERSE.read(payload.get("universe"), "universe")


def _decode_set(raw: Any, what: str = "choice set") -> ChoiceSet:
    return _build(ChoiceSet, _strings(raw, what))


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


# One payload key and the attribute of the same name: its writer (attribute to JSON value;
# None to write it as it is), its reader ((JSON value, name) to attribute; None for a key
# only written), the name refusals give the value, and what a missing key reads as.
_Field = namedtuple("_Field", "key write read name default", defaults=("", None))


class _Table:
    """A kind's fields, read in this order; ``build`` makes the value from the attributes
    read, passed by name. ``get(value, key)`` reads a key's attribute (by default
    ``value.key``); ``const`` holds keys written with one literal value. ``encode`` is one
    dict display made from the fields, as :mod:`dataclasses` makes ``__init__``: zipping
    keys with values took twice as long on a report's witnesses."""

    def __init__(self, build: Callable, *fields: _Field, get: Callable | None = None,
                 const: dict | None = None) -> None:
        self.build = build
        self.readers = tuple(f for f in fields if f.read)
        env, items = {"get": get}, []
        for i, f in enumerate(fields):
            env[f"w{i}"] = f.write
            value = f"obj.{f.key}" if get is None else f"get(obj, {f.key!r})"
            items.append(f"{f.key!r}: " + (value if f.write is None else f"w{i}({value})"))
        items += [f"{k!r}: {v!r}" for k, v in (const or {}).items()]
        exec(f"def encode(obj):\n    return {{{', '.join(items)}}}", env)
        self.encode = env["encode"]

    def decode(self, raw: Any, what: str = "document payload") -> Any:
        raw = _shape(raw, dict, what)
        return self.build(**{f.key: f.read(raw.get(f.key, f.default), f.name) for f in self.readers})


def _lazy(name: str) -> Callable:
    """Builds with the lucekit type ``module.Type``, imported when first used, so that
    reading a rule imports neither ``estimate`` nor ``decompose``."""
    module, _, type_name = name.partition(".")
    return lambda **fields: _build(getattr(import_module(f".{module}", __package__), type_name), **fields)


def _of(kind: type) -> Callable:
    return lambda raw, name: _shape(raw, kind, name)


def _each(read: Callable, item: str) -> Callable:
    """A list read as a tuple, each entry read by ``read`` as ``item``."""
    return lambda raw, name: tuple(read(x, item) for x in _shape(raw, list, name))


def _by_label(read: Callable, entry: str) -> Callable:
    """An object read as a dict, each value read by ``read`` as ``entry`` formatted with its key."""
    return lambda raw, name: {a: read(x, entry, a) for a, x in _shape(raw, dict, name).items()}


def _or(none: Any, read: Callable) -> Callable:
    """``read``, with null read as ``none``."""
    return lambda raw, name: none if raw is None else read(raw, name)


def _per_set(read: Callable) -> Callable:
    """A list of rows, each an object with a ``"set"``, read as {set: read(row, set)}."""
    return lambda raw, name: {A: read(row, A) for A, row in _set_rows(raw, name)}


def _lists(groups: Any) -> list[list[str]]:
    return [list(group) for group in groups]


def _values(v: dict) -> dict:
    return {a: _encode_value(x) for a, x in v.items()}


def _floats(v: Any) -> dict[str, float]:
    return {a: float(x) for a, x in v.items()}


_UNIVERSE = _Field("universe", lambda universe: list(universe.alternatives),
                   lambda raw, name: _build(Universe, _strings(raw, name)), "universe")
_AXIOM = _Field("axiom", attrgetter("_value_"), lambda raw, name: _build(Axiom, raw))  # no property call

_WITNESS = _Table(
    Witness,
    _AXIOM,
    _Field("sets", lambda sets: [list(A.members) for A in sets], _each(_decode_set, "choice set"),
           "witness sets"),
    _Field("elements", list, _strings, "witness elements", []),
    _Field("lhs", _encode_value, _decode_value, "witness lhs"),
    _Field("rhs", _encode_value, _decode_value, "witness rhs"),
    _Field("detail", None, _of(str), "witness detail", ""),
)
_AXIOM_REPORT = _Table(
    partial(_build, AxiomReport),
    _AXIOM,
    _Field("verdict", None, None),
    _Field("holds", None, _of(bool), "axiom report 'holds'"),
    _Field("violation_count", None, _of(int), "axiom report 'violation_count'"),
    _Field("pairs_checked", None, _of(int), "axiom report 'pairs_checked'"),
    _Field("family_complete", None, _of(bool), "axiom report 'family_complete'"),
    _Field("witnesses", lambda ws: list(map(_WITNESS.encode, ws)), _each(_WITNESS.decode, "witness"),
           "axiom report 'witnesses'", []),
)
encode_axiom_report = _AXIOM_REPORT.encode
decode_axiom_report = partial(_AXIOM_REPORT.decode, what="axiom report")

_CORRESPONDENCE = _Table(
    lambda universe, table: _build(ChoiceCorrespondence, _build(ChoiceFamily, universe, table), table),
    _UNIVERSE,
    _Field("table", lambda table: [{"set": list(A.members), "chosen": list(G.members)}
                                   for A, G in table.items()],
           _per_set(lambda row, A: _decode_set(row.get("chosen"))), "correspondence table"),
)
_WEIGHTS = _Table(
    partial(_build, LuceWeights),
    _UNIVERSE,
    _Field("mode", None, None),
    _Field("v", _values, _by_label(_decode_scalar, "weight for {!r}"), "weights 'v'"),
)


def _utility(u: dict[str, float]) -> dict[str, float]:
    if not u:
        raise DocumentError("utility payload needs a nonempty 'u' mapping")
    return u


_UTILITY = _Table(  # a utility is a plain mapping, written whole under "u"
    _utility, _Field("u", _floats, _by_label(_number, "utility for {!r}"), "utility 'u'"),
    get=lambda u, key: u,
)
_DATASET = _Table(
    _lazy("estimate.ChoiceDataset"),
    _UNIVERSE,
    _Field("observations", lambda obs: [{"set": list(A.members), "counts": dict(obs[A])}
                                        for A in sorted(obs, key=set_sort_key)],
           _per_set(lambda row, A: _shape(row.get("counts"), dict, "counts of {}", A)),
           "dataset observations"),
)


def _decomposition(gamma, classes, representatives, v, alpha) -> LuceDecomposition:
    from .decompose import LuceDecomposition

    if not set(v) == set(alpha) == set(gamma.universe.alternatives):
        raise DocumentError("decomposition 'v' and 'alpha' must cover the universe")
    order = _build(WeakOrder.from_classes, gamma.universe, classes)
    _build(LuceWeights, gamma.universe, v)  # refuses weights that are not positive and finite
    if representatives != tuple(group[0] if group else None for group in classes):
        raise _refuse(list(representatives), "the first member of each class",
                      "decomposition 'representatives'", ())
    return LuceDecomposition(gamma=gamma, order=order, classes=classes,
                             representatives=representatives, v=v, alpha=alpha)


_DECOMPOSITION = _Table(
    _decomposition,
    _UNIVERSE._replace(read=None),
    _Field("gamma", _CORRESPONDENCE.encode, _CORRESPONDENCE.decode, "decomposition 'gamma'"),
    _Field("classes", _lists, _each(_strings, "decomposition class"), "decomposition 'classes'"),
    _Field("representatives", list, _strings, "representatives"),
    _Field("v", _values, _by_label(_decode_scalar, "weight for {!r}"), "decomposition 'v'"),
    _Field("alpha", _floats, _by_label(_number, "alpha for {!r}"), "decomposition 'alpha'"),
    const={"reconstruction_verified": True},
)
_FIT = _Table(
    _lazy("estimate.FitResult"),
    _Field("gamma_hat", _CORRESPONDENCE.encode, _CORRESPONDENCE.decode, "fit 'gamma_hat'"),
    _Field("alpha_hat", lambda alpha: None if alpha is None else _floats(alpha),
           _or(None, _by_label(_number, "alpha_hat for {!r}")), "fit 'alpha_hat'"),
    _Field("log_likelihood", lambda ll: None if math.isnan(ll) else ll, _or(math.nan, _number),
           "fit 'log_likelihood'"),
    _Field("converged", None, _of(bool), "fit 'converged'"),
    _Field("warp_report", encode_axiom_report, _AXIOM_REPORT.decode, "axiom report"),
    _Field("separated", list, _strings, "fit 'separated'", []),
    _Field("components", _lists, _each(_strings, "fit component"), "fit 'components'", []),
    _Field("ll_path", list, _each(_number, "entry of fit 'll_path'"), "fit 'll_path'", []),
    _Field("iterations", None, _of(int), "fit 'iterations'", 0),
    _Field("stop_reason", None, _or(None, _of(str)), "fit 'stop_reason'"),
)


def _limit_report(lambdas: tuple, distances: tuple, tolerance: float) -> LimitReport:
    if not distances or len(distances) != len(lambdas):
        raise DocumentError("limit report needs one distance per noise level")
    return LimitReport(lambdas=lambdas, distances=distances, tolerance=tolerance)


_LIMIT = _Table(
    _limit_report,
    _Field("lambdas", list, _each(_number, "entry of limit report 'lambdas'"),
           "limit report 'lambdas'", []),
    _Field("distances", list, _each(_number, "entry of limit report 'distances'"),
           "limit report 'distances'", []),
    _Field("tolerance", None, _number, "limit report 'tolerance'"),
    _Field("tail_monotone", None, None),
    _Field("final_distance", None, None),
    _Field("converged", None, None),
)

# report type -> (the type that infers it, the key it is decoded under, its table).
# Axioms and error reports are dicts, written as they are.
_REPORTS = {"fit": ("estimate.FitResult", "result", _FIT),
            "limit": ("synthesize.LimitReport", "report", _LIMIT)}


def _report_payload(obj: Any) -> dict:
    for kind, (name, _, table) in _REPORTS.items():
        if _is_a(obj, (name,)):
            return {"type": kind, **table.encode(obj)}
    if not isinstance(obj, dict) or "type" not in obj:
        raise DocumentError("report payloads must be dicts with a 'type' field")
    return obj


def _decode_report(payload: dict) -> dict:
    kind = payload.get("type")
    if kind == "axioms":
        reports = _shape(payload.get("reports", []), list, "axioms report 'reports'")
        return {**payload, "reports": [decode_axiom_report(r) for r in reports]}
    if kind == "error":
        return dict(payload)
    if kind not in tuple(_REPORTS):  # a tuple test, so an unhashable type is refused too
        raise DocumentError(f"unknown report type {reprlib.repr(kind)}")
    _, key, table = _REPORTS[kind]
    return {"type": kind, key: table.decode(payload)}


def _is_a(obj: Any, names: tuple[str, ...]) -> bool:
    """Whether ``obj`` is an instance of one of the types ``names``, each
    ``module.Type`` in lucekit; told by name, so that inference imports nothing."""
    full = {f"{__package__}.{name}" for name in names}
    return any(f"{c.__module__}.{c.__qualname__}" in full for c in type(obj).__mro__)


# kind -> (the types that infer the kind, payload encoder, payload decoder). A
# utility is a plain mapping, so it is encoded only when named explicitly.
_CODECS = {
    "rule": (("core.RandomChoiceRule",), _rule_payload, _decode_rule),
    "correspondence": (("core.ChoiceCorrespondence",), _CORRESPONDENCE.encode, _CORRESPONDENCE.decode),
    "weights": (("synthesize.LuceWeights",), _WEIGHTS.encode, _WEIGHTS.decode),
    "utility": ((), _UTILITY.encode, _UTILITY.decode),
    "dataset": (("estimate.ChoiceDataset",), _DATASET.encode, _DATASET.decode),
    "report": (tuple(name for name, _, _ in _REPORTS.values()), _report_payload, _decode_report),
    "decomposition": (("decompose.LuceDecomposition",), _DECOMPOSITION.encode, _DECOMPOSITION.decode),
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
