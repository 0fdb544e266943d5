"""Reference rule decoding and canonical text for the property tests.

``decode_rule`` and ``build_rule`` are the rule decoder and the
``RandomChoiceRule`` constructor as they were before rules decoded straight
to integer rows: every cell is parsed into a ``Fraction`` (or a float),
copied into a table of Fractions and only then turned into the rows N_A
over D_A. ``canonical_text`` is the canonical writer as it was, json's own
indenting encoder. ``test_documents.py`` asserts that the package decodes to
the same table, rows and eps, refuses with the same text, and writes the
same bytes.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from fractions import Fraction
from types import SimpleNamespace

from lucekit import EXACT, FLOAT, ChoiceFamily, DocumentError
from lucekit.core import check_eps
from lucekit.documents import _build, _decode_universe, _number, _refuse, _rows, _shape

_FLOAT_MAX = sys.float_info.max


def canonical_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _huge_exponent(text: str) -> bool:
    limit = sys.get_int_max_str_digits()
    try:
        exponent = int(text.lower().rpartition("e")[2])
    except ValueError:
        return False
    return 0 < limit <= abs(exponent)


def decode_scalar(raw, what: str, *args):
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
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= _FLOAT_MAX:
        return float(raw)
    raise _refuse(raw, "a rational string or a finite number", what, args)


def _as_exact(value, a, cs) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(
        f"exact rules need Fraction or int probabilities, got {type(value).__name__} at ({a}, {cs})"
    )


def _as_float(value, a, cs) -> float:
    if isinstance(value, (bool, str)):
        raise ValueError(f"float cells must be numbers, got {type(value).__name__} at ({a}, {cs})")
    return float(value)


def build_rule(family, table, mode=EXACT, eps=1e-9) -> SimpleNamespace:
    """The rule's family, table, mode, eps and rows, or its ``ValueError``."""
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    check_eps(eps)
    extra = set(table) - set(family.sets)
    if extra:
        raise ValueError(f"table rows for sets outside the family: {sorted(map(repr, extra))}")
    position = family.universe._index
    canon, dens, nums = {}, [], []
    for cs in family:
        if cs not in table:
            raise ValueError(f"missing table row for {cs}")
        row = table[cs]
        unknown = set(row) - set(cs.members)
        if unknown:
            raise ValueError(f"mass assigned outside {cs}: {sorted(unknown)}")
        if mode == EXACT:
            vals = {a: _as_exact(row.get(a, 0), a, cs) for a in cs}
            den = math.lcm(*(x.denominator for x in vals.values()))
            cells = [x.numerator * (den // x.denominator) for x in vals.values()]
            if any(x < 0 or x > den for x in cells):
                raise ValueError(f"probabilities outside [0, 1] on {cs}")
            if sum(cells) != den:
                raise ValueError(f"masses on {cs} sum to {sum(vals.values())}, not 1")
        else:
            vals = {a: _as_float(row.get(a, 0.0), a, cs) for a in cs}
            for a, v in vals.items():
                if not math.isfinite(v):
                    raise ValueError(f"non-finite probability {v!r} at ({a}, {cs})")
            if any(v < -eps or v > 1.0 + eps for v in vals.values()):
                raise ValueError(f"probabilities outside [0, 1] (eps={eps}) on {cs}")
            if abs(sum(vals.values()) - 1.0) > eps * len(cs):
                raise ValueError(f"masses on {cs} sum to {sum(vals.values())}, not 1")
            if not any(v > eps for v in vals.values()):
                raise ValueError(f"empty support on {cs}")
            den, cells = 1.0, vals.values()
        num = [den * 0] * len(position)
        for a, x in zip(vals, cells):
            num[position[a]] = x
        canon[cs] = vals
        dens.append(den)
        nums.append(num)
    return SimpleNamespace(family=family, table=canon, mode=mode, eps=eps, _dens=dens, _nums=nums)


def decode_rule(payload: dict) -> SimpleNamespace:
    """A rule payload decoded cell by cell, or its ``DocumentError``."""
    universe = _decode_universe(payload)
    mode = payload.get("mode")
    if mode not in (EXACT, FLOAT):
        raise DocumentError(f"rule mode must be 'exact' or 'float', got {reprlib.repr(mode)}")
    table = {}
    for A, row in _rows(payload, "table", "rule table"):
        decoded = {}
        for a, raw in _shape(row.get("p"), dict, "probabilities of {}", A).items():
            v = decode_scalar(raw, "probability of {!r} in {}", a, A)
            if mode == EXACT and not isinstance(v, Fraction):
                raise DocumentError(f"exact rule has non-rational entry at ({a!r}, {A})")
            decoded[a] = v
        table[A] = decoded
    kwargs = {"eps": _number(payload["eps"], "rule eps")} if "eps" in payload else {}
    family = _build(ChoiceFamily, universe, table)
    return _build(build_rule, family, table, mode=mode, **kwargs)
