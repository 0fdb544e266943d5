import copy
import dataclasses
import json
import math
import random
import reprlib
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucekit import (
    AxiomReport,
    ChoiceDataset,
    ChoiceFamily,
    ChoiceSet,
    DocumentError,
    ExtendedRatio,
    LucekitError,
    LuceWeights,
    RandomChoiceRule,
    Universe,
    WeakOrder,
    check_all,
    check_odds_independence,
    correspondence_from_order,
    decompose,
    dumps_document,
    fit,
    from_document,
    general_luce_rule,
    limit_check,
    loads_document,
    read_document,
    to_document,
    write_document,
)
from lucekit import documents
from lucekit.documents import (
    KINDS,
    _decode_scalar,
    decode_axiom_report,
    encode_axiom_report,
)

import helpers
import oracle_documents
from test_axioms import bad_rule


def _round_trip(obj, kind=None):
    text = dumps_document(obj, kind=kind)
    back = loads_document(text)
    assert dumps_document(back, kind=kind) == text
    return back


class TestRuleDocuments:
    def test_exact_rule_round_trip(self):
        rng = random.Random(1)
        rule = helpers.random_synthesized_rule(4, rng)
        back = _round_trip(rule)
        assert back.table == rule.table
        assert back.mode == rule.mode

    def test_float_rule_round_trip(self):
        rng = random.Random(2)
        rule = helpers.random_synthesized_rule(3, rng).as_float(eps=1e-8)
        back = _round_trip(rule)
        assert back.eps == 1e-8
        assert back.table == rule.table

    def test_fractions_encode_as_rational_strings(self):
        rng = random.Random(3)
        rule = helpers.random_synthesized_rule(3, rng)
        doc = to_document(rule)
        rows = doc["payload"]["table"]
        seen = [v for row in rows for v in row["p"].values()]
        assert seen and all(isinstance(v, str) for v in seen)
        assert all(Fraction(v) == Fraction(v) for v in seen)  # all parse
        assert any("/" in v for v in seen)
        # Float rules use plain numbers instead.
        float_doc = to_document(rule.as_float())
        float_seen = [
            v for row in float_doc["payload"]["table"] for v in row["p"].values()
        ]
        assert all(isinstance(v, float) or isinstance(v, int) for v in float_seen)

    def test_canonical_text_is_stable(self):
        rng = random.Random(4)
        rule = helpers.random_synthesized_rule(4, rng)
        a = dumps_document(rule)
        b = dumps_document(loads_document(a))
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["version"] == "1"


class TestOtherKinds:
    def test_correspondence_round_trip(self):
        rng = random.Random(5)
        u = helpers.universe_of(4)
        gamma = helpers.random_warp_correspondence(u, rng)
        back = _round_trip(gamma)
        assert back.table == gamma.table

    def test_weights_round_trip_both_modes(self):
        u = Universe("abc")
        exact = LuceWeights.from_v(u, {"a": Fraction(1), "b": Fraction(1, 3), "c": Fraction(2)})
        assert _round_trip(exact).v == exact.v
        floaty = LuceWeights.from_alpha(u, {"a": 0.0, "b": -1.5, "c": 2.25})
        back = _round_trip(floaty)
        assert back.alpha == pytest.approx(floaty.alpha)

    def test_utility_needs_explicit_kind(self):
        util = {"a": 1.0, "b": 0.0}
        with pytest.raises(DocumentError):
            to_document(util)
        back = _round_trip(util, kind="utility")
        assert back == util

    def test_dataset_round_trip(self):
        u = Universe("abc")
        data = ChoiceDataset(
            u,
            {
                ChoiceSet("abc"): {"a": 5, "b": 0, "c": 2},
                ChoiceSet("ab"): {"a": 1, "b": 1},
            },
        )
        back = _round_trip(data)
        assert back.observations == data.observations

    def test_decomposition_round_trip(self):
        rng = random.Random(6)
        rule = helpers.random_synthesized_rule(4, rng)
        dec = decompose(rule)
        back = _round_trip(dec)
        assert back.classes == dec.classes
        assert back.v == dec.v
        assert back.order == dec.order


class TestReports:
    def test_axiom_reports_round_trip_with_witnesses(self):
        rule = bad_rule()
        for name, rep in check_all(rule).items():
            enc = encode_axiom_report(rep)
            dec = decode_axiom_report(enc)
            assert dec == rep, name

    def test_odds_witnesses_round_trip_every_ratio_kind(self):
        u = Universe("abc")
        rule = RandomChoiceRule(
            ChoiceFamily(u, [ChoiceSet("ab"), ChoiceSet("abc")]),
            {
                ChoiceSet("ab"): {"a": 1, "b": 0},
                ChoiceSet("abc"): {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0},
            },
        )
        report = check_odds_independence(rule)
        (witness,) = report.witnesses
        assert witness.lhs == ExtendedRatio(ExtendedRatio.INFINITE)
        assert witness.rhs == ExtendedRatio(ExtendedRatio.FINITE, Fraction(1))
        undefined = dataclasses.replace(witness, rhs=ExtendedRatio(ExtendedRatio.INDETERMINATE))
        indeterminate = dataclasses.replace(report, witnesses=(undefined,))
        for rep in (report, indeterminate):
            assert decode_axiom_report(encode_axiom_report(rep)) == rep
        raw = encode_axiom_report(indeterminate)
        assert raw["witnesses"][0]["rhs"] == {"ratio": "indeterminate"}
        raw["witnesses"][0]["lhs"] = {"ratio": "huge"}
        with pytest.raises(DocumentError) as exc:
            decode_axiom_report(raw)
        assert str(exc.value) == "bad ratio tag {'ratio': 'huge'}"

    def test_fit_report_round_trip(self):
        u = Universe("ab")
        data = ChoiceDataset(u, {ChoiceSet("ab"): {"a": 30, "b": 10}})
        res = fit(data)
        text = dumps_document(res)
        back = loads_document(text)
        assert back["type"] == "fit"
        assert back["result"] == res
        assert dumps_document(back["result"]) == text

    def test_fit_report_stop_reason_round_trip(self):
        u = Universe("ab")
        res = fit(ChoiceDataset(u, {ChoiceSet("ab"): {"a": 30, "b": 10}}))
        doc = json.loads(dumps_document(res))
        assert doc["payload"]["stop_reason"] == res.stop_reason == "ll-tol"
        # Reports written before the field existed still decode.
        del doc["payload"]["stop_reason"]
        back = loads_document(json.dumps(doc))["result"]
        assert back.stop_reason is None
        assert dataclasses.replace(back, stop_reason="ll-tol") == res

    def test_blocked_fit_serializes_nan_as_null(self):
        u = Universe("abc")
        data = ChoiceDataset(
            u,
            {
                ChoiceSet("ab"): {"a": 9},
                ChoiceSet("abc"): {"a": 3, "b": 3, "c": 3},
            },
        )
        res = fit(data)
        assert math.isnan(res.log_likelihood)
        text = dumps_document(res)
        assert '"log_likelihood": null' in text
        back = loads_document(text)["result"]
        assert math.isnan(back.log_likelihood)
        assert back.alpha_hat is None
        assert back.stop_reason is None and '"stop_reason": null' in text

    def test_limit_report_round_trip(self):
        u = Universe("ab")
        w = LuceWeights.uniform(u)
        rep = limit_check(
            {"a": 1.0, "b": 0.0}, w, (1.0, 0.1, 0.05), ChoiceFamily.of_all_subsets(u)
        )
        text = dumps_document(rep)
        back = loads_document(text)
        assert back["type"] == "limit"
        assert back["report"] == rep
        assert dumps_document(back["report"]) == text


# ASCII digits and digits/digits take the decoder's int path; the rest
# (signs, spaces, "_", decimals, exponents, other digits) go to Fraction(raw).
LITERALS = {
    "unreduced": "2/4",
    "leading-space": " 1/2",
    "plus-sign": "+1/2",
    "minus-zero": "-0",
    "underscore": "1_0",
    "arabic-indic-digits": "\u0661/\u0662",
    "superscript-digit": "\u00b2",
    "zero-denominator": "1/0",
    "zero-over-zero": "0/0",
    "negative-denominator": "1/-2",
    "decimal": "1.5",
    "exponent": "25e-3",
    "integer": "12",
    "leading-zeros": "007/010",
    "empty": "",
    "bare-slash": "/",
    "two-slashes": "1/2/3",
    "5000-digit-numerator": "7" * 5000,
    "5000-digit-numerator-over-3": "7" * 5000 + "/3",
}


class TestRationalLiterals:
    @pytest.mark.parametrize("raw", LITERALS.values(), ids=LITERALS.keys())
    def test_decodes_as_fraction_does(self, raw):
        try:
            want = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(DocumentError) as info:
                _decode_scalar(raw, "probability")
            assert str(info.value) == f"bad rational literal {reprlib.repr(raw)}"
        else:
            got = _decode_scalar(raw, "probability")
            assert type(got) is Fraction and got == want

    def test_unreduced_literals_load_reduced(self):
        text = dumps_document(LuceWeights.from_v(Universe("ab"), {"a": 1, "b": Fraction(1, 2)}))
        back = loads_document(text.replace('"1/2"', '"2/4"').replace('"a": "1"', '"a": "007/007"'))
        assert back.v == {"a": 1, "b": Fraction(1, 2)}
        assert dumps_document(back) == text


class TestFileIO:
    def test_write_and_read(self, tmp_path):
        rng = random.Random(7)
        rule = helpers.random_synthesized_rule(3, rng)
        path = tmp_path / "rule.json"
        write_document(str(path), rule)
        assert read_document(str(path)).table == rule.table

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            read_document(str(tmp_path / "absent.json"))


class TestRejection:
    def _rule_doc(self):
        rng = random.Random(8)
        return to_document(helpers.random_synthesized_rule(3, rng))

    def test_bad_version(self):
        doc = self._rule_doc()
        doc["version"] = "99"
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_unknown_kind(self):
        doc = self._rule_doc()
        doc["kind"] = "mystery"
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_not_json(self):
        with pytest.raises(DocumentError):
            loads_document("not json at all {")

    def test_expected_kind_is_checked_before_the_payload(self):
        doc = self._rule_doc()
        assert from_document(doc, kind="rule") == from_document(doc)
        doc["payload"] = None  # never read: the kind is refused first
        with pytest.raises(DocumentError, match="kind 'rule' is not a weights document"):
            from_document(doc, kind="weights")
        text = dumps_document({"a": 1.0}, kind="utility")
        assert loads_document(text, kind="utility") == {"a": 1.0}
        with pytest.raises(DocumentError, match="is not a dataset document"):
            loads_document(text, kind="dataset")

    @pytest.mark.parametrize("payload", [{"mode": "exact"}, ["axioms"], None])
    def test_report_payload_needs_a_type(self, payload):
        for write in (to_document, dumps_document):
            with pytest.raises(DocumentError) as exc:
                write(payload, kind="report")
            assert str(exc.value) == "report payloads must be dicts with a 'type' field"

    @pytest.mark.parametrize("edit, message", [
        ({"holds": True}, "verdict inconsistent with violation count"),
        ({"holds": True, "violation_count": 0}, "witness list inconsistent with violation count"),
        ({"witnesses": []}, "witness list inconsistent with violation count"),
    ])
    def test_axiom_report_consistency_is_checked_on_load(self, edit, message):
        doc = copy.deepcopy(VALID["axioms-report"])
        report = doc["payload"]["reports"][0]
        assert not report["holds"] and report["violation_count"] > 0 and report["witnesses"]
        report.update(edit)
        with pytest.raises(DocumentError) as exc:
            loads_document(json.dumps(doc))
        assert str(exc.value) == message

    def test_payload_must_be_object(self):
        with pytest.raises(DocumentError):
            from_document({"kind": "rule", "version": "1", "payload": []})

    @pytest.mark.parametrize("module, name", [
        ("estimate", "FitResult"), ("estimate", "ChoiceDataset"), ("core", "RandomChoiceRule"),
        ("decompose", "LuceDecomposition"), ("synthesize", "LimitReport"),
    ])
    def test_same_named_classes_outside_lucekit_infer_no_kind(self, module, name):
        # Kinds are told by qualified name; a user's top-level module of the
        # same name is not lucekit's.
        impostor = type(name, (), {"__module__": module})
        with pytest.raises(DocumentError, match=f"cannot infer document kind for {name}"):
            to_document(impostor())

    def test_bad_fraction_string(self):
        doc = self._rule_doc()
        doc["payload"]["table"][0]["p"] = {
            k: "1/0" for k in doc["payload"]["table"][0]["p"]
        }
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_rule_semantics_revalidated_on_decode(self):
        doc = self._rule_doc()
        row = doc["payload"]["table"][-1]["p"]
        first = next(iter(row))
        row[first] = "9/1"  # row no longer sums to one
        with pytest.raises((DocumentError, ValueError)):
            from_document(doc)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected_on_decode(self, constant):
        u = Universe("ab")
        rule = RandomChoiceRule(
            ChoiceFamily(u, [ChoiceSet("ab")]),
            {ChoiceSet("ab"): {"a": 0.5, "b": 0.5}},
            mode="float",
        )
        text = dumps_document(rule).replace('"b": 0.5', f'"b": {constant}')
        assert constant in text
        with pytest.raises(DocumentError, match="non-finite"):
            loads_document(text)

    def test_overflowing_number_rejected_on_decode(self):
        text = dumps_document(LuceWeights.from_alpha(Universe("ab"), {"a": 0.0, "b": 1.0}))
        with pytest.raises(DocumentError, match="'b'"):
            loads_document(text.replace('"b": 2.718281828459045', '"b": 1e999'))

    @pytest.mark.parametrize("eps", ["tiny", [1e-9], 1e999])
    def test_bad_rule_eps_rejected_on_decode(self, eps):
        doc = to_document(helpers.random_synthesized_rule(3, random.Random(8)).as_float())
        doc["payload"]["eps"] = eps
        with pytest.raises(DocumentError, match="eps|float"):
            from_document(doc)

    @pytest.mark.parametrize("big", ["1e999", "1" + "0" * 400])
    def test_overflowing_utility_rejected_on_decode(self, big):
        text = dumps_document({"a": 1.0, "b": 0.5}, kind="utility")
        with pytest.raises(DocumentError, match="'b'"):
            loads_document(text.replace("0.5", big))

    def test_nan_rejected_on_encode(self):
        with pytest.raises(ValueError):
            dumps_document({"a": float("nan")}, kind="utility")


def _valid_documents() -> dict[str, dict]:
    """One small valid document of every kind, and of every report type."""
    rng = random.Random(9)
    rule = helpers.random_synthesized_rule(3, rng)
    u = rule.universe
    data = ChoiceDataset(
        u, {ChoiceSet("abc"): {"a": 5, "b": 0, "c": 2}, ChoiceSet("ab"): {"a": 1, "b": 1}}
    )
    blocked = ChoiceDataset(
        u, {ChoiceSet("ab"): {"a": 9}, ChoiceSet("abc"): {"a": 3, "b": 3, "c": 3}}
    )
    reports = [encode_axiom_report(r) for r in check_all(bad_rule().as_float()).values()]
    values = {
        "rule": (rule, None),
        "float-rule": (rule.as_float(), None),
        "correspondence": (helpers.random_warp_correspondence(u, rng), None),
        "weights": (helpers.random_rational_weights(u, rng), None),
        "float-weights": (LuceWeights.from_alpha(u, {"a": 0.0, "b": -1.5, "c": 2.0}), None),
        "utility": ({"a": 1.0, "b": 0.0, "c": 0.0}, "utility"),
        "dataset": (data, None),
        "decomposition": (decompose(rule), None),
        "fit-report": (fit(data), None),
        "blocked-fit-report": (fit(blocked), None),
        "limit-report": (
            limit_check({"a": 1.0, "b": 0.0, "c": 0.0}, LuceWeights.uniform(u), (1.0, 0.1),
                        ChoiceFamily.of_all_subsets(u)),
            None,
        ),
        "axioms-report": (
            {"type": "axioms", "mode": "float", "eps": 1e-9, "all_hold": False, "reports": reports},
            "report",
        ),
        "error-report": (
            {"type": "error", "error": "choice-axiom", "message": "m", "report": reports[0]},
            "report",
        ),
    }
    return {name: json.loads(dumps_document(obj, kind=kind)) for name, (obj, kind) in values.items()}


VALID = _valid_documents()
DELETE = object()  # an _edit value: remove the node

# Shapes that used to escape the decoder as AttributeError, TypeError, KeyError
# or OverflowError, or to stall it building 10**exponent: (valid document, path
# inside its payload, replacement).
ESCAPES = {
    "rule-row": ("rule", ("table", 0), 1),
    "correspondence-row": ("correspondence", ("table", 0), 1),
    "dataset-row": ("dataset", ("observations", 0), 1),
    "axioms-reports": ("axioms-report", ("reports",), 5),
    "decomposition-classes": ("decomposition", ("classes",), [1]),
    "fit-alpha-list": ("fit-report", ("alpha_hat",), [1.0]),
    "fit-no-converged": ("fit-report", ("converged",), DELETE),
    "weights-huge-int": ("float-weights", ("v", "a"), 10**400),
    "rule-huge-exponent": ("rule", ("table", 0, "p", "a"), "1e100000000"),
    "weights-huge-exponent": ("weights", ("v", "b"), "1E-1_000_000_000"),
    "decomposition-huge-exponent": ("decomposition", ("v", "a"), "2.5e+99999999"),
    "float-rule-beyond-float-range": ("float-rule", ("table", 0, "p", "a"), "1e400"),
    "float-weights-beyond-float-range": ("float-weights", ("v", "a"), "-1e400"),
}


def _edit(root, path, value):
    """``root`` with the node at ``path`` replaced by ``value``, or deleted for DELETE."""
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return root


def broken_document(name: str) -> dict:
    """The document of ``ESCAPES[name]``."""
    base, path, value = ESCAPES[name]
    doc = copy.deepcopy(VALID[base])
    _edit(doc["payload"], path, value)
    return doc


def _nodes(node, path=()):
    """(path, node) for ``node`` and everything inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


def _json_type(value) -> str:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([10**400, -(10**400), "1/2", "1/0", "a", "1e400", "-1e400", "nan",
                       "1" * (sys.get_int_max_str_digits() + 1), "", "é"])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestMalformed:
    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_listed_shapes_raise_document_error(self, name):
        with pytest.raises(DocumentError):
            from_document(broken_document(name))

    @settings(max_examples=600, deadline=None)
    @given(name=st.sampled_from(sorted(VALID)), data=st.data())
    def test_mutated_documents_decode_or_raise_document_error(self, name, data):
        doc = copy.deepcopy(VALID[name])
        how = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
        if how == "truncate":
            text = dumps_document(doc)
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            nodes = [
                (p, n) for p, n in _nodes(doc) if how == "replace" or (p and isinstance(p[-1], str))
            ]
            path, old = data.draw(st.sampled_from(nodes))
            if how == "delete":
                value = DELETE
            else:
                value = data.draw(_JSON.filter(lambda x: _json_type(x) != _json_type(old)))
            text = json.dumps(_edit(doc, path, value))
        try:
            loads_document(text)
        except DocumentError:
            pass

    @pytest.mark.parametrize("name", sorted(n for n in ESCAPES if n.endswith("huge-exponent")))
    def test_huge_exponent_fails_fast(self, name):
        text = json.dumps(broken_document(name))
        start = time.perf_counter()
        with pytest.raises(DocumentError, match="exponent"):
            loads_document(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "literal, value",
        [("25e-3", Fraction(1, 40)), ("1.5E2", Fraction(150)), ("4e+0", Fraction(4))],
    )
    def test_small_exponents_still_decode_exactly(self, literal, value):
        doc = copy.deepcopy(VALID["weights"])
        doc["payload"]["v"]["b"] = literal
        assert from_document(doc).v["b"] == value

    @pytest.mark.parametrize("key, value, message", [
        ("representatives", ["zz"],
         "decomposition 'representatives' must be the first member of each class, got ['zz']"),
        ("v", {"a": "-1", "b": "0", "c": "5"},
         "weight for 'a' must be positive and finite, got Fraction(-1, 1)"),
        ("classes", [[], ["c"], ["a", "b"]],
         "decomposition 'representatives' must be the first member of each class, got ['c', 'a']"),
    ], ids=["representatives", "v", "empty-class"])
    def test_decomposition_must_agree_with_itself(self, key, value, message):
        # Each used to decode, and to re-encode unchanged.
        doc = copy.deepcopy(VALID["decomposition"])
        doc["payload"][key] = value
        with pytest.raises(DocumentError) as exc:
            from_document(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload, message", [
        ({"type": "error", "error": 5, "message": None, "report": [1, 2]},
         "error report 'error' must be a string, got 5"),
        ({"type": "error", "error": "choice-axiom", "message": None},
         "error report 'message' must be a string, got None"),
        ({"type": "error", "error": "choice-axiom", "message": "m", "report": [1, 2]},
         "axiom report must be a JSON object, got [1, 2]"),
        ({"type": "axioms", "mode": 7, "eps": "x", "all_hold": "maybe", "reports": []},
         "axioms report 'mode' must be 'exact' or 'float', got 7"),
        ({"type": "axioms", "mode": "float", "eps": "x", "all_hold": "maybe", "reports": []},
         "axioms report 'eps' must be a positive finite number, got 'x'"),
        ({"type": "axioms", "mode": "float", "eps": 0, "all_hold": True, "reports": []},
         "axioms report 'eps' must be a positive finite number, got 0"),
        ({"type": "axioms", "mode": "float", "eps": 1e-9, "all_hold": "maybe", "reports": []},
         "axioms report 'all_hold' must be true or false, got 'maybe'"),
        ({"type": "axioms", "mode": "float", "eps": 1e-9, "all_hold": False, "reports": []},
         "axioms report 'all_hold' must be whether every report holds, got False"),
    ], ids=["error-type", "message", "embedded-report", "mode", "eps", "zero-eps", "all-hold",
            "all-hold-contradicted"])
    def test_check_and_error_reports_are_read_field_by_field(self, payload, message):
        # Each used to load as it was.
        with pytest.raises(DocumentError) as exc:
            from_document({"kind": "report", "version": "1", "payload": payload})
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["axioms-report", "error-report"])
    def test_check_and_error_reports_decode_to_their_axiom_reports(self, name):
        doc = VALID[name]
        value = from_document(doc)
        reports = value["reports"] if name == "axioms-report" else [value["report"]]
        assert reports and all(isinstance(r, AxiomReport) for r in reports)
        key = "reports" if name == "axioms-report" else "report"
        encoded = [encode_axiom_report(r) for r in reports]
        written = {**value, key: encoded if key == "reports" else encoded[0]}
        assert dumps_document(written, kind="report") == dumps_document(doc)

    def test_valid_documents_cover_every_kind_and_report_type(self):
        # The malformed-document properties here and in test_cli reach only what VALID holds.
        assert {doc["kind"] for doc in VALID.values()} == set(KINDS)
        types = {doc["payload"]["type"] for doc in VALID.values() if doc["kind"] == "report"}
        assert types == {"axioms", "error", *documents._REPORTS}

    def test_decomposition_weights_must_cover_the_universe(self):
        # Decoded without 'a', the decomposition used to fail only on re-encoding.
        doc = copy.deepcopy(VALID["decomposition"])
        del doc["payload"]["v"]["a"]
        with pytest.raises(DocumentError, match="cover the universe"):
            from_document(doc)

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000])
    def test_unparsable_text_is_a_document_error(self, text):
        with pytest.raises(DocumentError, match="not valid JSON"):
            loads_document(text)

    def test_undecodable_file_is_a_document_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DocumentError, match="cannot read"):
            read_document(str(path))


# The canonical writer against json's own indenting encoder (oracle_documents).

_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**20, 10**40)
    | st.integers(-(10**40), -(10**20))
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1, True, 1.0, 0, False])
    | st.text(max_size=4)
    | st.text(st.characters(max_codepoint=0x1F), max_size=3)
)
_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.floats(width=16) | st.booleans() | st.none(), inner,
                      max_size=3),
    max_leaves=12,
)


def _outcome(write, doc):
    try:
        return write(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestCanonicalWriter:
    """``dumps_document`` writes json's ``indent=2`` bytes, or raises its error."""

    @staticmethod
    def _wrapped(tree):
        return {"kind": "report", "version": "1", "payload": tree}

    @settings(max_examples=400, deadline=None)
    @given(tree=_TREES)
    def test_random_trees_match_json(self, tree):
        doc = self._wrapped(tree)
        assert _outcome(dumps_document, doc) == _outcome(oracle_documents.canonical_text, doc)

    @pytest.mark.parametrize(
        "tree",
        [{}, [], -0.0, 5e-324, 1.7976931348623157e308, 10**25, -(10**30), [True, 1, 1.0, False, 0],
         {"é\x00\x1f\"\\ 😀": ["\x7f", "ü"]}, {"b": {}, "a": [[]], "c": ()}],
        ids=repr,
    )
    def test_edge_values_match_json(self, tree):
        doc = self._wrapped(tree)
        assert dumps_document(doc) == oracle_documents.canonical_text(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_jsons_error(self, bad):
        for tree in (bad, [1, bad], {"a": {"b": bad}}, {bad: 1}):
            doc = self._wrapped(tree)
            want = _outcome(oracle_documents.canonical_text, doc)
            assert want[0] is ValueError and _outcome(dumps_document, doc) == want

    @pytest.mark.parametrize(
        "tree", [{1: 2, "a": 3}, {(1,): 2}, {"a": {1, 2}}, [Fraction(1, 2)]], ids=repr
    )
    def test_unwritable_values_raise_jsons_error(self, tree):
        doc = self._wrapped(tree)
        want = _outcome(oracle_documents.canonical_text, doc)
        assert want[0] is TypeError and _outcome(dumps_document, doc) == want

    def test_circular_structure_raises_jsons_error(self):
        loop: list = []
        loop.append(loop)
        doc = self._wrapped(loop)
        assert _outcome(dumps_document, doc) == (ValueError, "Circular reference detected")

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_every_kind_and_report_matches_json(self, name):
        doc = VALID[name]
        assert dumps_document(doc) == oracle_documents.canonical_text(doc)
        if not name.endswith("report"):  # and the decoded value, written from its payload
            kind = "utility" if name == "utility" else None
            value = from_document(doc)
            want = oracle_documents.canonical_text(to_document(value, kind=kind))
            assert dumps_document(value, kind=kind) == want

    def test_check_reports_match_json(self):
        for rule in (helpers.random_synthesized_rule(4, random.Random(5)), bad_rule()):
            for r in (rule, rule.as_float(), rule.as_float(1e-3)):
                payload = {"type": "axioms", "mode": r.mode, "eps": r.eps,
                           "reports": [encode_axiom_report(x) for x in check_all(r).values()]}
                doc = to_document(payload, kind="report")
                assert dumps_document(doc) == oracle_documents.canonical_text(doc)


# The rule decoder against the cell-by-cell one (oracle_documents).

_FAULTS = ("int-cell", "zero-den", "negative", "short", "duplicate-row", "outside-label",
           "non-list-set", "huge-exponent", "odd-literal")
_ACCEPTED = (" 1/2", "0.5", "١/٢", "１/２", "2/4")


@st.composite
def _rule_payloads(draw):
    """A rule payload on up to 4 labels, exact or float, with cells written in
    every accepted way and with none, one or several of the refused faults."""
    n = draw(st.integers(1, 4))
    labels = helpers.universe_of(n).alternatives
    sets = [A.members for A in helpers.universe_of(n).subsets()]
    chosen = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets), unique=True))
    exact = draw(st.booleans())
    rows = []
    for members in chosen:
        weights = draw(st.lists(st.integers(0, 5), min_size=len(members), max_size=len(members)))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        cells = {}
        for a, w in zip(members, weights):
            x = Fraction(w, total)
            if exact or draw(st.integers(0, 5)) == 0:  # float rules take rational strings too
                scale = draw(st.sampled_from([1, 1, 1, 3]))
                text = str(x) if scale == 1 else f"{x.numerator * scale}/{x.denominator * scale}"
                cells[a] = " 1/2" if x == Fraction(1, 2) and draw(st.booleans()) else text
            else:
                cells[a] = w / total
        if draw(st.integers(0, 3)) == 0:  # zero cells may be left out
            cells = {a: v for a, v in cells.items() if v not in ("0", 0.0)} or cells
        rows.append({"set": list(members), "p": cells})
    payload = {"universe": list(labels), "mode": "exact" if exact else "float", "table": rows}
    if not exact:
        payload["eps"] = 1e-9
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        row = draw(st.sampled_from(rows))
        a = draw(st.sampled_from(sorted(row["p"]) or [labels[0]]))
        if fault == "int-cell":
            row["p"][a] = draw(st.sampled_from([0, 1]))
        elif fault == "zero-den":
            row["p"][a] = "1/0"
        elif fault == "negative":
            row["p"][a] = "-1/2"
        elif fault == "short":
            row["p"][a] = "1/7"
        elif fault == "odd-literal":  # refused by Fraction, or read by it alone
            row["p"][a] = draw(st.sampled_from(["1 /2", "1/ 2", "1/-2", "1/2/3", "/2", "1/", "½",
                                                "²/3", "0/0", "+1/2", "1_0/20", "٣/٦"]))
        elif fault == "duplicate-row":
            rows.insert(draw(st.integers(0, len(rows))), copy.deepcopy(row))
        elif fault == "outside-label" and isinstance(row["set"], list):
            row["set"] = row["set"] + ["z"]
        elif fault == "non-list-set" or fault == "outside-label":
            row["set"] = draw(st.sampled_from(["ab", 5, None]))
        else:
            row["p"][a] = "1e" + str(sys.get_int_max_str_digits() + 1)
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        if isinstance(row["set"], list) and row["set"] and row["p"].get(row["set"][0]) == "1/2":
            row["p"][row["set"][0]] = draw(st.sampled_from(_ACCEPTED))
    return payload


def _decoded(decode, payload):
    try:
        rule = decode(copy.deepcopy(payload))
    except DocumentError as exc:
        return "refused", str(exc)
    return rule.family, dict(rule.table), rule._dens, rule._nums, rule.mode, rule.eps


class TestRuleDecoderOracle:
    @settings(max_examples=500, deadline=None)
    @given(payload=_rule_payloads())
    def test_decodes_and_refuses_as_the_cell_by_cell_decoder(self, payload):
        doc = {"kind": "rule", "version": "1", "payload": payload}
        ours = _decoded(lambda p: from_document({**doc, "payload": p}), payload)
        assert ours == _decoded(oracle_documents.decode_rule, payload)

    @pytest.mark.parametrize("literal", _ACCEPTED)
    def test_accepted_literals_stay_accepted(self, literal):
        payload = {"universe": ["a", "b"], "mode": "exact",
                   "table": [{"set": ["a", "b"], "p": {"a": literal, "b": "1/2"}}]}
        rule = from_document({"kind": "rule", "version": "1", "payload": payload})
        assert rule.table == {ChoiceSet("ab"): {"a": Fraction(1, 2), "b": Fraction(1, 2)}}
        assert _decoded(lambda p: rule, payload) == _decoded(oracle_documents.decode_rule, payload)

    def test_rational_strings_in_a_float_rule(self):
        payload = {"universe": ["a", "b"], "mode": "float", "eps": 1e-9,
                   "table": [{"set": ["a", "b"], "p": {"a": "1/3", "b": "2/3"}}]}
        rule = from_document({"kind": "rule", "version": "1", "payload": payload})
        assert rule.table == {ChoiceSet("ab"): {"a": 1 / 3, "b": 2 / 3}}
        assert _decoded(lambda p: rule, payload) == _decoded(oracle_documents.decode_rule, payload)

    def test_several_faults_refuse_with_the_first(self):
        # A literal fault outranks a family fault, which outranks the rows' checks.
        payload = {"universe": ["a", "b"], "mode": "exact", "table": [
            {"set": ["a", "b"], "p": {"a": "1/3", "b": "1/3"}},
            {"set": ["a", "z"], "p": {"a": "1"}},
            {"set": ["b"], "p": {"b": "1/0"}},
        ]}
        for expected in ("bad rational literal '1/0'", "{a,z} contains 'z', not in the universe",
                         "masses on {a,b} sum to 2/3, not 1"):
            assert _decoded(oracle_documents.decode_rule, payload) == ("refused", expected)
            assert _decoded(lambda p: from_document(
                {"kind": "rule", "version": "1", "payload": p}), payload) == ("refused", expected)
            if "1/0" in expected:
                payload["table"][2]["p"]["b"] = "1"
            else:
                payload["table"][1]["set"] = ["a"]


class TestTableOnDemand:
    """An exact rule read from a document keeps only its rows: decoding, checking,
    encoding the report and the rule, decomposing and ``as_float`` never build
    its table, which is built, as the dict it always was, when first read."""

    def test_the_pipeline_never_builds_the_table(self):
        rng = random.Random(11)
        for rule in (helpers.random_synthesized_rule(5, rng), bad_rule()):
            back = loads_document(dumps_document(rule))
            assert "table" not in vars(back)
            reports = check_all(back)
            dumps_document({"type": "axioms", "reports": [encode_axiom_report(r) for r in reports.values()]},
                           kind="report")
            dumps_document(back)
            try:
                decompose(back)
            except LucekitError:
                pass
            back.as_float()
            assert "table" not in vars(back)
            assert back.table == rule.table and "table" in vars(back)

    def test_table_is_the_dict_it_was(self):
        rule = helpers.random_synthesized_rule(3, random.Random(12))
        table = {A: dict(row) for A, row in rule.table.items()}
        assert type(rule.table) is dict and rule.table == table
        assert list(rule.table) == list(rule.family.sets)
        assert repr(rule) == (
            f"RandomChoiceRule(family={rule.family!r}, table={table!r}, mode='exact', eps=1e-09)"
        )
        assert [f.name for f in dataclasses.fields(rule)] == ["family", "table", "mode", "eps"]
        assert dataclasses.replace(rule, eps=1e-3).table == table
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.table = table
        with pytest.raises(TypeError):
            hash(rule)
        assert {A: rule.row(A) for A in rule.family} == table
        assert copy.deepcopy(rule) == rule
