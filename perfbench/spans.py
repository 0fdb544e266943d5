"""In-memory spans around calls into lucekit's public functions.

The traced run replaces a fixed list of public callables, in every lucekit
module namespace that holds them, with wrappers that record a span: name,
start, end, parent span and the operation category the benchmark opened.
Nothing in the package's source is touched, and the wrappers are removed
when the run ends. Spans stay in a list until the run writes them out.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans. Calls between layers
are therefore attributed to the callee, also when one layer calls another
internally (``fit`` calling ``check_warp``, ``loads_document`` building a
``RandomChoiceRule``).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute or Class.method, span name, counter kind)
TARGETS = [
    ("core", "RandomChoiceRule.__init__", "core.rule_build", None),
    ("core", "ChoiceFamily.__init__", "core.family_build", None),
    ("core", "support_correspondence", "core.support_correspondence", None),
    ("core", "correspondence_from_order", "core.correspondence_from_order", None),
    ("documents", "loads_document", "documents.decode", "bytes_in"),
    ("documents", "read_document", "documents.read", None),
    ("documents", "dumps_document", "documents.encode", "bytes_out"),
    ("documents", "encode_axiom_report", "documents.encode_report", None),
    ("axioms", "check_all", "axioms.check_all", None),
    ("axioms", "check_choice_axiom", "axioms.choice_axiom", "report"),
    ("axioms", "check_odds_independence", "axioms.odds_independence", "report"),
    ("axioms", "check_product_rule", "axioms.product_rule", "report"),
    ("axioms", "check_set_choice_axiom", "axioms.set_choice_axiom", "report"),
    ("axioms", "check_set_intersection_rule", "axioms.set_intersection_rule", "report"),
    ("axioms", "check_positivity", "axioms.positivity", "report"),
    ("axioms", "check_full_support", "axioms.full_support", "report"),
    ("axioms", "check_warp", "axioms.warp", "report"),
    ("axioms", "check_renyi_conditioning", "axioms.renyi_conditioning", "report"),
    ("synthesize", "LuceWeights.__init__", "synthesize.weights", None),
    ("synthesize", "general_luce_rule", "synthesize.general_luce_rule", None),
    ("synthesize", "general_luce_rule_from_utility", "synthesize.general_luce_rule_from_utility", None),
    ("synthesize", "lambda_smoothed_rule", "synthesize.lambda_smoothed_rule", None),
    ("synthesize", "limit_check", "synthesize.limit_check", None),
    ("decompose", "decompose", "decompose.decompose", None),
    ("decompose", "revealed_order", "decompose.revealed_order", None),
    ("decompose", "recover_v", "decompose.recover_v", None),
    ("rum", "empirical_rule", "rum.empirical_rule", "draws"),
    ("rum", "GumbelLuceSampler.draw_ranks", "rum.draw_ranks", None),
    ("rum", "IndependentRumSampler.draw_ranks", "rum.draw_ranks", None),
    ("rum", "LexSampler.draw_ranks", "rum.draw_ranks", None),
    ("_kernels", "rank_rows", "_kernels.rank_rows", None),
    ("_kernels", "top_counts", "_kernels.top_counts", None),
    ("estimate", "ChoiceDataset.__init__", "estimate.dataset_build", None),
    ("estimate", "support_from_counts", "estimate.support_from_counts", None),
    ("estimate", "fit_alpha_mle", "estimate.fit_alpha_mle", "iterations"),
    ("estimate", "fit", "estimate.fit", None),
    ("cli", "main", "cli.main", None),
]

LAYERS = ("core", "documents", "axioms", "synthesize", "decompose", "rum", "_kernels", "estimate", "cli")


def _count(kind, args, out):
    if kind == "bytes_in":
        return {"bytes": len(args[0])}
    if kind == "bytes_out":
        return {"bytes": len(out)}
    if kind == "report":
        return {"instances": out.pairs_checked, "violations": out.violation_count,
                "witnesses": len(out.witnesses)}
    if kind == "draws":
        return {"draws": out.n_draws * len(out.family)}
    if kind == "iterations":
        return {"iterations": out.iterations}
    return None


class Tracer:
    """Span recorder. Each span is [name, start, end, parent, category, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str, category: str | None) -> list:
        parent = self.stack[-1] if self.stack else -1
        if category is None and parent >= 0:
            category = self.spans[parent][4]
        rec = [name, 0.0, 0.0, parent, category, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def op(self, category: str, fn):
        """Run one benchmark operation under a root span of its category."""
        rec = self._open("bench." + category, category)
        rec[1] = perf_counter()
        try:
            return fn()
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn, kind):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:  # outside a benchmark operation: checks, set-up
                return fn(*args, **kwargs)
            rec = tracer._open(name, None)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if kind is not None:
                rec[5] = _count(kind, args, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, name, kind in TARGETS:
            module = sys.modules["lucekit." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, kind))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, kind)
            # ``from .x import f`` binds f in the importer too, and dispatch
            # tables such as the CLI's checker map hold it as a dict value:
            # replace every binding.
            for mname, mod in list(sys.modules.items()):
                if mname != "lucekit" and not mname.startswith("lucekit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(vars(mod), key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._replace(value, k, wrapped)

    def _replace(self, table: dict, key, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def summarize(self, first: int, last: int) -> dict[str, float]:
        """Per-layer self time, inclusive times per (span, category), and counts."""
        spans = self.spans
        child = [0.0] * (last - first)
        for rec in spans[first:last]:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for i, rec in enumerate(spans[first:last]):
            name, t0, t1, _, cat, counts = rec
            dur = t1 - t0
            layer = name.rsplit(".", 1)[0]
            add(f"self:{layer}", dur - child[i])
            add(f"time:{name}", dur)
            add(f"time:{name}:{cat}", dur)
            add("spans", 1)
            for key, value in (counts or {}).items():
                add(f"count:{name}:{key}", value)
                add(f"count:{name}:{cat}:{key}", value)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
