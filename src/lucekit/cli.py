"""Command-line front end: check | decompose | synthesize | simulate | fit | limit.

Inputs and outputs are the JSON documents of :mod:`lucekit.documents`.
Exit codes are a stable contract: 0 when the command succeeds and any
checked property holds, 1 on a semantic failure (an axiom fails, a
decomposition or fit is blocked, a limit has not converged), 2 on usage or
input-format errors, each reported as one ``lucekit:`` line on stderr. All
randomness is governed by ``--seed``, and repeated invocations with the same
arguments produce byte-identical output.

Only ``simulate``, ``fit`` and the float-mode checkers (``check`` and
``decompose`` on a float rule, ``check --mode float``) load numpy, and each
command imports what it runs when it runs (``check`` runs neither
``lucekit.decompose`` nor ``lucekit.estimate``), keeping process start short.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, NoReturn

from .axioms import Axiom, _run_checkers, check_choice_axiom
from .core import (
    EXACT,
    FLOAT,
    ChoiceFamily,
    Universe,
    WeakOrder,
    check_eps,
)
from .documents import (
    _build,
    _decode_set,
    _parse,
    _read_text,
    dumps_document,
    encode_axiom_report,
    from_document,
    read_document,
)
from .errors import (
    ChoiceAxiomError,
    DocumentError,
    FamilySizeError,
    LucekitError,
    NotRationalError,
)
from .synthesize import (
    general_luce_rule,
    general_luce_rule_from_utility,
    limit_check,
    luce_rule,
)

# Default report order: every rule-level checker, then WARP of the support.
_ALL_AXIOMS = tuple(a.value for a in Axiom if a != Axiom.WARP) + (Axiom.WARP.value,)


def _emit(args: argparse.Namespace, obj: Any, *, kind: str | None = None) -> None:
    try:
        text = dumps_document(obj, kind=kind)
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"cannot encode the output: {exc}") from exc
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(args: argparse.Namespace, exc: LucekitError) -> int:
    payload: dict[str, Any] = {"type": "error", "error": _error_slug(exc), "message": str(exc)}
    if exc.report is not None:
        payload["report"] = encode_axiom_report(exc.report)
    _emit(args, payload, kind="report")
    return 1


def _error_slug(exc: LucekitError) -> str:
    """The class name in kebab case without ``Error``: ``NotRationalError`` -> ``not-rational``."""
    name = type(exc).__name__.removesuffix("Error")
    return "".join("-" * (k > 0 and ch.isupper()) + ch.lower() for k, ch in enumerate(name))


def _load_family(spec: str, universe: Universe) -> ChoiceFamily:
    if spec == "all":
        return ChoiceFamily.of_all_subsets(universe)
    if spec == "pairs":
        return ChoiceFamily.of_pairs(universe)
    raw = _parse(_read_text(spec))
    if isinstance(raw, list):
        return _build(ChoiceFamily, universe, [_decode_set(s) for s in raw])
    family = getattr(from_document(raw), "family", None)
    if not isinstance(family, ChoiceFamily):
        raise DocumentError(f"{spec} carries no choice-set family")
    if family.universe != universe:
        raise DocumentError(f"family in {spec} is over a different universe")
    return family


def _cmd_check(args: argparse.Namespace) -> int:
    if args.eps is not None:
        try:
            check_eps(args.eps)
        except ValueError as exc:
            raise DocumentError(f"bad --eps: {exc}") from exc
    rule = read_document(args.rule, kind="rule")
    if args.mode == FLOAT and rule.mode == EXACT:
        try:
            rule = rule.as_float(args.eps)
        except ValueError as exc:  # an eps so wide that a row reads as empty
            raise DocumentError(f"bad --eps: {exc}") from exc
    elif args.mode == EXACT and rule.mode == FLOAT:
        raise DocumentError("a float rule cannot be promoted to exact mode")
    names = list(_ALL_AXIOMS) if not args.axioms else args.axioms.split(",")
    axioms: list[Axiom] = []
    for name in names:
        name = name.strip()
        if name not in _ALL_AXIOMS:
            raise DocumentError(
                f"unknown axiom {name!r}; choose from {', '.join(_ALL_AXIOMS)}"
            )
        axioms.append(Axiom(name))
    reports = _run_checkers(rule, axioms, args.eps)
    all_hold = all(r.holds for r in reports)
    payload = {
        "type": "axioms",
        "mode": rule.mode,
        "eps": rule.eps if args.eps is None else args.eps,
        "all_hold": all_hold,
        "reports": [encode_axiom_report(r) for r in reports],
    }
    _emit(args, payload, kind="report")
    return 0 if all_hold else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose import decompose as run_decompose

    rule = read_document(args.rule, kind="rule")
    report = check_choice_axiom(rule)
    if not report.holds:
        return _emit_error(args, ChoiceAxiomError("rule fails the choice axiom", report=report))
    try:
        dec = run_decompose(rule)
    except LucekitError as exc:
        return _emit_error(args, exc)
    _emit(args, dec)
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    weights = read_document(args.weights, kind="weights")
    try:
        if args.gamma:
            gamma = read_document(args.gamma, kind="correspondence")
            rule = general_luce_rule(gamma, weights)
        elif args.utility:
            u = read_document(args.utility, kind="utility")
            family = _load_family(args.family, weights.universe)
            rule = general_luce_rule_from_utility(u, weights, family)
        else:
            family = _load_family(args.family, weights.universe)
            rule = luce_rule(weights, family)
    except NotRationalError as exc:
        return _emit_error(args, exc)
    except ValueError as exc:  # weights, selection and family disagree
        raise DocumentError(str(exc)) from exc
    if args.mode == FLOAT and rule.mode == EXACT:
        rule = rule.as_float()
    _emit(args, rule)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .estimate import ChoiceDataset
    from .rum import GumbelLuceSampler, IndependentRumSampler, LexSampler, empirical_rule

    if args.draws < 1:
        raise DocumentError("--draws must be at least 1")
    if args.seed < 0:
        raise DocumentError("--seed must be nonnegative")
    weights = read_document(args.weights, kind="weights")
    universe = weights.universe
    if args.sampler in ("independent", "lex"):
        if not args.utility:
            raise DocumentError(f"--sampler {args.sampler} needs --utility")
        u = read_document(args.utility, kind="utility")
    try:
        if args.sampler == "gumbel":
            sampler = GumbelLuceSampler(weights, seed=args.seed)
        elif args.sampler == "independent":
            sampler = IndependentRumSampler(u, weights, seed=args.seed)
        else:
            order = WeakOrder.from_utility(universe, u)
            sampler = LexSampler(order, GumbelLuceSampler(weights, seed=args.seed))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    family = _load_family(args.family, universe)
    emp = empirical_rule(sampler, family, args.draws)
    _emit(args, ChoiceDataset(universe, emp.counts))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .estimate import fit as run_fit

    data = read_document(args.dataset, kind="dataset")
    try:
        result = run_fit(data, pseudo_count=args.pseudo_count)
    except ValueError as exc:  # a pseudo-count or counts past the float range
        raise DocumentError(str(exc)) from exc
    _emit(args, result)
    return 0 if result.alpha_hat is not None else 1


def _cmd_limit(args: argparse.Namespace) -> int:
    weights = read_document(args.weights, kind="weights")
    u = read_document(args.utility, kind="utility")
    try:
        schedule = [float(x) for x in args.schedule.split(",") if x.strip()]
    except ValueError as exc:
        raise DocumentError(f"bad --schedule: {exc}") from exc
    family = _load_family(args.family, weights.universe)
    try:
        report = limit_check(u, weights, schedule, family, tolerance=args.tolerance)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    _emit(args, report)
    return 0 if report.converged else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other refusal: exit 2, one ``lucekit:`` line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"lucekit: {message} (see '{self.prog} -h')\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lucekit",
        description="Verify, decompose, synthesize, simulate, and fit "
        "selective-Luce choice rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the output document here instead of stdout")

    p = sub.add_parser("check", help="run axiom checkers on a rule document")
    p.add_argument("rule", help="rule document path")
    p.add_argument(
        "--axioms",
        help="comma-separated subset of: " + ", ".join(_ALL_AXIOMS),
    )
    p.add_argument("--mode", choices=(EXACT, FLOAT), help="coerce the rule's mode")
    p.add_argument("--eps", type=float, help="float-mode comparison tolerance")
    add_out(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="recover (gamma, classes, v, alpha) from a rule")
    p.add_argument("rule", help="rule document path")
    add_out(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("synthesize", help="build a rule from weights and a selection")
    p.add_argument("--weights", required=True, help="weights document path")
    p.add_argument("--gamma", help="correspondence document path")
    p.add_argument("--utility", help="utility document path (argmax selection)")
    p.add_argument(
        "--family",
        default="all",
        help="'all', 'pairs', or a path holding a family (ignored with --gamma)",
    )
    p.add_argument("--mode", choices=(EXACT, FLOAT), help="force output mode")
    add_out(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="tally top choices from a preference sampler")
    p.add_argument(
        "--sampler",
        choices=("gumbel", "independent", "lex"),
        default="gumbel",
        help="gumbel: logit noise around weights; independent: utility plus "
        "bounded noise; lex: utility order refined by gumbel draws",
    )
    p.add_argument("--weights", required=True, help="weights document path")
    p.add_argument("--utility", help="utility document path")
    p.add_argument("--draws", type=int, required=True, help="draws per choice set")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--family", default="all", help="'all', 'pairs', or a path")
    add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="estimate support and weights from counts")
    p.add_argument("dataset", help="dataset document path")
    p.add_argument(
        "--pseudo-count",
        type=float,
        default=0.0,
        help="additive smoothing inside estimated supports (default 0)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("limit", help="measure smoothed-rule convergence as noise shrinks")
    p.add_argument("--utility", required=True, help="utility document path")
    p.add_argument("--weights", required=True, help="weights document path")
    p.add_argument(
        "--schedule",
        default="1,0.5,0.1,0.05",
        help="comma-separated strictly decreasing noise levels",
    )
    p.add_argument("--tolerance", type=float, default=1e-6, help="convergence target")
    p.add_argument("--family", default="all", help="'all', 'pairs', or a path")
    add_out(p)
    p.set_defaults(func=_cmd_limit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for key, value in vars(args).items():
            if value == []:  # argparse reads "--draws=--" as no values at all
                raise DocumentError(f"--{key.replace('_', '-')} needs a value")
        return args.func(args)
    except (DocumentError, FamilySizeError) as exc:
        print(f"lucekit: {exc}", file=sys.stderr)
        return 2
    except LucekitError as exc:
        print(f"lucekit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lucekit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
