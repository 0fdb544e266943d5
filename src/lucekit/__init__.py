"""Tools for Luce-style random choice: axiom checking, decomposition,
synthesis, ranking simulation, and maximum-likelihood estimation.

The exact side (checking, decomposing, synthesizing, documents) is pure
rational arithmetic and loads no numpy. The names of :mod:`lucekit.decompose`
and :mod:`lucekit.estimate`, and the simulation names, which live in
:mod:`lucekit.rum` and :mod:`lucekit._kernels`, are imported on first access
(the last two with numpy), so that ``lucekit check`` loads none of them;
fitting and float-mode checks import numpy when they run.
"""

import sys as _sys
from importlib import import_module as _import_module, util as _util
from types import ModuleType as _ModuleType

from .axioms import (
    WITNESS_CAP,
    Axiom,
    AxiomReport,
    Witness,
    check_all,
    check_choice_axiom,
    check_full_support,
    check_odds_independence,
    check_positivity,
    check_product_rule,
    check_renyi_conditioning,
    check_set_choice_axiom,
    check_set_intersection_rule,
    check_warp,
    replay_witness,
)
from .core import (
    DEFAULT_EPS,
    EXACT,
    FLOAT,
    MAX_ENUM_UNIVERSE,
    ChoiceCorrespondence,
    ChoiceFamily,
    ChoiceSet,
    ExtendedRatio,
    RandomChoiceRule,
    Universe,
    WeakOrder,
    correspondence_from_order,
    maximizers,
    odds,
    pairwise_odds,
    support,
    support_correspondence,
    utility_from_order,
)
from .documents import (
    DOCUMENT_VERSION,
    KINDS,
    dumps_document,
    from_document,
    loads_document,
    read_document,
    to_document,
    write_document,
)
from .errors import (
    ChoiceAxiomError,
    CountsOffSupportError,
    DegenerateOddsError,
    DocumentError,
    FamilySizeError,
    LucekitError,
    MissingPairsError,
    NotRationalError,
    ReconstructionMismatchError,
    SubsetViolationError,
    UnknownChoiceSetError,
)
from .synthesize import (
    LimitReport,
    LuceWeights,
    general_luce_rule,
    general_luce_rule_from_utility,
    lambda_smoothed_rule,
    limit_check,
    luce_rule,
)

__version__ = "0.1.0"


# Modules that an exact check never runs: in ``sys.modules`` at once, run on
# their first attribute access (the importlib documentation's ``LazyLoader``
# recipe). The package's ``decompose`` is the function of that name.
for _name in ("decompose", "estimate"):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_sys.modules[_spec.name])
del _name, _spec
estimate = _sys.modules[f"{__name__}.estimate"]

# Names from those modules and from the ones that import numpy when loaded.
# PEP 562 loads the module on first access, so that ``import lucekit`` runs
# none of them.
_LAZY = {
    **dict.fromkeys(("LuceDecomposition", "decompose", "recover_v", "revealed_order"), "decompose"),
    **dict.fromkeys(
        ("ChoiceDataset", "FitResult", "fit", "fit_alpha_mle", "support_from_counts"), "estimate"
    ),
    **dict.fromkeys(
        ("EmpiricalRule", "GumbelLuceSampler", "IndependentRumSampler", "LexSampler",
         "empirical_rule", "lex_compose"),
        "rum",
    ),
    **dict.fromkeys(("backend_name", "rank_rows", "top_counts"), "_kernels"),
}

__all__ = sorted(
    [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _LAZY.values():
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
