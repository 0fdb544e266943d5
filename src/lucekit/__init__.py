"""Tools for Luce-style random choice: axiom checking, decomposition,
synthesis, ranking simulation, and maximum-likelihood estimation.
"""

from ._kernels import backend_name, rank_rows, top_counts
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
from .decompose import LuceDecomposition, decompose, recover_v, revealed_order
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
from .estimate import (
    ChoiceDataset,
    FitResult,
    fit,
    fit_alpha_mle,
    support_from_counts,
)
from .rum import (
    EmpiricalRule,
    GumbelLuceSampler,
    IndependentRumSampler,
    LexSampler,
    empirical_rule,
    lex_compose,
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
