"""gramconv: grammar recovery, transformation, mutation and convergence."""

from .grammar import (
    ANYTHING,
    EMPTY,
    EPSILON,
    VALUE_INT,
    VALUE_STR,
    Expr,
    Grammar,
    GrammarError,
    Production,
    Vocabulary,
    choice,
    n,
    opt,
    p,
    plus,
    reachable,
    sel,
    sepplus,
    sepstar,
    seq,
    star,
    t,
    tops,
    vocabulary,
)
from .interchange import InterchangeError, deserialize, serialize
from .notation import (
    NotationSpec,
    NotationError,
    RoleChange,
    coupled_mutation,
    eliminate_metasymbol,
    introduce_metasymbol,
    parse_spec,
    rename_metasymbol,
)
from .recovery import RecoveryError, RecoveryReport, UnparseError, recover, unparse
from .transform import (
    BidirectionalStep,
    ScriptError,
    TransformError,
    TransformStep,
    apply_script,
    apply_step,
    bidirectionalize,
)
from .mutate import AnfViolation, Mutation, MutationError, MutationResult, anf_check
from .converge import (
    Footprint,
    MatchReport,
    NominalMapping,
    ResolutionAmbiguity,
    ResolutionConflict,
    ResolutionError,
    footprint,
    guided_converge,
    nominal_resolution,
    pair_resolution,
    prodsig,
    sig_metrics,
    strong_equiv,
    structural_match,
    weak_equiv,
)

__version__ = "0.1.0"
