"""colprob: exact probabilities for event formulas.

Declare experiments (finite outcomes, exact rational weights, optional
parent dependencies), write event formulas over their outcomes with choice
and parallel connectives, and compute probabilities as exact rationals.
Queries whose choice connectives span different experiments come back
Undetermined, a first-class verdict rather than an error.
"""

from .bayes import (
    Partition,
    PartitionReport,
    bayes_additive,
    bayes_parallel,
    check_partition,
)
from .errors import (
    ColprobError,
    EmptySpaceError,
    EvalError,
    ModelError,
    NullConditionError,
    OracleError,
    ParseError,
    PartitionError,
)
from .evaluator import (
    Derivation,
    Determined,
    ProbResult,
    cond_additive,
    cond_parallel,
    prob,
    prob_explain,
    render_derivation,
    space_prob,
)
from .formula import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    Formula,
    GivenAdd,
    GivenPar,
    Not,
    ParAnd,
    ParOr,
    format_formula,
)
from .model import (
    ExperimentDecl,
    Model,
    Rational,
    ancestral_closure,
    joint_point_prob,
    validate_model,
)
from .oracle import McEstimate, SampleConfig, enumerate_prob, mc_estimate
from .parser import parse_formula, parse_model
from .semantics import (
    Denotation,
    EventSpace,
    Point,
    SharedExperimentWarning,
    Undetermined,
    cartesian_conj,
    denote,
    full_space,
    lift,
    to_set_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AtomNode",
    "ChoiceAnd",
    "ChoiceOr",
    "ColprobError",
    "Denotation",
    "Derivation",
    "Determined",
    "EmptySpaceError",
    "EvalError",
    "EventSpace",
    "ExperimentDecl",
    "Formula",
    "GivenAdd",
    "GivenPar",
    "McEstimate",
    "Model",
    "ModelError",
    "Not",
    "NullConditionError",
    "OracleError",
    "ParAnd",
    "ParOr",
    "ParseError",
    "Partition",
    "PartitionError",
    "PartitionReport",
    "Point",
    "ProbResult",
    "Rational",
    "SampleConfig",
    "SharedExperimentWarning",
    "Undetermined",
    "ancestral_closure",
    "bayes_additive",
    "bayes_parallel",
    "cartesian_conj",
    "check_partition",
    "cond_additive",
    "cond_parallel",
    "denote",
    "enumerate_prob",
    "format_formula",
    "full_space",
    "joint_point_prob",
    "lift",
    "mc_estimate",
    "parse_formula",
    "parse_model",
    "prob",
    "prob_explain",
    "render_derivation",
    "space_prob",
    "to_set_normal_form",
    "validate_model",
]
