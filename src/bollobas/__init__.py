"""Exact-arithmetic toolkit for Bollobás-type systems of set and subspace
tuples: verifiers, weight inequalities, weight-invariant saturation with
type-class certification, extremal search, and tight-family constructions."""

from .errors import (
    BollobasError,
    BudgetError,
    DocumentError,
    DuplicateTupleError,
    FieldMismatchError,
    LicensingError,
    PartitionError,
    PreconditionError,
    ShapeError,
)
from .exact_arith import (
    QQ,
    FieldTag,
    PrimeField,
    ProbabilityVector,
    Rational,
    RationalField,
    binomial,
    multinomial,
)
from .subspace_algebra import (
    Decomposition,
    Subspace,
    canonicalize,
    contains,
    coordinate_decomposition,
    coordinate_subspace,
    dim_of_sum,
    extension_vector,
    full_space,
    intersection,
    zero_subspace,
)
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    embed,
    is_decomposition_compatible,
)
from .verifiers import (
    Certificate,
    ClassCount,
    ConditionKind,
    VerificationReport,
    check_cardinality_lemmas,
    check_partitioned_uniform_bound,
    check_uniform_pair_bound,
    verify,
)
from .weight_functionals import (
    FunctionalKind,
    InequalityVerdict,
    evaluate_inequality,
    omega,
    term,
    tuza,
)
from .saturation_engine import (
    FillUpStep,
    SaturationTrace,
    certify_full_system,
    fill_up,
    phi,
    phi_upper_bound,
    saturate,
)
from .extremal_search import (
    SearchProblem,
    SearchResult,
    all_subspaces,
    enumerate_set_candidates,
    enumerate_subspace_candidates,
    explore_weak_subspace_conjecture,
    random_compatible_pair_system,
    random_valid_system,
    search_max,
)
from .constructions import (
    complement_chain,
    construct,
    full_tuza_tuples,
    partitioned_complement_chain,
    uniform_bollobas,
)
from .cli_io import parse, serialize, system_from_doc, system_to_doc

__all__ = [name for name in dir() if not name.startswith("_")]
