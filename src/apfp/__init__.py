"""Numerical laboratory for the approximate positive factorization
property (APFP) of finite direct sums of complex matrix blocks.

The package computes de la Harpe-Skandalis determinants of paths of
invertibles, builds and verifies the constructive factorizations behind
the positive-product characterization (polar paths, exponential
splittings, commutator witnesses), decides membership in the closure of
products of positive elements, and evaluates the four-condition
characterization of when that closure is everything.
"""

from .algebra import (
    AlgebraDescriptor,
    Element,
    TraceValue,
    adjoint,
    add,
    commutator,
    exp_element,
    inverse,
    is_positive,
    log_positive,
    log_unitary_principal,
    mul,
    op_norm,
    polar,
    project_traceless,
    quotient_norm,
    scale,
    universal_trace,
)
from .checker import (
    AbstractDescriptor,
    AffFunction,
    ConditionCheck,
    ConditionReport,
    K0Data,
    PairingCheck,
    TraceSimplex,
    check_abstract,
    check_conditions,
    pairing_consistency,
    rho,
    rho_image_distance,
)
from .determinant import (
    Concatenation,
    ExpLine,
    InvertiblePath,
    LatticeQuotientValue,
    PointwiseProduct,
    ProductPolar,
    Reversal,
    Sampled,
    delta_1_0,
    determinant_mod_lattice,
    evaluate,
    evaluate_many,
    lattice_distance,
    lattice_reduce,
    path_determinant,
)
from .errors import (
    APFPError,
    BranchCut,
    DescriptorMismatch,
    DeterminantNotOne,
    InconsistentFlags,
    NoConvergence,
    NonFiniteValue,
    NotALoop,
    NotInClosure,
    NotPositive,
    NotUnitaryPath,
    OutOfDomain,
    PartitionOverflow,
    RankMismatch,
    RankTooHighForDensity,
    SingularInput,
    SingularValueOnPath,
)
from .factorization import (
    DistanceBracket,
    ExponentialSplitting,
    MembershipResult,
    OptimizerConfig,
    PositiveFactorization,
    best_approx_distance,
    commutator_factor_su,
    distance_bracket,
    factor_positive_products,
    membership_test,
    polar_path,
    residual_curve,
    split_into_exponentials,
)

__version__ = "0.1.0"
