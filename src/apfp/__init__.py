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
    AffFunction,
    AlgebraDescriptor,
    Element,
    TraceValue,
    adjoint,
    exp_element,
    is_positive,
    log_positive,
    log_unitary_principal,
    op_norm,
    polar,
    quotient_norm,
    universal_trace,
)
from .checker import (
    AbstractDescriptor,
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
    ClosureDistance,
    ExponentialSplitting,
    MembershipResult,
    OptimizerConfig,
    PositiveFactorization,
    best_approx_distance,
    commutator_factor_su,
    distance_to_closure,
    factor_positive_products,
    membership_test,
    residual_curve,
    split_into_exponentials,
)

__version__ = "0.1.0"
