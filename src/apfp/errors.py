"""Exception hierarchy shared by all modules.

Every failure mode raised by the library derives from APFPError so callers
can catch the whole family at once.  Numeric failures carry enough context
(best residuals, offending values) to be reported without re-running.
"""


class APFPError(Exception):
    """Base class for all errors raised by this package."""


class DescriptorMismatch(APFPError):
    """Operands live in different block algebras."""


class SingularInput(APFPError):
    """An element required to be invertible has a singular value at or
    below the degeneracy threshold."""


class NotPositive(APFPError):
    """Input to a positive-only operation (e.g. the positive log) fails
    the positivity test."""


class BranchCut(APFPError):
    """A unitary has an eigenvalue too close to -1 for the principal
    logarithm branch."""


class OutOfDomain(APFPError):
    """Path evaluated outside its parameter interval."""


class SingularValueOnPath(APFPError):
    """A path value is singular (or numerically indistinguishable from
    singular) at some parameter."""


class NonFiniteValue(APFPError):
    """A computed value overflowed to inf or nan."""


class NoConvergence(APFPError):
    """No route reached the target: a search hit its cap, or a closed
    form missed or gave nothing.

    For the factorizer the best factorization found, if any, is attached.
    """

    def __init__(self, message, best_residual=None, best=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best = best


class NotALoop(APFPError):
    """Path endpoints differ from the identity beyond tolerance."""


class NotUnitaryPath(APFPError):
    """Path values fail the unitarity check."""


class PartitionOverflow(APFPError):
    """Dyadic refinement would exceed the hard partition cap."""


class DeterminantNotOne(APFPError):
    """A block determinant differs from 1 beyond tolerance."""


class NotInClosure(APFPError):
    """Element fails the membership test for the closure of products of
    positives; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class RankMismatch(APFPError):
    """Integer vector length does not match the K0 rank."""


class RankTooHighForDensity(APFPError):
    """Density of the pairing range is only decidable at rank one;
    higher ranks must assert it."""


class InconsistentFlags(APFPError):
    """An asserted flag contradicts an exactly computed value."""
