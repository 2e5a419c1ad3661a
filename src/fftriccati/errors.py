"""Exception taxonomy shared across the solver modules."""


class FftRiccatiError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FftRiccatiError):
    """Input of the wrong shape, or with non-finite or complex entries."""


class PcgFailure(FftRiccatiError):
    """PCG did not reach the requested tolerance where a converged solve was required."""


class BreakdownNonSpd(FftRiccatiError):
    """p'Ap <= 0 inside CG: the operator is not positive definite."""


class NotPositiveDefinite(FftRiccatiError):
    """Cholesky failed on a matrix that should be SPD by construction."""


class StackBlowup(FftRiccatiError):
    """A Krylov block exceeded the overflow guard (badly scaled or unstable A),
    or a factor to compress is not finite."""


class SingularShift(FftRiccatiError):
    """A - gamma*I (or the closed-loop correction) could not be factored."""


class SingularPreconditioner(FftRiccatiError):
    pass


class NoConvergence(FftRiccatiError):
    """Outer loop hit its round cap; carries the last factor and the round history."""

    def __init__(self, message, factor=None, history=None):
        super().__init__(message)
        self.factor = factor
        self.history = history


class ZeroRhs(FftRiccatiError):
    """C = 0: the relative residual is undefined."""


class ParseError(FftRiccatiError):
    pass
