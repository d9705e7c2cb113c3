"""Exception types shared across the package."""


class OpscaleError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(OpscaleError):
    """A balancing target was not positive definite.

    Raised by :func:`opscale.cpmap.balance_factor` when the smallest
    eigenvalue of the matrix to balance falls below the singular floor.
    Inside the solvers this is the legitimate infeasibility signal
    (vanishing capacity), so they catch it and report ERROR_NOT_PD.
    """

    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"matrix is not positive definite (min eigenvalue {min_eigenvalue:.3e})"
        )


class NotInvertible(OpscaleError):
    """A scaling factor is numerically singular."""


class AllZeroSpectrum(OpscaleError):
    """Every entry of a target spectrum is zero; no support to project onto."""


class NonIntegralSpectrum(OpscaleError):
    """Spectra cannot be rescaled to small integers for the truncation map."""


class DimensionTooLarge(OpscaleError):
    """An exact enumeration oracle was asked for more than it can enumerate."""


class InfeasibleInstance(OpscaleError):
    """An instance failed an exact pre-check (trace, majorization, ...)."""


class ScalingFailure(OpscaleError):
    """A solver finished without SUCCESS.

    Attributes
    ----------
    status : str
        The terminal solver status (ERROR_NOT_PD, ERROR_BUDGET, ...).
    result : ScalingResult or None
        The full solver result when one was produced.
    cpmap, spec : CPMap, MarginalSpec or None
        The operator instance the solver ran on, when known.
    """

    def __init__(self, status, result=None, message=None, cpmap=None, spec=None):
        self.status = str(status)
        self.result = result
        self.cpmap = cpmap
        self.spec = spec
        super().__init__(message or f"scaling failed with status {self.status}")
