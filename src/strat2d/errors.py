"""Exception types shared across the package."""


class Strat2dError(Exception):
    """Base class for package errors."""


class GridMismatchError(Strat2dError):
    """Two fields do not live on the same grid."""


class NonzeroMeanError(Strat2dError):
    """A homogeneous operator was applied to a field with nonzero mean."""


class NegativePowerOnNonzeroMeanError(NonzeroMeanError):
    """Lambda^s with s < 0 applied to a field with nonzero mean."""


class HermitianSymmetryError(Strat2dError):
    """Spectral coefficients are not Hermitian-symmetric (field not real)."""


class BlowupSuspectedError(Strat2dError):
    """Time integration produced non-finite values or could not go on; its
    reason is the run's stop reason ("non_finite" or "step_floor")."""

    def __init__(self, message, t=None, reason="non_finite"):
        super().__init__(message)
        self.t = t
        self.reason = reason


class ConfigError(Strat2dError):
    """Invalid experiment configuration."""
