"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class ModelValidationError(EstimationError, ValueError):
    """Inputs violate a model or frame invariant (bad auxiliaries, bad shapes)."""


class DegenerateFrameError(EstimationError):
    """Too few sampled or unsampled units for the operation, or one unit holds all the precision."""


class DivergenceUndefinedError(EstimationError):
    """A divergence is undefined or leaves float64.

    The message says why: a covariance or mixture is not positive definite,
    the inputs do not match, or a value overflows.
    """
