"""Exception hierarchy shared by every module in the package."""


class GeometryError(Exception):
    """Base class for all geometric errors raised by convexkit."""


class AmbientDimError(GeometryError):
    """Ambient dimension outside the supported range 2..4."""


class DimensionError(GeometryError):
    """Input is lower-dimensional where a full-dimensional body is required,
    or an operation was invoked in the wrong ambient dimension."""


class DimensionMismatchError(GeometryError):
    """Two arguments live in different ambient dimensions."""


class ZeroDirectionError(GeometryError):
    """A direction vector must be nonzero."""


class DegenerateBasisError(GeometryError):
    """Subspace basis vectors are linearly dependent."""


class NegativeCoefficientError(GeometryError):
    """Minkowski combination coefficients must be nonnegative."""


class LowerDimensionalError(DimensionError):
    """Operation requires a full-dimensional polytope; raised only by
    ``geometry._check_full_dimensional``."""


class LambdaRangeError(GeometryError):
    """Interpolation parameter must lie in [0, 1]."""


class ZeroVolumeError(GeometryError):
    """Operation requires bodies of positive volume."""


class VolumeMismatchError(GeometryError):
    """Operation requires bodies of equal volume."""


class NotHomotheticProjectionError(GeometryError):
    """Shadow-alignment requires homothetic hyperplane projections."""


class EmptyScheduleError(GeometryError):
    """Symmetrization schedule must contain at least one direction."""


class OracleError(GeometryError):
    """A user-supplied mixed-area oracle failed."""


class PairPointsError(GeometryError):
    """A Minkowski combination of two bodies would form more vertex pairs
    than the fixed work bound allows."""


class InvariantError(GeometryError):
    """An exact consistency check failed: a bug signal, never a legitimate
    outcome of valid input."""
