"""Exception types shared across the package."""


class VaricurvError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(VaricurvError):
    """NaN/Inf or otherwise unusable numeric input."""


class InvalidDirectionMatrixError(VaricurvError):
    """Direction matrix is not symmetric positive semidefinite (within tolerance)."""


class AsymmetricInputError(VaricurvError):
    """Tensor lacks the symmetry required by the operation."""


class InvalidProfileError(VaricurvError):
    """Kernel profile violates an admissibility condition."""


class QuadratureError(VaricurvError):
    """Adaptive quadrature failed to converge to the requested accuracy."""


class CloudValidationError(VaricurvError):
    """Point cloud data fails validation (masses, planes, coordinates)."""


class DegenerateNeighborhoodError(VaricurvError):
    """Local covariance has rank < d; carries the offending point index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"degenerate neighborhood at point {index}")


class ZeroRadiusError(VaricurvError):
    """Mass radius collapsed to zero (duplicate points or n_mass=1)."""


class IsolatedPointError(VaricurvError):
    """Empty effective neighborhood: the smoothed mass denominator vanishes."""


class CodimensionError(VaricurvError):
    """Operation requires codimension one (d = n - 1)."""


class ScheduleError(VaricurvError):
    """Convergence schedule violates N-increasing / eps-decreasing monotonicity."""


class FileFormatError(VaricurvError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
