"""Exception hierarchy shared across the library."""


class HorocurvError(Exception):
    """Base class for all library errors."""


class InputDomainError(HorocurvError, ValueError):
    """Input violates a documented precondition (non-finite, out of span, ...)."""


class NotPSDError(InputDomainError):
    """Matrix has an eigenvalue below the PSD clamping tolerance."""


class ConfigError(HorocurvError, ValueError):
    """Invalid space/surface/check specification."""


class DegeneratePlaneError(InputDomainError):
    """Two tangent vectors fail to span a 2-plane."""


class ChartDegeneracyError(HorocurvError):
    """Chart tangent frame is numerically rank deficient at a node."""


class OracleFailure(HorocurvError):
    """Truncated Busemann oracle did not converge within its budget."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TranslationFailure(HorocurvError):
    """Direction translation to the base fiber did not converge."""


class UnsupportedVolumeError(ConfigError):
    """Ball volume requested on a space with a non-constant-curvature factor."""
