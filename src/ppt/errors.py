"""Semantic exception hierarchy shared by all ppt modules."""


class PPTError(Exception):
    """Base error for this package."""


class ValidationError(PPTError, ValueError):
    """Inputs violate a contract: domain, shape, type or unknown field."""


class UnsupportedDimensionError(ValidationError):
    """Operation requested in a dimension the quadrature does not cover (above 3)."""


class QuadratureError(PPTError):
    """Quadrature failed to converge.  Carries the refinement trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class EnvelopeViolationError(PPTError):
    """Observed density value above the declared envelope ``density_sup``."""


class SamplerHardnessError(PPTError):
    """Rejection sampler fell below its acceptance floor.  Carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InternalConsistencyError(PPTError):
    """Two supposedly-equal expressions of the same quantity disagree."""


class TruncationError(ValidationError):
    """Neglected probability mass of a truncated law exceeds the allowed level."""


class SpecParseError(ValidationError):
    """Experiment spec or expression failed strict parsing.

    ``where`` locates the offending field (dotted path) or character position.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
