"""Exception hierarchy for the fusion-frame toolkit."""


class FusionFrameError(Exception):
    """Base class for all toolkit errors."""


class ZeroSubspace(FusionFrameError):
    """Spanning set has numerical rank zero."""


class Singular(FusionFrameError):
    """Matrix is numerically singular."""


class DimensionMismatch(FusionFrameError):
    """Operands live on incompatible spaces."""


class NotAFrame(FusionFrameError):
    """System's optimal lower bound is not bounded away from zero."""


class ArityMismatch(FusionFrameError):
    """Candidate dual has a different number of members than the primary."""


class NotUnitary(FusionFrameError):
    """Operator fails the unitarity check."""


class NotADual(FusionFrameError):
    """Candidate does not satisfy the dual reconstruction identity."""


class BadParameters(FusionFrameError):
    """Invalid generation parameters."""
