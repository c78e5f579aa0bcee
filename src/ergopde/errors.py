"""Exception hierarchy shared by all ergopde modules."""


class ErgopdeError(Exception):
    """Base class for all package errors."""


class OutOfRange(ErgopdeError):
    """A scalar argument violates its admissible range."""


class DimensionMismatch(ErgopdeError):
    """Matrix or grid dimensions do not agree."""


class DegenerateOperator(ErgopdeError):
    """An operator spec evaluates non-positively on a rank-one projector."""


class EmptyRegion(ErgopdeError):
    """A subregion contains too few nodes."""


class InsufficientSpan(ErgopdeError):
    """Fit samples do not span a wide enough distance range."""


class NonConvergence(ErgopdeError):
    """An iteration failed to meet its tolerance."""


class InvalidRegime(ErgopdeError):
    """ODE shooting launched in a regime where the slope cannot leave zero."""


class BracketFailure(ErgopdeError):
    """A root search found no sign-changing bracket, or missed its tolerance."""


class UnresolvedLayer(ErgopdeError):
    """The grid or the offsets do not resolve the boundary layer a result needs."""


class UnsupportedCase(ErgopdeError):
    """A requested asymptotic regime is outside the supported theory."""


class HypothesisViolated(ErgopdeError):
    """A verification was requested on an instance outside its hypotheses."""


class ConfigError(ErgopdeError):
    """A run configuration failed to parse or validate."""
