"""Exception hierarchy shared across the engine."""


class NodalIdnError(Exception):
    """Base class for all engine errors.

    A batched computation that fails on some of its rows only says which:
    ``failed`` is the boolean mask of those rows and ``partial`` the output,
    whose other rows are valid.  Both are None for an error of the whole call.
    """

    def __init__(self, message: str = "", failed=None, partial=None):
        super().__init__(message)
        self.failed = failed
        self.partial = partial


class ModelError(NodalIdnError):
    """Invalid curve, domain, node group or charge family."""


class ConfigError(ModelError):
    """Malformed command config: a missing, mistyped or unknown value."""


class SolveError(NodalIdnError):
    """Linear solve failed or produced an untrustworthy result."""


class MomentError(NodalIdnError):
    """Moment integral or sheet-count estimation failed."""


class FiberError(NodalIdnError):
    """Fiber recovery, continuation or root matching failed."""


class MonodromyError(FiberError):
    """Sheet tracking lost continuity around a closed contour."""


class PartitionError(NodalIdnError):
    """No admissible zero-sum partition or inconsistent partitions."""


class CharacterizationError(NodalIdnError):
    """A characterization criterion could not be evaluated."""
