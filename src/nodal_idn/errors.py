"""Exception hierarchy shared across the engine."""


class NodalIdnError(Exception):
    """Base class for all engine errors; each carries its message only."""


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
