"""Exception types raised across the package."""


class MatchdistError(Exception):
    """Base class for all errors raised by this package."""


class MissingFace(MatchdistError):
    """A simplex is present but one of its faces is not."""


class MonotonicityViolation(MatchdistError):
    """A face enters the filtration later than one of its cofaces."""


class EmptyCriticalSet(MatchdistError):
    """A simplex has no critical values."""


class NonFiniteCoordinate(MatchdistError):
    """A critical value has a nan or infinite coordinate."""


class MissingVertexValue(MatchdistError):
    """A lower-star input references a vertex without a value."""


class DegenerateBox(MatchdistError):
    """Subdivision requested for a box that is a single point."""


class DimensionMismatch(MatchdistError):
    """Diagrams of different homology dimensions were compared."""


class InvalidLevel(MatchdistError):
    """Box geometry is inconsistent with its declared subdivision level."""


class InvalidConfig(MatchdistError):
    """Solver configuration violates an invariant."""


class InfeasibleSpec(MatchdistError):
    """Random-generation parameters cannot be satisfied."""


class DepthTooLarge(MatchdistError):
    """Heatmap depth exceeds the supported maximum."""

