"""Exception types shared across the library."""


class CycflatsError(Exception):
    """Base class for all library errors."""


class CyclicCovers(CycflatsError):
    """The cover digraph of a would-be lattice contains a cycle."""


class NotALattice(CycflatsError):
    """A pair of elements lacks a unique meet or join."""

    def __init__(self, x, y, reason=""):
        self.pair = (x, y)
        self.reason = reason
        super().__init__(f"no unique meet/join for pair ({x!r}, {y!r})"
                         + (f": {reason}" if reason else ""))


class UnknownLabel(CycflatsError):
    """A referenced element name is not in the ground set."""


class DuplicateSet(CycflatsError):
    """A family contains the same subset twice."""


class GroundSetTooLarge(CycflatsError):
    """A 2^n enumeration was requested beyond the configured cap."""


class NotRelaxable(CycflatsError):
    """The cyclic flat does not satisfy the relaxation precondition."""


class OverlappingGroundSets(CycflatsError):
    """Two matroids that must have disjoint ground sets share labels."""


class RankZero(CycflatsError):
    """Truncation of a rank-0 matroid."""


class TooLarge(CycflatsError):
    """The minor search or the circuit enumeration exceeds its size cap."""


class NotNested(CycflatsError):
    """The lattice of cyclic flats is not a chain."""


class ChainTooShort(CycflatsError):
    """The chain of cyclic flats has fewer members than required."""


class InvalidParameters(CycflatsError):
    """Construction parameters out of range."""


class NotAMatroid(InvalidParameters):
    """A ranked family fails the cyclic-flat axioms; .violation says how."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


class UnknownName(CycflatsError):
    """Unknown catalog entry."""


class LabelInUse(CycflatsError):
    """A fresh element label collides with the existing ground set."""


class DimensionMismatch(CycflatsError):
    """Rank-generating matrices with inconsistent dimensions."""


class TooManyCyclicFlats(CycflatsError):
    """Antichain enumeration over the cyclic flats exceeds its cap."""


class ParseError(CycflatsError):
    """A document does not match the expected schema."""
