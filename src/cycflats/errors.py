"""Exception types shared across the library, and _check_int, the
one check that a size, rank or mask parameter is an int."""


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


class NotRelaxable(CycflatsError):
    """The cyclic flat does not satisfy the relaxation precondition."""


class OverlappingGroundSets(CycflatsError):
    """Two matroids that must have disjoint ground sets share labels."""


class RankZero(CycflatsError):
    """Truncation of a rank-0 matroid, or Higgs lift of one with r = |E|."""


class TooLarge(CycflatsError):
    """A call exceeds a size cap: matroid.ENUM_CAP (the elements of a
    rank table, 2^ENUM_CAP entries of rank_gen's interval tables, and
    2^ENUM_CAP cyclic flats of a Matroid's view of Z), matroid.CIRCUIT_CAP (candidate subsets), ops.MINOR_SEARCH_CAP
    (class-count profile pairs of has_minor), widths.ANTICHAIN_CAP (a
    bound on the rank calls of the antichain search) or
    build.LATTICE_CAP (lattice elements).  The message names the cap,
    the size asked for and any route around it."""


class NotNested(CycflatsError):
    """The lattice of cyclic flats is not a chain."""


class ChainTooShort(CycflatsError):
    """The chain of cyclic flats has fewer members than required."""


class InvalidParameters(CycflatsError):
    """Construction parameters out of range."""


class NotAMatroid(InvalidParameters):
    """Raised by matroid.validate when a ranked family fails Z0-Z3;
    .violation is the first item of matroid.all_violations."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


def _check_int(value, name: str) -> None:
    """Raise InvalidParameters unless value is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameters(f"{name} {value!r} is not an integer")


class UnknownName(CycflatsError):
    """Unknown catalog entry."""


class LabelInUse(CycflatsError):
    """A fresh element label collides with the existing ground set."""


class ParseError(CycflatsError):
    """A document does not match the expected schema."""
