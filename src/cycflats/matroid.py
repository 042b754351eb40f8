"""The canonical matroid representation: cyclic flats with ranks.

A candidate (family of subsets, rank for each member) is validated against
four conditions:

  Z0: the family is a lattice under inclusion;
  Z1: the least member has rank 0;
  Z2: 0 < r(Y) - r(X) < |Y - X| whenever X is properly contained in Y;
  Z3: r(X) + r(Y) >= r(X v Y) + r(X ^ Y) + |(X n Y) - (X ^ Y)|.

A validated candidate determines a matroid; the rank of an arbitrary
subset A is min over members F of r(F) + |A - F|, and independence,
circuits and closure all derive from that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Union

import numpy as np

from .errors import InvalidParameters, NotALattice, NotAMatroid, TooLarge
from .groundsets import GroundSet, bits, popcount, subset_key
from .lattices import family_lattice_tables

ENUM_CAP = 22  # largest ground set given a 2^n rank table
# candidate subsets circuits() may test; on a uniform matroid every
# candidate is a circuit, so this also bounds the length of its result
CIRCUIT_CAP = 10_000


class RankedFamily:
    """A candidate collection of subsets with integer ranks."""

    __slots__ = ("ground", "entries")

    def __init__(self, ground: GroundSet, entries):
        """entries: mapping mask -> rank, or iterable of (mask, rank)."""
        items = entries.items() if hasattr(entries, "items") else entries
        ordered = sorted(items, key=lambda kv: subset_key(kv[0]))
        self.ground = ground
        self.entries = dict(ordered)
        if not self.entries:
            raise InvalidParameters("ranked family must be nonempty")
        if len(self.entries) != len(ordered):
            raise InvalidParameters("duplicate subsets in ranked family")
        for m, r in ordered:
            if m >> len(ground):
                raise InvalidParameters(
                    f"subset {m:#x} outside ground set {ground.labels}")
            if not isinstance(r, int) or isinstance(r, bool):
                raise InvalidParameters(f"rank {r!r} is not an integer")

    @classmethod
    def from_labels(cls, labels: Iterable[str],
                    sets: Iterable[tuple[Iterable[str], int]]) -> "RankedFamily":
        ground = GroundSet(labels)
        return cls(ground, [(ground.mask(names), r) for names, r in sets])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankedFamily)
                and self.ground == other.ground and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ground, tuple(self.entries.items())))

    def __repr__(self) -> str:
        shown = {self.ground.names(m): r for m, r in self.entries.items()}
        return f"RankedFamily({list(self.ground.labels)!r}, {shown!r})"


@dataclass(frozen=True)
class AxiomViolation:
    """A failed validation: which condition, and a witness to re-check it."""

    which: str              # one of "Z0", "Z1", "Z2", "Z3"
    witness: tuple          # offending member mask(s)
    detail: str

    def __str__(self) -> str:
        return f"{self.which} violated: {self.detail}"


class Matroid:
    """A validated cyclic-flats-with-ranks representation.

    Immutable; build via validate() or Matroid.from_labels().  flats and
    flat_ranks are parallel tuples in canonical subset order.
    """

    __slots__ = ("ground", "flats", "flat_ranks", "_rank_of", "matroid_rank",
                 "_table")

    def __init__(self, ground, flats, flat_ranks):
        self.ground = ground
        self.flats = tuple(flats)
        self.flat_ranks = tuple(flat_ranks)
        self._rank_of = dict(zip(self.flats, self.flat_ranks))
        full = ground.full
        self.matroid_rank = min(
            r + popcount(full & ~f) for f, r in self._rank_of.items())
        self._table = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_labels(cls, labels, sets) -> "Matroid":
        """Validate (labels, [(names, rank), ...]); raise on violation."""
        return validated(RankedFamily.from_labels(labels, sets))

    def ranked_family(self) -> RankedFamily:
        return RankedFamily(self.ground, dict(zip(self.flats, self.flat_ranks)))

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matroid)
                and self.ground == other.ground
                and self.flats == other.flats
                and self.flat_ranks == other.flat_ranks)

    def __hash__(self) -> int:
        return hash((self.ground, self.flats, self.flat_ranks))

    def __repr__(self) -> str:
        shown = [(set(self.ground.names(f)) or "{}", r)
                 for f, r in zip(self.flats, self.flat_ranks)]
        return (f"Matroid(E={list(self.ground.labels)!r}, "
                f"rank={self.matroid_rank}, Z={shown!r})")

    # -- structure shortcuts ---------------------------------------------

    @property
    def bottom(self) -> int:
        """0_Z: the least cyclic flat (the loops)."""
        return self.flats[0]

    @property
    def top(self) -> int:
        """1_Z: the greatest cyclic flat (union of all circuits)."""
        return self.flats[-1]

    @property
    def nullity(self) -> int:
        return len(self.ground) - self.matroid_rank

    # -- rank oracle -----------------------------------------------------

    def rank(self, a: int) -> int:
        """Rank of an arbitrary subset: min r(F) + |A - F| over members."""
        return min(r + popcount(a & ~f) for f, r in self._rank_of.items())

    def rank_table(self) -> np.ndarray:
        """Ranks of all 2^n subsets, indexed by mask (cached)."""
        if self._table is None:
            n = len(self.ground)
            if n > ENUM_CAP:
                raise TooLarge(
                    f"rank_table would tabulate all subsets of {n} elements, "
                    f"over cap {ENUM_CAP} (ENUM_CAP); rank, closure, minor "
                    f"and dual need no table")
            all_masks = np.arange(1 << n, dtype=np.uint64)
            best = None
            for f, r in self._rank_of.items():
                cur = np.bitwise_count(all_masks & np.uint64(~f & self.ground.full))
                cur = cur.astype(np.int64) + r
                best = cur if best is None else np.minimum(best, cur)
            self._table = best
        return self._table

    def is_independent(self, i: int) -> bool:
        """True iff |I n X| <= r(X) for every cyclic flat X."""
        return all(popcount(i & f) <= r for f, r in self._rank_of.items())

    def rank_support(self, a: int) -> tuple[int, int, int]:
        """r(A), with the intersection and the union of the cyclic flats F
        that attain r(A) = r(F) + |A - F|.

        A is cyclic iff it lies inside the intersection (an element of A
        outside some attaining F is an isthmus of A), and cl(A) is A
        together with the union (x joins A at no cost iff some attaining
        F contains x).
        """
        best = inter = union = None
        for f, r in self._rank_of.items():
            v = r + popcount(a & ~f)
            if best is None or v < best:
                best, inter, union = v, f, f
            elif v == best:
                inter &= f
                union |= f
        return best, inter, union

    def closure(self, a: int) -> int:
        """A together with every x whose addition leaves the rank fixed."""
        return a | self.rank_support(a)[2]

    def circuits(self) -> list[int]:
        """All minimal C contained in some member X with |C| = r(X) + 1.

        Such a C is dependent, and a circuit iff C - x is independent for
        every x in C; every circuit C arises so, with X = cl(C).
        """
        count = sum(comb(popcount(f), r + 1) for f, r in self._rank_of.items())
        if count > CIRCUIT_CAP:
            raise TooLarge(f"circuits would enumerate {count} candidate "
                           f"subsets, over cap {CIRCUIT_CAP} (CIRCUIT_CAP); "
                           f"is_independent tests one subset directly")
        candidates = set()
        for f, r in self._rank_of.items():
            if popcount(f) >= r + 1:
                idx = list(bits(f))
                for combo in combinations(idx, r + 1):
                    m = 0
                    for i in combo:
                        m |= 1 << i
                    candidates.add(m)
        return [c for c in sorted(candidates, key=subset_key)
                if all(self.is_independent(c & ~(1 << x)) for x in bits(c))]

    def loops(self) -> int:
        return self.bottom

    def isthmuses(self) -> int:
        """Elements x with rank(E - x) = r(M) - 1, i.e. those outside 1_Z."""
        return self.ground.full & ~self.top


def validate(candidate: RankedFamily) -> Union[Matroid, AxiomViolation]:
    """Check conditions Z0-Z3; return a Matroid or the first violation.

    Ground-set elements outside the greatest member are isthmuses and
    elements inside the least member are loops; both are permitted.
    Violations come out in canonical order (Z0, then Z1, then Z2 over
    canonically ordered pairs, then Z3); use all_violations for the
    exhaustive-diagnostics list.
    """
    for v in _violations(candidate):
        return v
    return Matroid(candidate.ground, candidate.entries.keys(),
                   candidate.entries.values())


def validated(candidate: RankedFamily) -> Matroid:
    """The Matroid of a candidate, or NotAMatroid naming its first
    violation (see validate)."""
    result = validate(candidate)
    if isinstance(result, AxiomViolation):
        raise NotAMatroid(result)
    return result


def all_violations(candidate: RankedFamily) -> list[AxiomViolation]:
    """Every axiom violation of the candidate, in canonical order."""
    return list(_violations(candidate))


def _violations(candidate: RankedFamily):
    ground = candidate.ground
    entries = candidate.entries  # sorted and checked by RankedFamily
    masks = tuple(entries)
    try:
        meet, join = family_lattice_tables(masks)
    except NotALattice as exc:
        x, y = exc.pair
        yield AxiomViolation(
            "Z0", (x, y),
            f"members {set(ground.names(x)) or '{}'} and "
            f"{set(ground.names(y)) or '{}'} lack a unique meet or join")
        return
    r0 = entries[masks[0]]
    if r0 != 0:
        yield AxiomViolation(
            "Z1", (masks[0],),
            f"least member {set(ground.names(masks[0])) or '{}'} has rank {r0}, not 0")
    n = len(masks)
    for i in range(n):
        # canonical order puts a proper subset before its superset
        for j in range(i + 1, n):
            x, y = masks[i], masks[j]
            if x & ~y == 0:  # X proper subset of Y
                diff = entries[y] - entries[x]
                if not 0 < diff < popcount(y & ~x):
                    yield AxiomViolation(
                        "Z2", (x, y),
                        f"r(Y)-r(X) = {diff} not strictly between 0 and "
                        f"|Y-X| = {popcount(y & ~x)} for "
                        f"X={set(ground.names(x)) or '{}'}, "
                        f"Y={set(ground.names(y)) or '{}'}")
    for i in range(n):
        for j in range(i + 1, n):
            x, y = masks[i], masks[j]
            mt, jn = masks[meet[i][j]], masks[join[i][j]]
            lhs = entries[x] + entries[y]
            extra = popcount((x & y) & ~mt)
            rhs = entries[jn] + entries[mt] + extra
            if lhs < rhs:
                yield AxiomViolation(
                    "Z3", (x, y),
                    f"r(X)+r(Y) = {lhs} < {rhs} = r(XvY)+r(X^Y)+|(XnY)-(X^Y)| "
                    f"for X={set(ground.names(x)) or '{}'}, "
                    f"Y={set(ground.names(y)) or '{}'}")


def cyclic_flats_recompute(m: Matroid) -> RankedFamily:
    """Re-derive the cyclic flats of m from its rank oracle.

    Enumerates all subsets F that are closed (adding any outside element
    raises the rank) and isthmus-free in restriction (removing any inside
    element keeps the rank).  Must reproduce m's family exactly.  Raises
    TooLarge past ENUM_CAP elements, before allocating.
    """
    rt = m.rank_table()
    n = len(m.ground)
    all_masks = np.arange(1 << n, dtype=np.uint64)
    good = np.ones(1 << n, dtype=bool)
    for x in range(n):
        bit = np.uint64(1 << x)
        has = (all_masks & bit) != 0
        with_x = rt[all_masks | bit]
        without_x = rt[all_masks & ~bit]
        # closed: x outside F implies rank increases when added
        good &= has | (with_x > rt)
        # no isthmus in restriction: x inside F implies rank unchanged on removal
        good &= ~has | (without_x == rt)
    found = [int(f) for f in all_masks[good]]
    return RankedFamily(m.ground, [(f, int(rt[f])) for f in found])


@dataclass(frozen=True)
class BasicStats:
    rank: int
    nullity: int
    loops: tuple[str, ...]
    isthmuses: tuple[str, ...]
    n_cyclic_flats: int


def basic_stats(m: Matroid) -> BasicStats:
    return BasicStats(
        rank=m.matroid_rank,
        nullity=m.nullity,
        loops=m.ground.names(m.loops()),
        isthmuses=m.ground.names(m.isthmuses()),
        n_cyclic_flats=len(m.flats),
    )
