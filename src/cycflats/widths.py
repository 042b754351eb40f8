"""Cyclic width and the inclusion-exclusion transversality test.

The cyclic width of a matroid is the width (largest antichain) of its
lattice of cyclic flats.  A matroid is transversal iff for every
antichain (X_1, ..., X_n) of cyclic flats

    r(X_1 n ... n X_n) <= sum over nonempty J of (-1)^(|J|+1) r(union_J X_j);

restricting to antichains loses nothing because a comparable pair lets
the larger flat be omitted from both sides.  Singletons give equality
and pairs reduce to semimodularity, which every matroid rank function
has, so the search starts at size 3.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import TooLarge
from .groundsets import popcount
from .lattices import width_of_family
from .matroid import Matroid
from .ops import dual

ANTICHAIN_CAP = 2 ** 20  # most rank calls ingleton_transversal may make


def cyclic_width(m: Matroid) -> int:
    """Width of the lattice of cyclic flats."""
    return width_of_family(m.flats)


def ingleton_transversal(m: Matroid):
    """Transversality via the inclusion-exclusion condition.

    Returns (True, None) or (False, witness) where witness is the first
    violating antichain in canonical order (size ascending, then lexicographic
    over the canonically ordered flats), as a tuple of flat masks.

    An antichain of s flats costs 2^s rank calls, so with k cyclic flats
    and width w the search makes at most sum_{s=3..w} C(k, s) 2^s; raises
    TooLarge when that bound is over ANTICHAIN_CAP.  The sum stops at the
    first size s that takes it over the cap, and the message gives the
    sum up to s, a lower bound that stays a few digits long.
    """
    flats = m.flats
    width = width_of_family(flats)
    work = 0
    for size in range(3, width + 1):
        work += comb(len(flats), size) << size
        if work > ANTICHAIN_CAP:
            raise TooLarge(
                f"ingleton_transversal would make {work} or more rank calls "
                f"on antichains of 3 to {width} of {len(flats)} cyclic "
                f"flats, over cap {ANTICHAIN_CAP} (ANTICHAIN_CAP)")
    for size in range(3, width + 1):
        for combo in combinations(flats, size):
            if any(a & ~b == 0 or b & ~a == 0
                   for a, b in combinations(combo, 2)):
                continue
            inter = combo[0]
            for f in combo[1:]:
                inter &= f
            # union[s]: the union of the members of combo picked by s,
            # from s without its lowest bit
            union = [0] * (1 << size)
            rhs = 0
            for s in range(1, 1 << size):
                low = (s & -s).bit_length() - 1
                union[s] = union[s & (s - 1)] | combo[low]
                r = m.rank(union[s])
                rhs += r if popcount(s) % 2 else -r
            if m.rank(inter) > rhs:
                return False, combo
    return True, None


def bitransversal_cert(m: Matroid) -> bool:
    """True iff both m and its dual pass the transversality test."""
    ok, _ = ingleton_transversal(m)
    if not ok:
        return False
    ok, _ = ingleton_transversal(dual(m))
    return ok
