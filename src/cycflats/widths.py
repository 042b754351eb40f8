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

from .errors import TooLarge
from .groundsets import popcount
from .lattices import width_of_family
from .matroid import Matroid
from .ops import dual

ANTICHAIN_CAP = 24  # most cyclic flats ingleton_transversal searches


def cyclic_width(m: Matroid) -> int:
    """Width of the lattice of cyclic flats."""
    return width_of_family(m.flats)


def ingleton_transversal(m: Matroid):
    """Transversality via the inclusion-exclusion condition.

    Returns (True, None) or (False, witness) where witness is the first
    violating antichain in canonical order (size ascending, then lexicographic
    over the canonically ordered flats), as a tuple of flat masks.
    Raises TooLarge past ANTICHAIN_CAP cyclic flats.
    """
    flats = m.flats
    if len(flats) > ANTICHAIN_CAP:
        raise TooLarge(
            f"ingleton_transversal would search antichains of {len(flats)} "
            f"cyclic flats, over cap {ANTICHAIN_CAP} (ANTICHAIN_CAP)")
    width = width_of_family(flats)
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
