"""Duality, minors, relaxation, direct sums, truncation, isomorphism.

Everything operates on the cyclic-flats representation.  Minors,
truncation and the Higgs lift each follow one rule on the cyclic flats,
so they never enumerate subsets and work past ENUM_CAP.  Isomorphism
is a search over the lattices of cyclic flats, not the ground sets (see
is_isomorphic), so it has no element cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (InvalidParameters, NotRelaxable, OverlappingGroundSets,
                     RankZero, TooLarge)
from .groundsets import GroundSet, bits, element_classes, popcount
from .matroid import Matroid, RankedFamily, validated
from .lattices import _down_masks, _order_isomorphism

MINOR_SEARCH_CAP = 12  # largest host has_minor searches


def dual(m: Matroid) -> Matroid:
    """The dual matroid: cyclic flats are the complements of m's.

    r*(E - X) = |E - X| - r(M) + r(X).  An involution.
    """
    full = m.ground.full
    entries = [(full & ~f, popcount(full & ~f) - m.matroid_rank + r)
               for f, r in zip(m.flats, m.flat_ranks)]
    return validated(RankedFamily(m.ground, entries))


@dataclass(frozen=True)
class MinorSpec:
    """A (contract, delete) pair of disjoint subset masks."""

    contract: int
    delete: int

    def __post_init__(self):
        if self.contract & self.delete:
            raise InvalidParameters("contract and delete sets overlap")


def minor(m: Matroid, spec: MinorSpec) -> Matroid:
    """The minor m \\ D / C, with C = spec.contract, D = spec.delete.

    Its cyclic flats come from m's: for F in Z(m) let G = F - D; then
    G - C is a cyclic flat of the minor, of rank r(G u C) - r(C), iff G
    is cyclic and G u C is closed in m \\ D.  Every cyclic flat of the
    minor arises so, and its rank oracle is r'(A) = r(A u C) - r(C).
    """
    c, d = spec.contract, spec.delete
    full = m.ground.full
    if (c | d) & ~full:
        raise InvalidParameters("minor spec outside ground set")
    rc = m.rank(c)
    found = {}
    for f in m.flats:
        g = f & ~d
        if g & ~m.rank_support(g)[1]:
            continue  # G has an isthmus
        r, _, union = m.rank_support(g | c)
        if union & ~(g | c | d):
            continue  # cl(G u C) gains an element outside D
        found[g & ~c] = r - rc
    kept = list(bits(full & ~(c | d)))
    entries = []
    for x, r in found.items():
        y = 0
        for j, i in enumerate(kept):
            y |= ((x >> i) & 1) << j
        entries.append((y, r))
    ground = GroundSet(m.ground.labels[i] for i in kept)
    return validated(RankedFamily(ground, entries))


def restriction(m: Matroid, keep: int) -> Matroid:
    """m restricted to the subset keep (delete everything else)."""
    return minor(m, MinorSpec(0, m.ground.full & ~keep))


def contraction(m: Matroid, away: int) -> Matroid:
    """m contracted by the subset away."""
    return minor(m, MinorSpec(away, 0))


def relax(m: Matroid, f: int) -> Matroid:
    """Drop a cyclic flat comparable only to the least and greatest ones.

    Generalizes circuit-hyperplane relaxation; the reduced family is
    guaranteed to satisfy the axioms.
    """
    if f not in m._rank_of:
        raise NotRelaxable("not a cyclic flat")
    if f == m.bottom or f == m.top:
        raise NotRelaxable("cannot relax the least or greatest cyclic flat")
    for g in m.flats:
        if g in (f, m.bottom, m.top):
            continue
        if f & ~g == 0 or g & ~f == 0:
            raise NotRelaxable(
                f"flat is comparable to {set(m.ground.names(g))}")
    entries = [(g, r) for g, r in zip(m.flats, m.flat_ranks) if g != f]
    return validated(RankedFamily(m.ground, entries))


def relabel(m: Matroid, prefix: str) -> Matroid:
    """Prefix every ground-set label; structure unchanged."""
    ground = GroundSet(prefix + lab for lab in m.ground.labels)
    return validated(RankedFamily(ground, zip(m.flats, m.flat_ranks)))


def direct_sum(m: Matroid, n: Matroid) -> Matroid:
    """Direct sum; the lattice of cyclic flats is the product of the two."""
    if set(m.ground.labels) & set(n.ground.labels):
        raise OverlappingGroundSets(
            f"shared labels: {set(m.ground.labels) & set(n.ground.labels)}")
    ground = GroundSet(m.ground.labels + n.ground.labels)
    shift = len(m.ground)
    entries = [(x | (y << shift), rx + ry)
               for x, rx in zip(m.flats, m.flat_ranks)
               for y, ry in zip(n.flats, n.flat_ranks)]
    return validated(RankedFamily(ground, entries))


def truncate(m: Matroid) -> Matroid:
    """Truncation: the cyclic flats F with r(F) < r(M) - 1, and E at rank
    r(M) - 1, as the rank min(r(A), r(M) - 1) keeps sets below r(M) - 1
    and makes E the only flat above, with no isthmus."""
    rank = m.matroid_rank - 1
    if rank < 0:
        raise RankZero("cannot truncate a rank-0 matroid")
    entries = [(f, r) for f, r in zip(m.flats, m.flat_ranks) if r < rank]
    return validated(RankedFamily(m.ground, entries + [(m.ground.full, rank)]))


def higgs_lift(m: Matroid) -> Matroid:
    """The Higgs lift: the cyclic flats F with |F| - r(F) >= 2 at rank
    r(F) + 1, and the empty set at rank 0, as the dual of truncate's
    rule on M* (E - F is kept iff r*(E - F) < r(M*) - 1)."""
    if m.nullity == 0:
        raise RankZero("cannot lift a matroid of full rank r(M) = |E|")
    entries = [(f, r + 1) for f, r in zip(m.flats, m.flat_ranks)
               if popcount(f) - r >= 2]
    return validated(RankedFamily(m.ground, entries + [(0, 0)]))


# -- isomorphism ---------------------------------------------------------

def is_isomorphic(m: Matroid, n: Matroid):
    """Isomorphism of matroids, with a label bijection witness.

    m and n are isomorphic iff some lattice isomorphism phi from Z(m) to
    Z(n) keeps |F| and r(F) and, for each class of elements of m sharing
    one up-set U of Z(m), sends U to the up-set of a class of n of the
    same size.  Mapping the elements class by class then carries each
    flat, the union of the classes whose up-set contains it, onto its
    image.  The search keeps, for each class of m, the classes of n its
    up-set may still go to, and drops a partial phi that leaves a class
    none; that prunes only mappings the complete check would reject, so
    the first phi found, and the witness, are those of checking each
    complete phi.  Returns (bool, witness) where witness maps labels of
    m to labels of n.
    """
    if len(m.ground) != len(n.ground):
        return False, None
    if m.matroid_rank != n.matroid_rank or len(m.flats) != len(n.flats):
        return False, None
    colours_m = [(popcount(f), r) for f, r in zip(m.flats, m.flat_ranks)]
    colours_n = [(popcount(f), r) for f, r in zip(n.flats, n.flat_ranks)]
    if sorted(colours_m) != sorted(colours_n):
        return False, None
    classes_m = element_classes(m.flats, m.ground.full)
    classes_n = element_classes(n.flats, n.ground.full)

    def image(u: int, phi) -> int:
        return sum(1 << phi[i] for i in bits(u))

    sizes_m = {u: popcount(c) for u, c in classes_m.items()}
    sizes_n = {v: popcount(c) for v, c in classes_n.items()}
    phi = _order_isomorphism(_down_masks(m.flats), _down_masks(n.flats),
                             colours_m, colours_n, sizes_m, sizes_n)
    if phi is None:
        return False, None
    witness = {}
    for u, c in classes_m.items():
        witness.update(zip(m.ground.names(c),
                           n.ground.names(classes_n[image(u, phi)])))
    return True, witness


def has_minor(m: Matroid, n: Matroid):
    """Exhaustive search for a minor of m isomorphic to n.

    Returns (bool, MinorSpec | None); the witness is the canonically
    least (contract, delete) pair found.  Candidates are generated in
    that order (contract sets by size, then lexicographically; for each,
    delete sets likewise), so the search stops at the first witness.
    Before a candidate m \\ D / C is built, its rank, loops and coloops
    are counted from two rank_support calls on m and compared with n's:
      rank    = r(E - D) - r(C);
      loops   = cl(C) - C - D;
      coloops = (E - D) - inter(E - D) - C, where inter(E - D) is the
                intersection of the flats attaining r(E - D), so
                (E - D) - inter(E - D) are the isthmuses of m \\ D.
    All three are isomorphism invariants, so the witness is unchanged.
    Raises TooLarge for a host past MINOR_SEARCH_CAP elements.
    """
    if len(m.ground) > MINOR_SEARCH_CAP:
        raise TooLarge(
            f"has_minor would search a host of {len(m.ground)} elements, "
            f"over cap {MINOR_SEARCH_CAP} (MINOR_SEARCH_CAP); for nested "
            f"matroids, nested_sequence_of and nested_subsequence_minor "
            f"decide it without a search")
    size_m, size_n = len(m.ground), len(n.ground)
    if size_n > size_m or n.matroid_rank > m.matroid_rank \
            or n.nullity > m.nullity:
        return False, None
    full = m.ground.full
    loops_n, coloops_n = popcount(n.loops()), popcount(n.isthmuses())
    removed_size = size_m - size_n
    for c in _masks_by_size(range(size_m), range(removed_size + 1)):
        rc, _, union = m.rank_support(c)
        cl_c = c | union
        rest = [i for i in range(size_m) if not (c >> i) & 1]
        for d in _masks_by_size(rest, [removed_size - popcount(c)]):
            r, inter, _ = m.rank_support(full & ~d)
            if r - rc != n.matroid_rank \
                    or popcount(cl_c & ~(c | d)) != loops_n \
                    or popcount(full & ~(d | inter | c)) != coloops_n:
                continue
            cand = minor(m, MinorSpec(c, d))
            ok, _ = is_isomorphic(cand, n)
            if ok:
                return True, MinorSpec(c, d)
    return False, None


def _masks_by_size(elems, sizes):
    """Masks of the subsets of elems (ascending indices) with the given
    sizes, in canonical subset order."""
    for size in sizes:
        for combo in combinations(elems, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask
