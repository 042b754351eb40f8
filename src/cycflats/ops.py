"""Duality, minors, relaxation, direct sums, truncation, isomorphism.

Everything operates on the cyclic-flats representation.  Minors are
computed by building the minor's rank oracle from the parent's and
re-deriving the cyclic flats by enumeration; there is no symbolic rule
for transforming the flats directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (GroundSetTooLarge, InvalidParameters, NotRelaxable,
                     OverlappingGroundSets, RankZero, TooLarge)
from .groundsets import GroundSet, bits, popcount, subset_key
from .matroid import ENUM_CAP, AxiomViolation, Matroid, RankedFamily, validate
from .lattices import is_chain


def _validated(ground, entries) -> Matroid:
    result = validate(RankedFamily(ground, entries))
    if isinstance(result, AxiomViolation):  # construction bug, not user error
        raise AssertionError(f"internal construction failed validation: {result}")
    return result


def dual(m: Matroid) -> Matroid:
    """The dual matroid: cyclic flats are the complements of m's.

    r*(E - X) = |E - X| - r(M) + r(X).  An involution.
    """
    full = m.ground.full
    entries = [(full & ~f, popcount(full & ~f) - m.matroid_rank + r)
               for f, r in zip(m.flats, m.flat_ranks)]
    return _validated(m.ground, entries)


@dataclass(frozen=True)
class MinorSpec:
    """A (contract, delete) pair of disjoint subset masks."""

    contract: int
    delete: int

    def __post_init__(self):
        if self.contract & self.delete:
            raise InvalidParameters("contract and delete sets overlap")

    def compose_into(self, outer: "MinorSpec",
                     outer_ground: GroundSet,
                     inner_ground: GroundSet) -> "MinorSpec":
        """Lift self (on inner_ground) to outer_ground and merge with outer."""
        contract = outer.contract
        delete = outer.delete
        for i in bits(self.contract):
            contract |= 1 << outer_ground.index[inner_ground.labels[i]]
        for i in bits(self.delete):
            delete |= 1 << outer_ground.index[inner_ground.labels[i]]
        return MinorSpec(contract, delete)


def minor(m: Matroid, spec: MinorSpec, cap: int = ENUM_CAP) -> Matroid:
    """The minor m \\ delete / contract.

    The minor's rank oracle is r'(A) = r(A u C) - r(C); its cyclic flats
    are recomputed by enumeration over the remaining ground set.
    """
    full = m.ground.full
    if (spec.contract | spec.delete) & ~full:
        raise InvalidParameters("minor spec outside ground set")
    keep = full & ~(spec.contract | spec.delete)
    kept_bits = list(bits(keep))
    n_new = len(kept_bits)
    if n_new > cap:
        raise GroundSetTooLarge(f"{n_new} elements exceeds cap {cap}")
    ground = GroundSet(m.ground.labels[i] for i in kept_bits)
    rt = m.rank_table()
    # expand each new mask into the parent's index space
    expand = np.zeros(1 << n_new, dtype=np.uint64)
    for j, i in enumerate(kept_bits):
        sel = (np.arange(1 << n_new, dtype=np.uint64)
               >> np.uint64(j)) & np.uint64(1)
        expand |= sel * np.uint64(1 << i)
    c = np.uint64(spec.contract)
    rc = int(rt[spec.contract])
    sub_rt = rt[expand | c].astype(np.int64) - rc
    entries = _cyclic_flats_of_table(sub_rt, n_new)
    return _validated(ground, entries)


def _cyclic_flats_of_table(rt: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Cyclic flats (closed, isthmus-free) of a full rank table."""
    all_masks = np.arange(1 << n, dtype=np.uint64)
    good = np.ones(1 << n, dtype=bool)
    for x in range(n):
        bit = np.uint64(1 << x)
        has = (all_masks & bit) != 0
        good &= has | (rt[all_masks | bit] > rt)
        good &= ~has | (rt[all_masks & ~bit] == rt)
    return [(int(f), int(rt[f])) for f in all_masks[good]]


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
    return _validated(m.ground, entries)


def relabel(m: Matroid, prefix: str) -> Matroid:
    """Prefix every ground-set label; structure unchanged."""
    ground = GroundSet(prefix + lab for lab in m.ground.labels)
    return _validated(ground, list(zip(m.flats, m.flat_ranks)))


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
    return _validated(ground, entries)


def truncate(m: Matroid) -> Matroid:
    """Truncation: free extension by a fresh element, then contract it."""
    from .freeprod import free_extension  # cycle: freeprod builds on ops
    if m.matroid_rank == 0:
        raise RankZero("cannot truncate a rank-0 matroid")
    ext = free_extension(m)
    e = 1 << (len(ext.ground) - 1)
    trunc = contraction(ext, e)
    # contraction keeps the original labels and their order
    return trunc


def higgs_lift(m: Matroid) -> Matroid:
    """The Higgs lift: dual of the truncation of the dual."""
    return dual(truncate(dual(m)))


# -- isomorphism ---------------------------------------------------------

def _chain_signature(m: Matroid):
    """Canonical signature of a nested matroid: ground size plus the
    chain of (|F|, r(F)) pairs."""
    return (len(m.ground),
            tuple((popcount(f), r) for f, r in zip(m.flats, m.flat_ranks)))


def _incidence_classes(m: Matroid):
    """Partition the ground set by flat-incidence vector.

    Elements with identical incidence over the cyclic flats are
    interchangeable by an automorphism.  Returns a list of
    (signature, class_mask) sorted canonically; the signature carries the
    class size and the (|F|, r(F)) profile of the incident flats.
    """
    by_vector: dict[tuple, int] = {}
    for x in bits(m.ground.full):
        vec = tuple(i for i, f in enumerate(m.flats) if (f >> x) & 1)
        by_vector[vec] = by_vector.get(vec, 0) | (1 << x)
    if not m.ground.full:
        return []
    out = []
    for vec, mask in by_vector.items():
        profile = tuple(sorted((popcount(m.flats[i]), m.flat_ranks[i])
                               for i in vec))
        out.append(((popcount(mask), profile), mask, vec))
    out.sort(key=lambda t: (t[0], subset_key(t[1])))
    return out


def is_isomorphic(m: Matroid, n: Matroid, max_elems: int = 13):
    """Isomorphism of matroids, with a label bijection witness.

    Two matroids are isomorphic iff some ground bijection maps the cyclic
    flats of one onto the other preserving ranks.  Nested matroids are
    compared by chain signature; the generic path matches classes of
    interchangeable elements by backtracking.  Returns (bool, witness)
    where witness maps labels of m to labels of n.
    """
    if len(m.ground) != len(n.ground):
        return False, None
    if m.matroid_rank != n.matroid_rank or len(m.flats) != len(n.flats):
        return False, None
    sig_m = sorted((popcount(f), r) for f, r in zip(m.flats, m.flat_ranks))
    sig_n = sorted((popcount(f), r) for f, r in zip(n.flats, n.flat_ranks))
    if sig_m != sig_n:
        return False, None
    chain_m = is_chain(m.flat_family())
    if chain_m != is_chain(n.flat_family()):
        return False, None
    if chain_m:
        if _chain_signature(m) != _chain_signature(n):
            return False, None
        return True, _chain_witness(m, n)
    if len(m.ground) > max_elems:
        raise TooLarge(
            f"{len(m.ground)} elements exceeds isomorphism cap {max_elems}")
    return _iso_backtrack(m, n)


def _chain_witness(m: Matroid, n: Matroid) -> dict[str, str]:
    """Blockwise bijection for two nested matroids with equal signatures."""
    witness = {}
    prev_m = prev_n = 0
    for fm, fn in zip(m.flats + (m.ground.full,), n.flats + (n.ground.full,)):
        block_m = m.ground.names(fm & ~prev_m)
        block_n = n.ground.names(fn & ~prev_n)
        witness.update(zip(block_m, block_n))
        prev_m, prev_n = prev_m | fm, prev_n | fn
    witness.update(zip(m.ground.names(m.ground.full & ~prev_m),
                       n.ground.names(n.ground.full & ~prev_n)))
    return witness


def _iso_backtrack(m: Matroid, n: Matroid):
    classes_m = _incidence_classes(m)
    classes_n = _incidence_classes(n)
    if [c[0] for c in classes_m] != [c[0] for c in classes_n]:
        return False, None
    k = len(classes_m)
    flats_n = dict(zip(n.flats, n.flat_ranks))
    # group candidate targets by signature
    candidates = [[j for j in range(k) if classes_n[j][0] == classes_m[i][0]]
                  for i in range(k)]
    assignment = [-1] * k
    used = [False] * k

    def flats_map_ok() -> bool:
        images = set()
        for f, r in zip(m.flats, m.flat_ranks):
            img = 0
            for i in range(k):
                if classes_m[i][1] & ~f == 0 and classes_m[i][1] & f:
                    img |= classes_n[assignment[i]][1]
            if flats_n.get(img) != r:
                return False
            images.add(img)
        return len(images) == len(n.flats)

    def search(i: int) -> bool:
        if i == k:
            return flats_map_ok()
        for j in candidates[i]:
            if not used[j]:
                assignment[i] = j
                used[j] = True
                if search(i + 1):
                    return True
                used[j] = False
                assignment[i] = -1
        return False

    if not search(0):
        return False, None
    witness = {}
    for i in range(k):
        witness.update(zip(m.ground.names(classes_m[i][1]),
                           n.ground.names(classes_n[assignment[i]][1])))
    return True, witness


def has_minor(m: Matroid, n: Matroid, max_elems: int = 12):
    """Exhaustive search for a minor of m isomorphic to n.

    Returns (bool, MinorSpec | None); the witness is the canonically
    least (contract, delete) pair found.  Candidates are generated in
    that order (contract sets by size, then lexicographically; for each,
    delete sets likewise), so the search stops at the first witness.
    Pruned by rank/nullity before each candidate minor is built.
    """
    if len(m.ground) > max_elems:
        raise TooLarge(
            f"{len(m.ground)} elements exceeds minor-search cap {max_elems}")
    size_m, size_n = len(m.ground), len(n.ground)
    if size_n > size_m or n.matroid_rank > m.matroid_rank \
            or n.nullity > m.nullity:
        return False, None
    rt = m.rank_table()
    full = m.ground.full
    removed_size = size_m - size_n
    for c in _masks_by_size(range(size_m), range(removed_size + 1)):
        rest = [i for i in range(size_m) if not (c >> i) & 1]
        for d in _masks_by_size(rest, [removed_size - popcount(c)]):
            if int(rt[full & ~d]) - int(rt[c]) != n.matroid_rank:
                continue
            cand = minor(m, MinorSpec(c, d))
            ok, _ = is_isomorphic(cand, n, max_elems=max_elems)
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
