"""Finite lattices and poset machinery.

Covers two flavors of input: abstract lattices given by cover relations,
and families of sets ordered by inclusion.  A lattice stores only its
down-masks.  Provides chain and width computations (Dilworth duality via
bipartite matching), and poset isomorphism with a witness bijection.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (CyclicCovers, DuplicateSet, InvalidParameters, NotALattice,
                     UnknownLabel)
from .groundsets import bits, popcount


class FiniteLattice:
    """A finite lattice: named elements and their order.

    down[i] is the bitmask (over element indices) of elements <= element i,
    including i itself; bottom and top are element indices.  Nothing else
    is stored: meet, join and covers are derived from down.
    """

    __slots__ = ("elements", "down", "bottom", "top")

    def __init__(self, elements: Sequence[str], down: Sequence[int]):
        self.elements = tuple(elements)
        self.down = tuple(down)
        n = len(self.elements)
        self.bottom = min(range(n), key=lambda i: popcount(self.down[i]))
        self.top = max(range(n), key=lambda i: popcount(self.down[i]))

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x: str, y: str) -> bool:
        i, j = self.elements.index(x), self.elements.index(y)
        return bool((self.down[j] >> i) & 1)

    def meet(self, x: str, y: str) -> str:
        """The element whose down-mask is down[x] & down[y]."""
        i, j = self.elements.index(x), self.elements.index(y)
        return self.elements[self.down.index(self.down[i] & self.down[j])]

    def join(self, x: str, y: str) -> str:
        """The common upper bound of x and y with the fewest elements
        below it."""
        pair = (1 << self.elements.index(x)) | (1 << self.elements.index(y))
        return self.elements[min(
            (k for k, d in enumerate(self.down) if d & pair == pair),
            key=lambda k: popcount(self.down[k]))]

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper), in element order."""
        strict = [d & ~(1 << j) for j, d in enumerate(self.down)]
        out = []
        for j, lower in enumerate(strict):
            for k in bits(strict[j]):  # i < k < j rules i out
                lower &= ~strict[k]
            out += [(self.elements[i], self.elements[j]) for i in bits(lower)]
        return out

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r}, covers={self.covers()!r})"


def lattice_from_covers(elements: Sequence[str],
                        covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a FiniteLattice from element names and cover pairs.

    leq is the reflexive-transitive closure of the cover relation; the
    elements may be listed in any order.  Raises InvalidParameters for an
    empty element list, CyclicCovers if the cover digraph has a cycle (a
    self-cover included) and NotALattice if some pair lacks a unique meet
    or join.
    """
    elements = tuple(elements)
    if not elements:
        raise InvalidParameters("a lattice needs at least one element")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise DuplicateSet(f"duplicate element names: {elements}")
    n = len(elements)
    up = [1 << i for i in range(n)]  # up[i]: mask of j with i <= j
    edges = [[] for _ in range(n)]
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise UnknownLabel(f"unknown cover element in ({lo!r}, {hi!r})")
        if lo == hi:
            raise CyclicCovers(f"{lo!r} covers itself")
        edges[index[lo]].append(index[hi])
    # transitive closure by repeated relaxation
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i]):
                for k in edges[j]:
                    acc |= up[k]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise CyclicCovers(
                    f"cycle through {elements[i]!r} and {elements[j]!r}")
    down = _converse(up)
    _check_lattice(elements, down)
    return FiniteLattice(elements, down)


def _down_masks(masks: Sequence[int]) -> list[int]:
    """Down-masks of a family under inclusion: bit j of the result's
    entry i is set iff masks[j] is a subset of masks[i]."""
    weights = [1 << j for j in range(len(masks))]
    return [sum(w for w, b in zip(weights, masks) if b & ~a == 0)
            for a in masks]


def _converse(rel: Sequence[int]) -> list[int]:
    """The converse relation: up-masks from down-masks (or back)."""
    out = [0] * len(rel)
    for i, row in enumerate(rel):
        for j in bits(row):
            out[j] |= 1 << i
    return out


def _bound_lookups(down: Sequence[int]):
    """(up, glb, lub) of a partial order given by its down-masks
    (reflexive and transitive, in any index order).

    Down-masks are distinct (antisymmetry), so the lower bounds of
    {i, j} are down[i] & down[j], and a greatest one exists iff that is
    the down-mask of some element: glb.get(down[i] & down[j]) is the
    meet, or None.  Likewise lub.get(up[i] & up[j]) is the join, or None.
    """
    up = _converse(down)
    return (up, {d: i for i, d in enumerate(down)},
            {u: i for i, u in enumerate(up)})


def _check_lattice(items: Sequence, down: Sequence[int]):
    """The (up, glb, lub) of _bound_lookups for a partial order given by
    its down-masks, once every pair has a meet and a join.  Otherwise
    raises NotALattice(items[i], items[j], reason) for the first
    offending pair (i, j) in index order, the meet of a pair checked
    before its join; items name the elements (names or masks).
    """
    up, glb, lub = _bound_lookups(down)
    n = len(down)
    for i in range(n):
        di, ui = down[i], up[i]
        for j in range(i + 1, n):
            if di & down[j] not in glb:
                raise NotALattice(items[i], items[j], "no unique meet")
            if ui & up[j] not in lub:
                raise NotALattice(items[i], items[j], "no unique join")
    return up, glb, lub


def family_lattice_tables(masks: Sequence[int]):
    """Meet/join tables of a family of distinct sets under inclusion.

    Returns (meet, join), tables of member indices, or raises
    NotALattice(mask_x, mask_y, reason) for the first pair, in the order
    given (canonical for Matroid.flats), without a unique
    inclusion-greatest lower or inclusion-least upper member.  Meet and
    join are members of the family, not intersections and unions, found
    by the lookups of _bound_lookups on the family's down-masks.  Only
    tests call it; it stays here because the benchmark tracer spans it.
    """
    down = _down_masks(masks)
    up, glb, lub = _check_lattice(masks, down)
    return ([[glb[a & b] for b in down] for a in down],
            [[lub[a & b] for b in up] for a in up])


def is_chain(masks: Sequence[int]) -> bool:
    """True iff the members, in canonical order, are pairwise comparable
    under inclusion."""
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


def width_of_family(masks: Sequence[int]) -> int:
    """Maximum size of an antichain of distinct sets under inclusion.

    Computes a minimum chain cover via maximum bipartite matching on the
    strict-comparability relation (Dilworth duality).
    """
    n = len(masks)
    up = _converse(_down_masks(masks))
    adj = [list(bits(up[i] & ~(1 << i))) for i in range(n)]
    match_r = [-1] * n

    def try_kuhn(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_r[j] < 0 or try_kuhn(match_r[j], seen):
                    match_r[j] = i
                    return True
        return False

    matched = 0
    for i in range(n):
        if try_kuhn(i, [False] * n):
            matched += 1
    return n - matched


def _poset_of(obj):
    """Normalize a FiniteLattice or a sequence of distinct masks to
    (items, down_masks): items are element names or the masks."""
    if isinstance(obj, FiniteLattice):
        return obj.elements, obj.down
    return obj, _down_masks(obj)


def _refine_signatures(down: Sequence[int], colours=None) -> list:
    """Iterated order-invariant per-element signatures (WL-style),
    starting from the given node colours, if any.  Signatures are nested
    tuples of ints (colours, when given, must be too), so one poset's
    signatures sort, and their sorted tuple is an isomorphism invariant."""
    n = len(down)
    up = _converse(down)
    below = [[j for j in bits(d) if j != i] for i, d in enumerate(down)]
    above = [[j for j in bits(u) if j != i] for i, u in enumerate(up)]
    sig = [(popcount(down[i]), popcount(up[i])) for i in range(n)]
    if colours is not None:
        sig = list(zip(colours, sig))
    for _ in range(n):
        nxt = [(sig[i], tuple(sorted(sig[j] for j in below[i])),
                tuple(sorted(sig[j] for j in above[i])))
               for i in range(n)]
        if len(set(nxt)) == len(set(sig)):
            sig = nxt
            break
        sig = nxt
    return sig


def poset_isomorphic(a, b):
    """Order-isomorphism test with a witness bijection.

    Each argument is a FiniteLattice or a sequence of distinct masks
    ordered by inclusion, such as Matroid.flats.  Returns (True,
    witness) with witness a list of (item_a, item_b) pairs, items being
    element names or masks, or (False, None).
    """
    items_a, down_a = _poset_of(a)
    items_b, down_b = _poset_of(b)
    mapping = _order_isomorphism(down_a, down_b, _refine_signatures(down_a),
                                 _refine_signatures(down_b))
    if mapping is None:
        return False, None
    return True, [(items_a[i], items_b[j]) for i, j in enumerate(mapping)]


def _order_isomorphism(down_a: Sequence[int], down_b: Sequence[int],
                       sig_a: Sequence, sig_b: Sequence, sets_a=None,
                       sets_b=None):
    """An order isomorphism from poset a to poset b, or None.

    The posets are given by down-masks, and sig_a and sig_b are their
    _refine_signatures (seeded with any node colours the isomorphism
    must preserve); the caller computes them, so a poset compared many
    times is refined once.  sets_a and sets_b, when given,
    map node masks to labels, and the isomorphism must carry each set of
    sets_a onto a set of sets_b with the same label.  Backtracking search
    pruned by iterated degree/height signatures: each pair is checked
    against every node already assigned.  Each set U of sets_a keeps the
    sets V of sets_b it may still go to: same label, |V| = |U|, and for
    each assigned i -> j, j in V iff i in U; a branch where some U has
    none left is dropped.  A complete mapping leaves U only image(U).
    """
    n = len(down_a)
    if n != len(down_b):
        return None
    if sorted(sig_a) != sorted(sig_b):
        return None
    # process rarest signatures first
    order = sorted(range(n), key=lambda i: (sig_a.count(sig_a[i]), i))
    mapping = [-1] * n
    used = [False] * n
    marked = list((sets_a or {}).items())
    live = [[v for v, lab_b in (sets_b or {}).items()
             if lab_b == lab and popcount(v) == popcount(u)]
            for u, lab in marked]
    if not all(live):
        return None

    def ok(i: int, j: int) -> bool:
        for k in range(n):
            m = mapping[k]
            if m < 0:
                continue
            if bool((down_a[i] >> k) & 1) != bool((down_b[j] >> m) & 1):
                return False
            if bool((down_a[k] >> i) & 1) != bool((down_b[m] >> j) & 1):
                return False
        return True

    def search(pos: int, live) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if not used[j] and sig_b[j] == sig_a[i] and ok(i, j):
                narrowed = [[v for v in vs if (v >> j) & 1 == (u >> i) & 1]
                            for (u, _), vs in zip(marked, live)]
                if not all(narrowed):
                    continue
                mapping[i] = j
                used[j] = True
                if search(pos + 1, narrowed):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return mapping if search(0, live) else None
