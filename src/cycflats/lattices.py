"""Finite lattices and poset machinery.

Covers two flavors of input: abstract lattices given by cover relations,
and families of sets ordered by inclusion.  Provides meet/join tables,
chain and width computations (Dilworth duality via bipartite matching),
and poset isomorphism with a witness bijection.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (CyclicCovers, DuplicateSet, InvalidParameters, NotALattice,
                     UnknownLabel)
from .groundsets import bits, popcount


class FiniteLattice:
    """A finite lattice: named elements, order relation, meet/join tables.

    down[i] is the bitmask (over element indices) of elements <= element i,
    including i itself.  meet/join are total tables of element indices.
    Down-masks are distinct (antisymmetry), so the meet of i and j is the
    element whose down-mask equals down[i] & down[j], and the join the
    element whose up-mask equals up[i] & up[j]; the tables are filled by
    one dict lookup per pair.
    """

    __slots__ = ("elements", "down", "meet", "join", "bottom", "top")

    def __init__(self, elements: Sequence[str], down: Sequence[int],
                 meet: Sequence[Sequence[int]], join: Sequence[Sequence[int]]):
        self.elements = tuple(elements)
        self.down = tuple(down)
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        n = len(self.elements)
        self.bottom = min(range(n), key=lambda i: popcount(self.down[i]))
        self.top = max(range(n), key=lambda i: popcount(self.down[i]))

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x: str, y: str) -> bool:
        i, j = self.elements.index(x), self.elements.index(y)
        return bool((self.down[j] >> i) & 1)

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper), in element order."""
        out = []
        n = len(self.elements)
        for j in range(n):
            for i in bits(self.down[j] & ~(1 << j)):
                strictly_between = any(
                    (self.down[j] >> k) & 1 and (self.down[k] >> i) & 1
                    for k in bits(self.down[j] & ~(1 << j) & ~(1 << i)))
                if not strictly_between:
                    out.append((self.elements[i], self.elements[j]))
        return out

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r}, covers={self.covers()!r})"


def lattice_from_covers(elements: Sequence[str],
                        covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a FiniteLattice from element names and cover pairs.

    leq is the reflexive-transitive closure of the cover relation; the
    elements may be listed in any order.  Raises InvalidParameters for an
    empty element list, CyclicCovers if the cover digraph has a cycle and
    NotALattice if some pair lacks a unique meet or join.
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
    try:
        meet, join = _tables_from_down(down)
    except NotALattice as exc:
        i, j = exc.pair
        raise NotALattice(elements[i], elements[j], exc.reason) from None
    return FiniteLattice(elements, down, meet, join)


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


def _tables_from_down(down: Sequence[int]):
    """Meet/join tables, as lists of lists, from the down-masks of a
    partial order (reflexive and transitive, in any index order).

    The lower bounds of {i, j} are down[i] & down[j]; a greatest one
    exists iff it is the down-mask of some element, found by one dict
    lookup.  Joins likewise on up-masks.  Raises NotALattice(i, j,
    reason), with element indices, for the first offending pair in index
    order; the meet of a pair is checked before its join.
    """
    n = len(down)
    up = _converse(down)
    glb = {d: i for i, d in enumerate(down)}
    lub = {u: i for i, u in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        di, ui = down[i], up[i]
        for j in range(i, n):
            m = glb.get(di & down[j])
            if m is None:
                raise NotALattice(i, j, "no unique meet")
            jn = lub.get(ui & up[j])
            if jn is None:
                raise NotALattice(i, j, "no unique join")
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = jn
    return meet, join


def family_lattice_tables(masks: Sequence[int]):
    """Meet/join tables of a family of distinct sets under inclusion.

    Returns (meet, join), tables of member indices, or raises
    NotALattice(mask_x, mask_y, reason) for the first pair, in the order
    given (canonical for Matroid.flats), without a unique
    inclusion-greatest lower or inclusion-least upper member.  Meet and
    join are members of the family, not intersections and unions: the
    meet of X and Y is the member whose down-set (members contained in
    it) equals the members contained in both, found by one dict lookup
    per pair; the join likewise on up-sets.
    """
    try:
        return _tables_from_down(_down_masks(masks))
    except NotALattice as exc:
        i, j = exc.pair
        raise NotALattice(masks[i], masks[j], exc.reason) from None


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
    starting from the given node colours, if any."""
    n = len(down)
    up = _converse(down)
    sig = [(popcount(down[i]), popcount(up[i])) for i in range(n)]
    if colours is not None:
        sig = list(zip(colours, sig))
    for _ in range(n):
        nxt = [(sig[i],
                tuple(sorted(sig[j] for j in bits(down[i]) if j != i)),
                tuple(sorted(sig[j] for j in bits(up[i]) if j != i)))
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
    mapping = _order_isomorphism(down_a, down_b)
    if mapping is None:
        return False, None
    return True, [(items_a[i], items_b[j]) for i, j in enumerate(mapping)]


def _order_isomorphism(down_a: Sequence[int], down_b: Sequence[int],
                       colours_a=None, colours_b=None, accept=None):
    """An order isomorphism from poset a to poset b, or None.

    The posets are given by down-masks; colours, when given, are node
    labels the isomorphism must preserve.  Backtracking search pruned by
    iterated degree/height signatures: each pair is checked against every
    node already assigned, and accept(mapping), when given, decides each
    complete mapping (mapping[i] is the image of node i).
    """
    n = len(down_a)
    if n != len(down_b):
        return None
    sig_a = _refine_signatures(down_a, colours_a)
    sig_b = _refine_signatures(down_b, colours_b)
    if sorted(map(repr, sig_a)) != sorted(map(repr, sig_b)):
        return None
    # process rarest signatures first
    order = sorted(range(n), key=lambda i: (sig_a.count(sig_a[i]), i))
    mapping = [-1] * n
    used = [False] * n

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

    def search(pos: int) -> bool:
        if pos == n:
            return accept is None or accept(mapping)
        i = order[pos]
        for j in range(n):
            if not used[j] and sig_b[j] == sig_a[i] and ok(i, j):
                mapping[i] = j
                used[j] = True
                if search(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return mapping if search(0) else None
