"""Finite lattices and poset machinery.

Covers two flavors of input: abstract lattices given by cover relations,
and families of sets ordered by inclusion.  A lattice stores only its
down-masks and checks, when it is built, that they form one; no other
module decides that.  Provides chain and width computations (Dilworth
duality via bipartite matching), and poset isomorphism with a witness
bijection.
One search, _order_isomorphism, decides isomorphism of posets whose
nodes carry colours: poset_isomorphic colours none, and
ops.is_isomorphic adds a node per element class, below the cyclic
flats that hold it, to a matroid's lattice of cyclic flats.  It is an
individualization-refinement search: _refine_signatures splits the
nodes of both posets by their order relations, and where equal
signatures remain, one node is given a fresh colour against each
candidate in turn and both posets are refined again.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import (CyclicCovers, DuplicateSet, InvalidParameters, NotALattice,
                     UnknownLabel)
from .groundsets import bits, popcount


class _Names(tuple):
    """The element names of a lattice, in index order, with index_of:
    name -> index."""

    def __new__(cls, names: Iterable[str]):
        self = super().__new__(cls, names)
        self.index_of = {x: i for i, x in enumerate(self)}
        return self


class FiniteLattice:
    """A finite lattice: named elements and their order.

    down[i] is the bitmask (over element indices) of elements <= element i,
    including i itself; bottom and top are element indices.  Nothing else
    is stored: meet, join and covers are derived from down.  elements is
    a tuple that also maps each name to its index (_Names), so leq, meet
    and join look names up in O(1).

    Checked when built: InvalidParameters for no elements, unequal counts
    of names and down-masks, or down-masks that are no partial order;
    DuplicateSet for a repeated name; NotALattice for the first pair
    without a unique meet or join (_check_lattice).
    """

    __slots__ = ("elements", "down", "bottom", "top")

    def __init__(self, elements: Sequence[str], down: Sequence[int]):
        elements, down = _Names(elements), tuple(down)
        k = len(down)
        if not elements:
            raise InvalidParameters("a lattice needs at least one element")
        if len(elements) != k:
            raise InvalidParameters(
                f"{len(elements)} element names but {k} down-masks")
        if len(elements.index_of) != k:
            raise DuplicateSet(f"duplicate element names: {elements}")
        # reflexive, transitive, no index past the elements, antisymmetric
        for i, d in enumerate(down):
            if d >> k or not d >> i & 1 or any(down[j] & ~d for j in bits(d)):
                raise InvalidParameters(
                    f"down-mask of {elements[i]!r} is not that of a "
                    f"partial order")
        if len(set(down)) != k:
            raise InvalidParameters(
                f"down-masks of {elements!r} repeat: not antisymmetric")
        _, glb, lub = _check_lattice(elements, down)
        self.elements, self.down = elements, down
        self.bottom, self.top = lub[(1 << k) - 1], glb[(1 << k) - 1]

    def __len__(self) -> int:
        return len(self.elements)

    def _at(self, x: str) -> int:
        """The index of the element named x; UnknownLabel if none is."""
        try:
            return self.elements.index_of[x]
        except KeyError:
            raise UnknownLabel(
                f"{x!r} is not an element of the lattice") from None

    def leq(self, x: str, y: str) -> bool:
        i, j = self._at(x), self._at(y)
        return bool((self.down[j] >> i) & 1)

    def meet(self, x: str, y: str) -> str:
        """The element whose down-mask is down[x] & down[y]."""
        d = self.down[self._at(x)] & self.down[self._at(y)]
        return self.elements[self.down.index(d)]

    def join(self, x: str, y: str) -> str:
        """The common upper bound of x and y with the fewest elements
        below it."""
        pair = (1 << self._at(x)) | (1 << self._at(y))
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


def _least_lattices(elements: Sequence[str],
                    downs: Iterable[Sequence[int]]) -> list[FiniteLattice]:
    """FiniteLattices, unchecked, from the down-masks of lattices in a
    natural labelling (bottom 0, top last), such as all_lattices's; they
    share one _Names of the given element names."""
    names, out = _Names(elements), []
    for down in downs:
        lat = object.__new__(FiniteLattice)
        lat.elements, lat.down = names, tuple(down)
        lat.bottom, lat.top = 0, len(lat.down) - 1
        out.append(lat)
    return out


def lattice_from_covers(elements: Sequence[str],
                        covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a FiniteLattice from element names and cover pairs.

    leq is the reflexive-transitive closure of the cover relation; the
    elements may be listed in any order.  Raises UnknownLabel for a
    cover naming no element and CyclicCovers if the cover digraph has a
    cycle (a self-cover included); FiniteLattice then checks the rest
    (no elements, a repeated name, a pair without a unique meet or join).
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]  # up[i]: mask of j with i <= j
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise UnknownLabel(f"unknown cover element in ({lo!r}, {hi!r})")
        if lo == hi:
            raise CyclicCovers(f"{lo!r} covers itself")
        up[index[lo]] |= 1 << index[hi]
    # transitive closure by repeated relaxation
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise CyclicCovers(
                    f"cycle through {elements[i]!r} and {elements[j]!r}")
    return FiniteLattice(elements, _converse(up))


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
    strict-comparability relation (Dilworth duality).  A repeated mask
    raises DuplicateSet.
    """
    n = len(masks)
    up = _converse(_poset_of(masks)[1])
    adj = [list(bits(up[i] & ~(1 << i))) for i in range(n)]
    match_r = [-1] * n
    for root in range(n):
        # Kuhn's augmenting path from root, on a stack, not recursion:
        # level t holds the untried edges of root (t = 0) or of the
        # match of path[t - 1], the node level t - 1 took
        seen = [False] * n
        stack, path = [iter(adj[root])], []
        while stack:
            for j in stack[-1]:
                if not seen[j]:
                    seen[j] = True
                    path.append(j)
                    if match_r[j] < 0:
                        i = root  # flip: each j takes the node before it
                        for r in path:
                            match_r[r], i = i, match_r[r]
                        stack = []
                    else:
                        stack.append(iter(adj[match_r[j]]))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
    return n - sum(i >= 0 for i in match_r)


def _poset_of(obj):
    """Normalize a FiniteLattice or a sequence of distinct masks to
    (items, down_masks): items are element names or the masks.  A
    repeated mask raises DuplicateSet."""
    if isinstance(obj, FiniteLattice):
        return obj.elements, obj.down
    if len(set(obj)) < len(obj):
        twice = next(x for x, c in Counter(obj).items() if c > 1)
        raise DuplicateSet(f"mask {twice:#b} appears twice in the family")
    return obj, _down_masks(obj)


def _links(down: Sequence[int]) -> list[tuple[list[int], list[int]]]:
    """(below, above) of each node of a poset given by its down-masks:
    the nodes strictly below it and those strictly above it."""
    below, above = [[] for _ in down], [[] for _ in down]
    for i, d in enumerate(down):
        for j in bits(d & ~(1 << i)):
            below[i].append(j)
            above[j].append(i)
    return list(zip(below, above))


def _refine_signatures(links_a: Sequence, links_b: Sequence,
                       colours_a: Sequence, colours_b: Sequence):
    """(sig_a, sig_b): iterated order-invariant node signatures (WL-style)
    of two posets, given by their _links, refined side by side from any
    node colouring.

    A node's first signature is its colour and the sizes of its down- and
    up-set; each round adds the sorted signatures of the nodes strictly
    below and strictly above it, up to the first round that splits no
    class.  A round names its signature tuples by small ints from one
    dict for both posets, so each poset's sorted names are an invariant.
    """
    names: dict = {}
    links = (links_a, links_b)
    sigs = [[names.setdefault((c, len(lo), len(hi)), len(names))
             for c, (lo, hi) in zip(colours, link)]
            for colours, link in zip((colours_a, colours_b), links)]
    while True:
        count, names = len(names), {}
        nxt = [[names.setdefault((s, tuple(sorted(map(sig.__getitem__, lo))),
                                  tuple(sorted(map(sig.__getitem__, hi)))),
                                 len(names))
                for s, (lo, hi) in zip(sig, link)]
               for sig, link in zip(sigs, links)]
        if len(names) == count:
            return sigs
        sigs = nxt


def poset_isomorphic(a, b):
    """Order-isomorphism test with a witness bijection.

    Each argument is a FiniteLattice or a sequence of distinct masks
    ordered by inclusion, such as Matroid.flats; a repeated mask raises
    DuplicateSet.  Returns (True, witness) with witness a list of
    (item_a, item_b) pairs, items being element names or masks, or
    (False, None).
    """
    items_a, down_a = _poset_of(a)
    items_b, down_b = _poset_of(b)
    mapping = _order_isomorphism(down_a, down_b, [0] * len(a), [0] * len(b))
    if mapping is None:
        return False, None
    return True, [(items_a[i], items_b[j]) for i, j in enumerate(mapping)]


def _order_isomorphism(down_a: Sequence[int], down_b: Sequence[int],
                       colours_a: Sequence, colours_b: Sequence):
    """An order isomorphism from poset a to poset b that keeps the node
    colours (hashable, one per node), or None.

    The posets are given by down-masks.  Individualization-refinement
    (McKay & Piperno, Practical graph isomorphism II, 2014), on a stack:
    each step refines both posets together from a pair of colourings
    (_refine_signatures) and drops the branch if their multisets of
    signatures differ.  When every signature is unique, equal signatures
    pair up, and that map is the answer iff it sends each down-set onto
    the down-set of the image.  Otherwise the smallest class of equal
    signatures (the least signature on ties) is split: its lowest node
    i of a takes a fresh colour, -1, together with each node j of b in
    the class, lowest j first.  poset_isomorphic and is_isomorphic
    (which adds element-class nodes) both call it.
    """
    if len(down_a) != len(down_b):
        return None
    links_a, links_b = _links(down_a), _links(down_b)
    stack = [(colours_a, colours_b)]
    while stack:
        sig_a, sig_b = _refine_signatures(links_a, links_b, *stack.pop())
        if sorted(sig_a) != sorted(sig_b):
            continue
        cell = min(((c, s) for s, c in Counter(sig_a).items() if c > 1),
                   default=None)
        if cell is None:
            node_b = {s: j for j, s in enumerate(sig_b)}
            phi = [node_b[s] for s in sig_a]
            # a stable discrete refinement implies this; checking it keeps
            # every answer right whatever the refinement does
            if all(sum(1 << phi[k] for k in bits(d)) == down_b[j]
                   for d, j in zip(down_a, phi)):
                return phi
            continue
        _, s = cell
        i = sig_a.index(s)
        for j in reversed([j for j, t in enumerate(sig_b) if t == s]):
            fresh_a, fresh_b = list(sig_a), list(sig_b)
            fresh_a[i] = fresh_b[j] = -1
            stack.append((fresh_a, fresh_b))
    return None
