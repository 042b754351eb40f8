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
flats that hold it, to a matroid's lattice of cyclic flats.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import (CyclicCovers, DuplicateSet, InvalidParameters, NotALattice,
                     UnknownLabel)
from .groundsets import bits, popcount


class FiniteLattice:
    """A finite lattice: named elements and their order.

    down[i] is the bitmask (over element indices) of elements <= element i,
    including i itself; bottom and top are element indices.  Nothing else
    is stored: meet, join and covers are derived from down.

    Checked when built: InvalidParameters for no elements, unequal counts
    of names and down-masks, or down-masks that are no partial order;
    DuplicateSet for a repeated name; NotALattice for the first pair
    without a unique meet or join (_check_lattice).
    """

    __slots__ = ("elements", "down", "bottom", "top")

    def __init__(self, elements: Sequence[str], down: Sequence[int]):
        elements, down = tuple(elements), tuple(down)
        k = len(down)
        if not elements:
            raise InvalidParameters("a lattice needs at least one element")
        if len(elements) != k:
            raise InvalidParameters(
                f"{len(elements)} element names but {k} down-masks")
        if len(set(elements)) != k:
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


def _least_lattice(elements: Sequence[str],
                   down: Sequence[int]) -> FiniteLattice:
    """A FiniteLattice, unchecked, from the down-masks of a lattice in a
    natural labelling (bottom 0, top last), such as all_lattices's."""
    lat = object.__new__(FiniteLattice)
    lat.elements, lat.down = tuple(elements), tuple(down)
    lat.bottom, lat.top = 0, len(lat.down) - 1
    return lat


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


def _refine_signatures(down_a: Sequence[int], down_b: Sequence[int],
                       colours_a: Sequence, colours_b: Sequence):
    """(sig_a, sig_b): iterated order-invariant node signatures (WL-style)
    of two posets, refined side by side from their node colours.

    A node's first signature is its colour and the sizes of its down- and
    up-set; each round adds the sorted signatures of the nodes strictly
    below and strictly above it, up to the first round that splits no
    class.  A round names its signature tuples by small ints from one
    dict for both posets, so each poset's sorted names are an invariant.
    """
    names: dict = {}
    sigs, links = [], []
    for down, colours in ((down_a, colours_a), (down_b, colours_b)):
        below, above = [[] for _ in down], [[] for _ in down]
        for i, d in enumerate(down):
            for j in bits(d & ~(1 << i)):
                below[i].append(j)
                above[j].append(i)
        sigs.append([names.setdefault((c, len(lo), len(hi)), len(names))
                     for c, lo, hi in zip(colours, below, above)])
        links.append(list(zip(below, above)))
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

    The posets are given by down-masks.  Backtracking search pruned by
    _refine_signatures: each node, rarest signature first, goes to a
    node of its signature whose order relations with every node already
    assigned match.  poset_isomorphic and is_isomorphic (which adds
    element-class nodes) both call it.
    """
    n = len(down_a)
    if n != len(down_b):
        return None
    sig_a, sig_b = _refine_signatures(down_a, down_b, colours_a, colours_b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    # process rarest signatures first
    freq = Counter(sig_a)
    order = sorted(range(n), key=lambda i: (freq[sig_a[i]], i))
    mapping = [-1] * n
    used = [False] * n

    def ok(i: int, j: int, pos: int) -> bool:
        di, dj = down_a[i], down_b[j]
        for k in order[:pos]:
            m = mapping[k]
            if (di >> k) & 1 != (dj >> m) & 1 \
                    or (down_a[k] >> i) & 1 != (down_b[m] >> j) & 1:
                return False
        return True

    # a loop over positions, not recursion, so deep posets do not
    # exhaust the stack; tried[pos] is the next candidate j for order[pos]
    tried = [0] * n
    pos = 0
    while pos < n:
        i = order[pos]
        for j in range(tried[pos], n):
            if not used[j] and sig_b[j] == sig_a[i] and ok(i, j, pos):
                break
        else:
            if pos == 0:
                return None
            tried[pos] = 0
            pos -= 1
            i = order[pos]
            used[mapping[i]] = False
            mapping[i] = -1
            continue
        mapping[i], used[j], tried[pos] = j, True, j + 1
        pos += 1
    return mapping
