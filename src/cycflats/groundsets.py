"""Ground sets and bitmask subsets.

Subsets of a ground set are plain integers used as bitmasks: bit i set
means the element with index i belongs to the subset.  All families are
iterated and serialized in canonical order: by cardinality first, then
lexicographically by the sorted index tuple.  A family of subsets is a
plain sequence of masks in that order, such as Matroid.flats.

Whether a family is in that order is decided here, by precedes and
canonical, and nowhere else; canonical alone puts a family into it.  A
builder whose rule fixes the order of its output emits it in that
order, and canonical passes it through in one pass with no sort.  Only
a family in some other order is sorted (_sort_canonical, by first
difference and then size): the view of a product of two or more
factors, a realized lattice, the candidates of Matroid.circuits, a
document out of order, and the families that ops.minor and the 2^n
fixpoint find.

A partial order on n items is a list of n masks too, its down-masks:
bit j of entry i is set iff item j <= item i.  The helpers on them,
_down_masks (a family under inclusion), _converse and _bound_lookups,
and is_chain live here, so matroid, ops and build use them without
running lattices, which imports the first three back.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DuplicateSet, OverlappingGroundSets, UnknownLabel


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_key(mask: int) -> tuple:
    """Canonical sort key: cardinality, then sorted index tuple.

    Of two index tuples of one length, the one holding the lowest index
    where the masks differ comes first.  That is the lesser string of
    mask's bits from the lowest up, each flipped, with a 1 appended (so
    no such string is a prefix of another): one bin() call, no tuple.
    """
    return (mask.bit_count(),
            bin(mask ^ ((2 << mask.bit_length()) - 1))[:1:-1])


def precedes(a: int, b: int) -> bool:
    """Whether mask a comes strictly before mask b in canonical order:
    a has fewer elements, or as many and holds the lowest element where
    the two differ.  O(1), with no key built."""
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return size_a < size_b
    diff = a ^ b
    return a & diff & -diff != 0


def canonical(pairs) -> list:
    """(mask, value) pairs of distinct masks as a list in canonical
    order: in the given order when each mask precedes the next, which
    one pass decides, and otherwise sorted (_sort_canonical).  On a
    family already in order the pass costs about half of a sort (1.0
    against 2.3 us at 4 members, 43 against 91 us at 216, on a shared
    2-vCPU host), and most builders emit their families in order."""
    pairs = list(pairs)
    if not all(precedes(a, b) for (a, _), (b, _) in zip(pairs, pairs[1:])):
        _sort_canonical(pairs)
    return pairs


def _sort_canonical(pairs: list) -> None:
    """Sort a nonempty list of (mask, value) pairs of distinct masks
    into canonical order, in place.  The first sort puts first, of two
    masks, the one holding the lowest element where they differ: its
    key is the string of mask's bits from the lowest up, as wide as the
    largest mask, and the greater string comes first.  A stable sort of
    that order by size is canonical order."""
    width = max(mask for mask, _ in pairs).bit_length()
    pairs.sort(key=lambda item: bin(item[0] | 1 << width)[:2:-1],
               reverse=True)
    pairs.sort(key=lambda item: item[0].bit_count())


def outside(mask: int) -> UnknownLabel:
    """The error for a mask with a bit outside its ground set."""
    return UnknownLabel(f"mask {mask:#x} outside ground set")


def set_text(names: Iterable[str]) -> str:
    """Names in the given order, written like a set: {'a', 'b'} or {}."""
    return "{" + ", ".join(map(repr, names)) + "}"


def atoms(support: int, sets) -> list[int]:
    """The atoms of the partition of support that sets generate (the
    maximal subsets that each set holds whole or misses), in order of
    their least element: each set splits every part it cuts in two."""
    parts = [support] if support else []
    for s in sets:
        s &= support
        if 0 < s < support:
            for i in range(len(parts)):
                p, q = parts[i], parts[i] & s
                if 0 < q < p:
                    parts[i] = q
                    parts.append(p ^ q)
    return sorted(parts, key=lambda p: p & -p)


def class_profile(family, support: int) -> tuple[list[int], list[int]]:
    """The element classes of support under family (its atoms: elements
    lying in the same members), as element masks in order of their first
    element, with each member family[i] written as the mask of the
    classes inside it (bit c set iff class c lies in family[i]).  A set
    that is a union of classes is so determined by how many elements it
    takes from each class: its class-count profile.
    """
    classes = atoms(support, family)
    class_bits = [(p, 1 << c) for c, p in enumerate(classes)]
    return classes, [sum(b for p, b in class_bits if p & f) for f in family]


def is_chain(masks: Sequence[int]) -> bool:
    """True iff the members, in canonical order, are pairwise comparable
    under inclusion."""
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


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


class GroundSet:
    """An ordered finite set of distinct element names."""

    __slots__ = ("labels", "index", "full")

    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise DuplicateSet(f"duplicate labels in ground set: {self.labels}")
        self.full = (1 << len(self.labels)) - 1

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"

    def concat(self, other: GroundSet) -> GroundSet:
        """This ground set followed by a disjoint other one."""
        shared = [lab for lab in self.labels if lab in other.index]
        if shared:
            raise OverlappingGroundSets(f"shared labels: {set_text(shared)}")
        return GroundSet(self.labels + other.labels)

    def mask(self, names: Iterable[str]) -> int:
        """Bitmask of the given element names."""
        m = 0
        for name in names:
            try:
                m |= 1 << self.index[name]
            except KeyError:
                raise UnknownLabel(f"unknown element {name!r}") from None
        return m

    def names(self, mask: int) -> tuple[str, ...]:
        """Element names of a bitmask, in ground-set order."""
        if mask >> len(self.labels):
            raise outside(mask)
        return tuple(self.labels[i] for i in bits(mask))

