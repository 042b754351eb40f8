"""Ground sets and bitmask subsets.

Subsets of a ground set are plain integers used as bitmasks: bit i set
means the element with index i belongs to the subset.  All families are
iterated and serialized in canonical order: by cardinality first, then
lexicographically by the sorted index tuple.  A family of subsets is a
plain sequence of masks in that order, such as Matroid.flats.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


def outside(mask: int) -> UnknownLabel:
    """The error for a mask with a bit outside its ground set."""
    return UnknownLabel(f"mask {mask:#x} outside ground set")


def set_text(names: Iterable[str]) -> str:
    """Names in the given order, written like a set: {'a', 'b'} or {}."""
    return "{" + ", ".join(map(repr, names)) + "}"


def element_classes(family, support: int) -> dict[int, int]:
    """The elements of support grouped by their up-set {i : x in family[i]}:
    maps each up-set, as a mask over indices of family, to its elements'
    mask.  Classes come in order of their first element.

    The up-sets are the columns of the bit matrix with one row per
    member, last member first: zip transposes its rows as strings.
    """
    width = support.bit_length()
    rows = [format(f & support, f"0{width}b") for f in reversed(family)]
    ups = [int("".join(col), 2) for col in zip(*rows)] or [0] * width
    classes: dict[int, int] = {}
    for x in bits(support):
        u = ups[width - 1 - x]
        classes[u] = classes.get(u, 0) | (1 << x)
    return classes


def class_profile(family, support: int) -> tuple[list[int], list[int]]:
    """The element classes of element_classes, as a list of element masks
    in order of their first element, with each member family[i] written
    as the mask of the classes inside it (bit c set iff class c lies in
    family[i]).  A set that is a union of classes is so determined by
    how many elements it takes from each class: its class-count profile.
    """
    classes = element_classes(family, support)
    inside = [0] * len(family)
    for c, up in enumerate(classes):
        for i in bits(up):
            inside[i] |= 1 << c
    return list(classes.values()), inside


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

