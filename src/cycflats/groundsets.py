"""Ground sets and bitmask subsets.

Subsets of a ground set are plain integers used as bitmasks: bit i set
means the element with index i belongs to the subset.  All families are
iterated and serialized in canonical order: by cardinality first, then
lexicographically by the sorted index tuple.  A family of subsets is a
plain sequence of masks in that order, such as Matroid.flats.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DuplicateSet, UnknownLabel


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_key(mask: int) -> tuple:
    """Canonical sort key: cardinality, then sorted index tuple."""
    return (mask.bit_count(), tuple(bits(mask)))


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
            raise UnknownLabel(f"mask {mask:#x} outside ground set")
        return tuple(self.labels[i] for i in bits(mask))

