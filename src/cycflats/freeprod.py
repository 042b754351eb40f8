"""The free product of matroids, defined through cyclic flats.

For matroids M, N on disjoint ground sets the cyclic flats of the free
product are the proper cyclic flats of M together with E(M) u Y for the
nonempty cyclic flats Y of N; E(M) itself belongs iff M has no isthmuses
and N has no loops.  Ranks carry over, shifted by r(M) on the N side
(Crapo & Schmitt, The free product of matroids, European J. Combin. 26,
2005).  The free product of two matroids is a matroid, so that family is
assembled (matroid._assemble) with no second validation; the one-element
operands of free_extension and free_coextension are assembled the same
way.  The rule fixes the canonical order too: M's part, then E(M), then
N's part, each part in the order of its operand's flats.
"""

from __future__ import annotations

from itertools import count

from .errors import LabelInUse
from .groundsets import GroundSet
from .matroid import Matroid, _assemble


def free_product(m: Matroid, n: Matroid) -> Matroid:
    """M box N on the concatenated ground set.

    Its cyclic flats in canonical order: M's proper cyclic flats, each
    smaller than E(M); E(M), if it is one; then E(M) u Y for the
    nonempty Y of N, each larger, in N's order, which adding E(M) below
    every element of Y keeps."""
    ground = m.ground.concat(n.ground)
    shift = len(m.ground)
    em = m.ground.full
    entries = [(x, rx) for x, rx in zip(m.flats, m.flat_ranks) if x != em]
    if m.isthmuses() == 0 and n.loops() == 0:
        entries.append((em, m.matroid_rank))
    entries += [(em | (y << shift), m.matroid_rank + ry)
                for y, ry in zip(n.flats, n.flat_ranks) if y != 0]
    return _assemble(ground, entries)


def _new_label(ground: GroundSet, label: str | None) -> str:
    """label, or the first free e0, e1, ... if None; LabelInUse if taken."""
    if label is None:
        return next(f"e{i}" for i in count() if f"e{i}" not in ground.index)
    if label in ground.index:
        raise LabelInUse(f"label {label!r} already in ground set")
    return label


def free_extension(m: Matroid, label: str | None = None) -> Matroid:
    """M + e: add an element as freely as possible (M box U_{0,1})."""
    label = _new_label(m.ground, label)
    point = _assemble(GroundSet([label]), [(1, 0)])  # U_{0,1}
    return free_product(m, point)


def free_coextension(m: Matroid, label: str | None = None) -> Matroid:
    """The dual operation: U_{1,1} box M; every nonempty cyclic flat is
    augmented by the new element and all ranks increase by 1."""
    label = _new_label(m.ground, label)
    point = _assemble(GroundSet([label]), [(0, 0)])  # U_{1,1}
    return free_product(point, m)
