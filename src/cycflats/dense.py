"""The dense path: the ranks of all 2^n subsets, and what is read off them.

Three oracles call into this module, and nothing else does:
Matroid.rank_table builds its table with rank_table,
matroid.cyclic_flats_recompute re-derives the cyclic flats from that
table with cyclic_flats, and tutte.rank_gen_brute counts R(M; x, y)
from it with tally.  Each caller keeps its own checks (the ENUM_CAP
check comes before any table is allocated) and the table's per-matroid
cache, so the kernels here take a table or a matroid's factors and
keep nothing but the set sizes that tally reads (_low_sizes).

A rank table is a flat array of 2^n entries indexed by mask: entry A
is r(A), one unsigned byte per subset (a rank is at most n, and n is
at most ENUM_CAP), and element x of the ground set is bit x of the
index.  Adding x to a set adds 2^x to its index, so the sets with and
without x pair up along one axis of a reshaped view, which is how the
fixpoint compares them.

numpy is imported inside each function that uses it, never at the top
of the module.  The package registers this module lazily like every
other, and a profiler that walks the package's modules (vars() on each)
runs them all; a top-level import would then load numpy in every
process that is traced, even one whose command builds no table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .matroid import ENUM_CAP, _product

if TYPE_CHECKING:
    import numpy as np

# entries of one step of _grid_ranks, an eighth of a 2^ENUM_CAP grid:
# a grid of more cells takes one group of flats a step
_STEP_ENTRIES = 1 << (ENUM_CAP - 3)
# entries of one block of the fixpoint's low elements and of one slice
# of the tally: small beside a table, long enough for numpy's fixed costs
_BLOCK = 1 << 16


def rank_table(m) -> np.ndarray:
    """The read-only uint8 table of m's ranks, indexed by mask.

    r(A) is the sum of the ranks of A's parts in the pieces (_pieces),
    so each piece gets a grid of _grid_ranks over the product of its
    factors' pairs with its loops in every member, and the table is the
    outer sum of the grids from the lowest piece up.  Its peak is the
    table and the sum below the highest piece, at most a quarter of it,
    as a piece with a factor has two elements or more.  A matroid of one
    piece, connected or with interleaved factors, gets one grid over its
    flats.
    """
    import numpy as np
    for low, high, group in _pieces(len(m.ground), m.factors):
        flats = _product(m.bottom & (1 << high) - (1 << low), group)
        part = _grid_ranks(high - low, [
            (f >> low, r) for f, r in flats.items()])
        table = part if low == 0 else np.add.outer(part, table).ravel()
    table.flags.writeable = False
    return table


def _pieces(n: int, factors) -> list[list]:
    """[low, high, pairs of each factor inside] for the pieces
    range(low, high) of range(n) that rank_table grids one by one.

    A piece starts at 0 and at the least element of each factor above
    every element of the factors before it (factors come in order of
    least element), so no factor's span, least to highest element,
    crosses a cut.  Loops and isthmuses between two factors go with the
    lower one.
    """
    pieces, reach = [[0, n, []]], 0
    for e, pairs in factors:
        low = (e & -e).bit_length() - 1
        if pieces[-1][2] and low >= reach:
            pieces[-1][1] = low
            pieces.append([low, n, []])
        pieces[-1][2].append(pairs)
        reach = max(reach, e.bit_length())
    return pieces


def _grid_ranks(axes: int, flats) -> np.ndarray:
    """min over flats F of r(F) + |A - F| at every mask A < 2^axes.

    Flats are (mask, r(F)).  Each value is the sum of one part from the
    low h = axes // 2 bits of A and one from the high bits, so the grid
    is a (high x low) min of outer sums.  A flat's part on a half is
    |A - F| there, the bit count (np.bitwise_count) of A's mask of the
    half and the flat's bits outside F, plus r(F) on the high half.
    Flats are sorted into groups by their low part; a group's high
    parts are folded to their minimum (_run_minima), and only that
    minimum meets the group's low part.

    The groups go through in steps of at most _STEP_ENTRIES >> axes
    groups (at least one), each step one broadcast sum of its groups'
    high and low parts and one min; the high parts are counted in
    chunks of at most _STEP_ENTRIES entries.  So a grid whose groups
    times 2^axes fit in _STEP_ENTRIES takes a fixed number of numpy
    calls however many flats and groups it has, and a 2^ENUM_CAP grid
    takes one group a step, with a peak of the grid, one step's sums
    and an eighth of a grid of high parts.  Returns the grid in the
    smallest unsigned dtype that holds the largest candidate value.
    """
    import numpy as np
    h = axes // 2
    low_mask = (1 << h) - 1
    flats = sorted(flats, key=lambda f: f[0] & low_mask)
    dtype = np.min_scalar_type(max(r + axes - f.bit_count() for f, r in flats))
    # bounds[g]: the first flat of group g; bounds[-1]: the flat count
    bounds = [i for i, (f, _) in enumerate(flats)
              if not i or (f ^ flats[i - 1][0]) & low_mask] + [len(flats)]
    # every mask of the high half (the low half's are its first 2^h) and
    # each flat's bits outside F on the high and on the low half, in the
    # smallest unsigned dtype that holds one half's masks
    top = (1 << (axes - h)) - 1
    masks = np.arange(top + 1, dtype=np.min_scalar_type(top))
    outside = np.array([(~f >> h & top, ~f & low_mask) for f, _ in flats],
                       masks.dtype)
    ranks = np.array([r for _, r in flats], dtype)
    step = max(1, _STEP_ENTRIES >> axes)
    chunk = max(1, _STEP_ENTRIES >> (axes - h))
    best = sums = None
    for g in range(0, len(bounds) - 1, step):
        cut = bounds[g:g + step + 1]
        high = _run_minima(outside[:, 0], ranks, masks, cut, chunk)
        low = np.bitwise_count(outside[cut[:-1], 1:, None] & masks[:1 << h])
        if best is None:
            stack = high[:, :, None] + low
            best = stack[0] if len(stack) == 1 else stack.min(axis=0)
            continue
        if sums is None:
            sums = np.empty((step, *best.shape), dtype)
        stack = np.add(high[:, :, None], low, out=sums[:len(high)])
        np.minimum(best, stack[0] if len(stack) == 1 else stack.min(axis=0),
                   out=best)
    return best.ravel()


def _run_minima(outside, ranks, masks, bounds, chunk) -> np.ndarray:
    """Row g: the minimum over bounds[g] <= i < bounds[g + 1] of
    ranks[i] + the bit count of masks & outside[i], counted for at most
    chunk flats at a time; a run split between two chunks is folded by
    one more minimum."""
    import numpy as np
    parts = []
    for s in range(bounds[0], bounds[-1], chunk):
        e = min(s + chunk, bounds[-1])
        rows = np.bitwise_count(outside[s:e, None] & masks) + ranks[s:e, None]
        part = np.minimum.reduceat(
            rows, [0] + [b - s for b in bounds if s < b < e])
        if s not in bounds:  # the run at s began in the last chunk
            np.minimum(part[0], parts[-1][-1], out=part[0])
            parts[-1] = parts[-1][:-1]
        parts.append(part)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def cyclic_flats(ranks, n: int) -> list[tuple[int, int]]:
    """(F, r(F)) for every F that the rank table of n elements shows
    closed (adding any outside element raises the rank) and isthmus-free
    in restriction (removing any inside element keeps the rank), in
    numeric mask order.

    Every subset is tested for every element x by one comparison of the
    set without x and the same set plus x (_fixpoint_sweep).  For the
    high elements x >= h = n // 2 the sweep runs on the table as it is,
    in rows of 2^x >= 2^h entries.  For the low elements it runs on
    blocks of _BLOCK entries, each transposed from (rows x 2^h) to
    (2^h x rows), which puts the low bits above the block's rows, so
    those rows are long too.  Peak memory is two and a half tables: the
    ranks, the result mask, and one high element's comparison, which
    covers half the table.
    """
    import numpy as np
    h = n // 2
    good = np.ones(len(ranks), dtype=bool)
    _fixpoint_sweep(ranks, good, range(h, n), 1)
    table, mask = ranks.reshape(-1, 1 << h), good.reshape(-1, 1 << h)
    step = max(1, _BLOCK >> h)
    for s in range(0, len(table), step):
        block = np.ascontiguousarray(table[s:s + step].T)
        keep = np.ones_like(block, dtype=bool)
        _fixpoint_sweep(block, keep, range(h), block.shape[1])
        mask[s:s + step] &= keep.T
    return [(int(f), int(ranks[f])) for f in np.flatnonzero(good)]


def _fixpoint_sweep(ranks, good, elements, unit) -> None:
    """Clear good[A] unless A is closed and isthmus-free at each x in
    elements, where adding x to a set adds unit << x to its index.

    Viewed as (-1, 2, unit << x), the arrays pair each set without x
    (column 0) with the same set plus x (column 1).  The two tests run
    in turn, so one half-size temporary is alive at a time.
    """
    for x in elements:
        v = ranks.reshape(-1, 2, unit << x)
        g = good.reshape(-1, 2, unit << x)
        g[:, 0] &= v[:, 1] > v[:, 0]   # closed: adding x raises the rank
        g[:, 1] &= v[:, 1] <= v[:, 0]  # no isthmus: removing x keeps it


def tally(ranks, rank: int, nullity: int) -> list[list[int]]:
    """The (corank x nullity) coefficients of R(M; x, y) from the rank
    table of a matroid of that rank and nullity: each subset A adds 1 at
    corank rank - r(A) and nullity |A| - r(A), tallied by the key
    nullity*(rank+1) + corank.  The table is counted in slices of
    _BLOCK subsets, so the keys and bincount's int64 copy of them stay
    small beside it; a slice starts at a multiple of _BLOCK, so |A| is
    that start's popcount plus _low_sizes()[A mod _BLOCK]."""
    import numpy as np
    cells = (nullity + 1) * (rank + 1)
    kt = np.min_scalar_type(cells - 1)
    counts = np.zeros(cells, np.int64)
    low = _low_sizes()
    for lo in range(0, len(ranks), _BLOCK):
        part = ranks[lo:lo + _BLOCK]
        key = (low[:len(part)] + lo.bit_count() - part).astype(kt) \
            * (rank + 1) + (rank - part)
        counts += np.bincount(key, minlength=cells)
    return counts.reshape(nullity + 1, rank + 1).T.tolist()


@lru_cache(maxsize=1)
def _low_sizes() -> np.ndarray:
    """|A| at every mask A < _BLOCK, as uint8 (read-only, cached)."""
    import numpy as np
    out = np.bitwise_count(np.arange(_BLOCK, dtype=np.uint16))
    out.flags.writeable = False
    return out
