"""Whitney rank generating function and Tutte polynomial.

R(M; x, y) = sum over subsets A of x^(r(M)-r(A)) y^(|A|-r(A)), stored as
a dense (corank x nullity) matrix of exact integers.  The Tutte
polynomial is t(M; x, y) = R(M; x-1, y-1).

rank_gen computes R from the cyclic flats, with no 2^n table.  Loops and
coloops factor out as (1+y)^l and (1+x)^c, and R of a direct sum is the
product of the summands' R, so the rest is split into its connected
components: the factors of m, each a component S with the cyclic flats
Y of M|S and their ranks, found from Z alone (matroid._factors, see the
matroid module).  In a component S, r(A) = min over those Y of
r(Y) + |A - Y| depends only on how many elements A takes from each
class of elements of S lying in the same sets Y.  So R(M|S) is a sum
over the class profiles t, each weighted by prod C(|c|, t_c), the number
of subsets with that profile.  The grid has prod (|c| + 1) <= 2^|S|
cells; one over 2^ENUM_CAP cells raises TooLarge before it is built.

rank_gen_brute enumerates all 2^n subsets and is the oracle.  The
free-product convolution combines two matrices coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .errors import TooLarge
from .groundsets import class_profile, popcount
from .matroid import ENUM_CAP, Matroid, _grid_ranks


@dataclass(frozen=True)
class RankGenMatrix:
    """Coefficients a[i][j] of R(M; x, y): i = corank, j = nullity."""

    coeffs: tuple[tuple[int, ...], ...]

    @property
    def corank_max(self) -> int:
        return len(self.coeffs) - 1

    @property
    def nullity_max(self) -> int:
        return len(self.coeffs[0]) - 1

    def terms(self) -> list[tuple[int, int, int]]:
        """Nonzero terms as (x_exponent, y_exponent, coefficient), sorted."""
        return [(i, j, c) for i, row in enumerate(self.coeffs)
                for j, c in enumerate(row) if c]


def _tally(ranks, sizes, rank: int, nullity: int, weights=None):
    """The (corank x nullity) coefficients of R from a grid of ranks and
    one of sizes: each cell adds weights[cell] (or 1) at corank
    rank - r and nullity size - r, tallied by the key nullity*(rank+1) +
    corank.  The grid is counted in slices of 2^16 cells, so the keys and
    bincount's int64 copy of them stay small beside the grids."""
    import numpy as np
    cells = (nullity + 1) * (rank + 1)
    kt = np.min_scalar_type(cells - 1)
    counts = np.zeros(cells, np.int64 if weights is None else weights.dtype)
    step = 1 << 16
    for lo in range(0, len(ranks), step):
        part = ranks[lo:lo + step]
        key = (sizes[lo:lo + step] - part).astype(kt) * (rank + 1) \
            + (rank - part)
        if weights is None:
            counts += np.bincount(key, minlength=cells)
        else:
            np.add.at(counts, key, weights[lo:lo + step])
    return counts.reshape(nullity + 1, rank + 1).T.tolist()


def rank_gen_brute(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix by enumerating all 2^|E| subsets."""
    n = len(m.ground)
    rt = m.rank_table()
    sizes = _grid_ranks([1] * n, [(0, 0)])  # |A|: its rank in U_{n,n}
    coeffs = _tally(rt, sizes, m.matroid_rank, n - m.matroid_rank)
    return RankGenMatrix(tuple(map(tuple, coeffs)))


def _component_rank_gen(e: int, pairs) -> list[list[int]]:
    """R(M|E) of a connected component E, the factor with the pairs
    (Y, r(Y)) of its cyclic flats, summed over class profiles."""
    import numpy as np
    classes, inside = class_profile([y for y, _ in pairs], e)
    radices = [popcount(c) for c in classes]
    n = popcount(e)
    cells = prod(k + 1 for k in radices)
    if cells > 1 << ENUM_CAP:
        raise TooLarge(
            f"rank_gen would sum a grid of {cells} class profiles for a "
            f"connected component of {n} elements, over cap 2^{ENUM_CAP} "
            f"(ENUM_CAP); rank_gen_convolution gives R of a free product "
            f"from its factors")
    flats = list(zip(inside, (r for _, r in pairs)))
    rank = min(r + popcount(e & ~y) for y, r in pairs)
    # exact sums: int64 holds every sum, at most 2^n, while n <= 62
    dtype = np.int64 if n <= 62 else object
    weights = np.ones(1, dtype)
    for k in reversed(radices):
        row = np.array([comb(k, t) for t in range(k + 1)], dtype)
        weights = np.multiply.outer(weights, row).ravel()
    return _tally(_grid_ranks(radices, flats), _grid_ranks(radices, [(0, 0)]),
                  rank, n - rank, weights)


def _poly_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of two polynomials in x, y given as coefficient matrices."""
    out = [[0] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, row_a in enumerate(a):
        for j, x in enumerate(row_a):
            if x:
                for k, row_b in enumerate(b):
                    for l, y in enumerate(row_b):
                        out[i + k][j + l] += x * y
    return out


def rank_gen(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix from the cyclic flats (module docstring):
    (1+y)^loops (1+x)^coloops times R of each connected component."""
    loops, coloops = popcount(m.loops()), popcount(m.isthmuses())
    coeffs = _poly_mul([[comb(loops, j) for j in range(loops + 1)]],
                       [[comb(coloops, i)] for i in range(coloops + 1)])
    for e, pairs in m.factors:
        coeffs = _poly_mul(coeffs, _component_rank_gen(e, pairs))
    return RankGenMatrix(tuple(map(tuple, coeffs)))


def tutte_polynomial(m: Matroid) -> dict[tuple[int, int], int]:
    """t(M; x, y) as a map (x_exp, y_exp) -> coefficient.

    Obtained from R = rank_gen(m) by the substitution x -> x-1, y -> y-1
    expanded with binomial coefficients; only nonzero terms are kept.
    """
    return tutte_from_rank_gen(rank_gen(m))


def rank_gen_convolution(rm: RankGenMatrix,
                         rn: RankGenMatrix) -> RankGenMatrix:
    """R(M box N) from R(M) and R(N).  r(M) is rm.corank_max, the
    corank of the empty set.

    The subset pair (X, Y) with corank/nullity (i, j) in M and (k, l) in
    N lands at corank i + k - min(i, l) and nullity j + l - min(i, l) in
    the product, so the (p, q) coefficient is the sum of a[i][j]*b[k][l]
    over all quadruples satisfying those two equations.
    """
    rows = rm.corank_max + rn.corank_max + 1
    cols = rm.nullity_max + rn.nullity_max + 1
    grid = [[0] * cols for _ in range(rows)]
    for i, row_a in enumerate(rm.coeffs):
        for j, a in enumerate(row_a):
            if not a:
                continue
            for k, row_b in enumerate(rn.coeffs):
                for l, b in enumerate(row_b):
                    if not b:
                        continue
                    drop = min(i, l)
                    grid[i + k - drop][j + l - drop] += a * b
    return RankGenMatrix(tuple(tuple(row) for row in grid))


def tutte_from_rank_gen(rgm: RankGenMatrix) -> dict[tuple[int, int], int]:
    """Shift a rank-generating matrix to Tutte-polynomial coefficients:
    t(x, y) = R(x-1, y-1), only nonzero terms kept.

    x -> x-1 goes over the rows, then y -> y-1 over the columns, each a
    binomial pass (_shift_rows): O(r n (r + n)) products of exact ints
    for an (r+1) x (n+1) matrix.
    """
    shifted = zip(*_shift_rows(list(zip(*_shift_rows(rgm.coeffs)))))
    return {(p, q): c for p, row in enumerate(shifted)
            for q, c in enumerate(row) if c}


def _shift_rows(rows):
    """Substitute z -> z-1 where row i holds the coefficients of z^i:
    row p of the result is the sum over i >= p of C(i, p) (-1)^(i-p)
    times row i."""
    out = [[0] * len(rows[0]) for _ in rows]
    for i, row in enumerate(rows):
        for p in range(i + 1):
            c = comb(i, p) if (i - p) % 2 == 0 else -comb(i, p)
            out[p] = [o + c * a for o, a in zip(out[p], row)]
    return out
