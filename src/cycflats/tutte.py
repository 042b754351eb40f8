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

Each factor costs a fixed number of numpy calls, however many flats it
has: one batched matroid._grid_ranks call for its ranks, |A| from the
column sums of the digit matrices that call caches and the weights from
one pass over the axes (_profile_sizes, which rank_gen_brute shares),
and one tally.  The factors multiply by Kronecker substitution
(_poly_product), one np.convolve each, and tutte_from_rank_gen shifts R
by two signed Pascal matrix products.  Both run in int64 while their
sums provably fit and on Python ints (object arrays) past that, so R
and t stay exact: U_{40,80} has a grid of 81 cells and coefficients
past 2^63.

rank_gen_brute enumerates all 2^n subsets and is the oracle.  The
free-product convolution combines two matrices coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .errors import TooLarge
from .groundsets import class_profile, popcount
from .matroid import ENUM_CAP, Matroid, _digits, _grid_ranks


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
    """The (corank x nullity) coefficient array of R from a grid of ranks
    and one of sizes: each cell adds weights[cell] (or 1) at corank
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
    return counts.reshape(nullity + 1, rank + 1).T


def _profile_sizes(radices, dtype=None):
    """|A| at every profile t of the grid of _grid_ranks, and, given a
    dtype, the number of subsets with that profile, the product of
    C(radices[c], t_c) (None without one).  Axis 0 varies fastest.  As
    in _grid_ranks, the grid is a (high x low) outer sum over the halves
    of the axes: |A| is the sum of the column sums of the two halves'
    cached digit matrices (_digits).  The weights take one outer product
    per axis."""
    import numpy as np
    st = np.min_scalar_type(sum(radices))
    h = len(radices) // 2
    high, low = (_digits(tuple(half), st)[:-1].sum(axis=0, dtype=st)
                 for half in (radices[h:], radices[:h]))
    sizes = np.add.outer(high, low).ravel()
    if dtype is None:
        return sizes, None
    weights = np.ones(1, dtype)
    for k in radices:
        row = np.array([comb(k, t) for t in range(k + 1)], dtype)
        weights = np.multiply.outer(row, weights).ravel()
    return sizes, weights


def _matrix(coeffs) -> RankGenMatrix:
    """The RankGenMatrix of an integer array, as tuples of Python ints."""
    return RankGenMatrix(tuple(map(tuple, coeffs.tolist())))


def rank_gen_brute(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix by enumerating all 2^|E| subsets."""
    n = len(m.ground)
    ranks = m.rank_table()  # first, so its build peak never meets the sizes
    return _matrix(_tally(ranks, _profile_sizes([1] * n)[0], m.matroid_rank,
                          n - m.matroid_rank))


def _component_rank_gen(e: int, pairs, dtype):
    """R(M|E) of a connected component E, the factor with the pairs
    (Y, r(Y)) of its cyclic flats, summed over class profiles, as an
    array of dtype (int64 or object)."""
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
    rank = min(r + popcount(e & ~y) for y, r in pairs)
    # with every class a single element each profile is one subset
    sizes, weights = _profile_sizes(radices,
                                    None if cells == 1 << n else dtype)
    ranks = _grid_ranks(radices, zip(inside, (r for _, r in pairs)))
    return _tally(ranks, sizes, rank, n - rank, weights).astype(dtype,
                                                                copy=False)


def _poly_product(factors, dtype):
    """The product of polynomials in x, y given as coefficient arrays,
    by Kronecker substitution: with c columns in the product, row i,
    column j of a factor is the coefficient of z^(c i + j).  No column
    of the product reaches c, so no term spills into the next row, and
    one np.convolve per factor multiplies."""
    import numpy as np
    rows = 1 + sum(a.shape[0] - 1 for a in factors)
    cols = 1 + sum(a.shape[1] - 1 for a in factors)
    out = np.ones(1, dtype)
    for a in factors:
        padded = np.zeros((a.shape[0], cols), dtype)
        padded[:, :a.shape[1]] = a
        out = np.convolve(out, padded.ravel())
    return out[:rows * cols].reshape(rows, cols)


def rank_gen(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix from the cyclic flats (module docstring):
    (1+y)^loops (1+x)^coloops times R of each connected component.

    Every coefficient is at least 0 and they sum to 2^n, so every sum
    of the product is at most 2^n: int64 holds them while n <= 62, and
    Python ints (object arrays) do past that."""
    import numpy as np
    dtype = np.int64 if len(m.ground) <= 62 else object
    loops, coloops = popcount(m.loops()), popcount(m.isthmuses())
    factors = [np.multiply.outer(
        np.array([comb(coloops, i) for i in range(coloops + 1)], dtype),
        np.array([comb(loops, j) for j in range(loops + 1)], dtype))]
    factors += [_component_rank_gen(e, pairs, dtype) for e, pairs in m.factors]
    return _matrix(_poly_product(factors, dtype))


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
    t(x, y) = R(x-1, y-1), only nonzero terms kept, in (p, q) order.

    With P_k the k x k signed Pascal matrix, P[p][i] = C(i, p) (-1)^(i-p),
    x -> x-1 is P_rows @ a and y -> y-1 is @ P_cols^T: two matrix
    products.  Every sum there is at most sum |a[i][j]| C(i, p) C(j, q)
    <= sum |a| 2^(rows + cols - 2) in absolute value, so int64 holds
    them below 2^63 and Python ints (object arrays) do past it.
    """
    import numpy as np
    rows, cols = len(rgm.coeffs), len(rgm.coeffs[0])
    bound = max(1, sum(abs(c) for row in rgm.coeffs for c in row))
    dtype = np.int64 if bound << (rows + cols - 2) < 1 << 63 else object
    t = (_signed_pascal(rows, dtype) @ np.array(rgm.coeffs, dtype)
         @ _signed_pascal(cols, dtype).T)
    p, q = np.nonzero(t)
    return dict(zip(zip(p.tolist(), q.tolist()), t[p, q].tolist()))


@lru_cache(maxsize=64)
def _signed_pascal(k: int, dtype):
    """The k x k matrix of C(i, p) (-1)^(i-p) at row p, column i
    (read-only, cached)."""
    import numpy as np
    out = np.array([[comb(i, p) * (-1) ** (i - p) if i >= p else 0
                     for i in range(k)] for p in range(k)], dtype)
    out.flags.writeable = False
    return out
