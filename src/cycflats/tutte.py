"""Whitney rank generating function and Tutte polynomial.

R(M; x, y) = sum over subsets A of x^(r(M)-r(A)) y^(|A|-r(A)), stored as
a dense (corank x nullity) matrix of exact integers.  The Tutte
polynomial is t(M; x, y) = R(M; x-1, y-1).  The free-product convolution
combines two such matrices coefficientwise; brute-force enumeration is
the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .matroid import Matroid


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

    def total(self) -> int:
        """Sum of all coefficients; equals 2^|E|."""
        return sum(sum(row) for row in self.coeffs)

    def terms(self) -> list[tuple[int, int, int]]:
        """Nonzero terms as (x_exponent, y_exponent, coefficient), sorted."""
        return [(i, j, c) for i, row in enumerate(self.coeffs)
                for j, c in enumerate(row) if c]

    def transpose(self) -> "RankGenMatrix":
        rows = len(self.coeffs)
        cols = len(self.coeffs[0])
        return RankGenMatrix(tuple(tuple(self.coeffs[i][j] for i in range(rows))
                                   for j in range(cols)))


def rank_gen_brute(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix by enumerating all 2^|E| subsets."""
    n = len(m.ground)
    rt = m.rank_table()
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    corank = m.matroid_rank - rt
    nullity = sizes - rt
    grid = np.zeros((m.matroid_rank + 1, n - m.matroid_rank + 1), dtype=np.int64)
    np.add.at(grid, (corank, nullity), 1)
    return RankGenMatrix(tuple(tuple(int(c) for c in row) for row in grid))


def tutte_polynomial(m: Matroid) -> dict[tuple[int, int], int]:
    """t(M; x, y) as a map (x_exp, y_exp) -> coefficient.

    Obtained from R by the substitution x -> x-1, y -> y-1 expanded with
    binomial coefficients; only nonzero terms are kept.
    """
    return tutte_from_rank_gen(rank_gen_brute(m))


def rank_gen_convolution(rm: RankGenMatrix, r_m: int,
                         rn: RankGenMatrix) -> RankGenMatrix:
    """R(M box N) from R(M) and R(N).

    The subset pair (X, Y) with corank/nullity (i, j) in M and (k, l) in
    N lands at corank i + k - min(i, l) and nullity j + l - min(i, l) in
    the product, so the (p, q) coefficient is the sum of a[i][j]*b[k][l]
    over all quadruples satisfying those two equations.
    """
    if rm.corank_max != r_m:
        raise DimensionMismatch(
            f"matrix has corank range 0..{rm.corank_max}, but r(M) = {r_m}")
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
    """Shift a rank-generating matrix to Tutte-polynomial coefficients."""
    out: dict[tuple[int, int], int] = {}
    for i, row in enumerate(rgm.coeffs):
        for j, a in enumerate(row):
            if not a:
                continue
            for p in range(i + 1):
                cp = comb(i, p) * (-1) ** (i - p)
                for q in range(j + 1):
                    term = a * cp * comb(j, q) * (-1) ** (j - q)
                    out[(p, q)] = out.get((p, q), 0) + term
    return {pq: c for pq, c in sorted(out.items()) if c}
