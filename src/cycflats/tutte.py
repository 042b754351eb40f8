"""Whitney rank generating function and Tutte polynomial.

R(M; x, y) = sum over subsets A of x^(r(M)-r(A)) y^(|A|-r(A)), stored as
a dense (corank x nullity) matrix of exact integers.  The Tutte
polynomial is t(M; x, y) = R(M; x-1, y-1).

rank_gen computes R from the cyclic flats, with no 2^n table.  Loops
and coloops factor out as (1+y)^l and (1+x)^c, and R of a direct sum
is the product of the summands' R, so the rest is split into its
connected components: the factors of m, each a component with the
cyclic flats of M|S and their ranks, found from Z alone
(matroid._factors, see the matroid module).  A component's R then
follows from the intervals of its lattice of cyclic flats, with |F| and
r(F) (Eberhardt, EJC 21(3) 2014, P3.47: T(M) depends on nothing else).

For cyclic flats G <= F, N = (M|F)/G has no loops (G is a flat) and no
coloops (F is cyclic), and its cyclic flats are the H - G for H in
[G, F].  Each subset X of F - G splits uniquely into S = X n H, which
spans (M|H)/G, and T = X - H, an independent flat of (M|F)/H, where H
is G with the cyclic part of cl_N(X): the elements of cl_N(X) outside H
are its coloops, which every set spanning it holds; conversely S u T
for any such S and T has closure H u T with cyclic part H.  So with
p_GF(z) and b_GF(z) counting N's spanning sets and independent flats by size,

  sum over G <= H <= F of p_GH(z) b_HF(z) = (1+z)^|F - G|,

with p_GG = b_FF = 1.  For G < F the spanning sets of N have at least
d = r(F) - r(G) elements and its independent flats fewer (one of d
elements would span, so be all of F - G, which holds a circuit).  Taken
in an order where each interval comes after those it contains,
(1+z)^|F - G| less the terms for G < H < F is p_GF in its degrees >= d
and b_GF in its degrees < d.  The tables hold at most n + 1 entries per
comparable pair; a component whose tables would pass 2^ENUM_CAP entries
raises TooLarge before they are built.

A subset X of the component splits at H into S and T with nullity
|S| - r(H) and corank r(1) - r(H) - |T|, so R is the sum over the cyclic
flats H of the outer product of b_H1 (by corank) and p_0H (by nullity).
Polynomials multiply as integers, each held as its value at a power of
two wide enough that its coefficients are the value's digits (Kronecker
substitution).  The same trick shifts R to t: t at (2^a, 2^b) is R at
(2^a - 1, 2^b - 1), one evaluation (tutte_from_rank_gen), and
tutte_polynomial is that shift of rank_gen.  Everything runs on Python
ints, so R and t stay exact: U_{40,80} has coefficients past 2^63.

rank_gen_brute tallies the rank table alone (dense.tally) and is the
oracle.  The free-product convolution combines two matrices
coefficientwise.
"""

from __future__ import annotations

from typing import NamedTuple

from . import dense
from .errors import TooLarge
from .groundsets import popcount
from .matroid import ENUM_CAP, Matroid


class RankGenMatrix(NamedTuple):
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


def rank_gen_brute(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix by enumerating all 2^|E| subsets: the
    tally of m's rank table (dense.tally)."""
    r = m.matroid_rank
    coeffs = dense.tally(m.rank_table(), r, len(m.ground) - r)
    return RankGenMatrix(tuple(map(tuple, coeffs)))


def _interval_terms(e: int, pairs) -> list[tuple[list[int], list[int]]]:
    """R(M|E) of a connected component E, the factor with the pairs
    (Y, r(Y)) of its cyclic flats in canonical order, as one term per
    cyclic flat H: the coefficients of b_H1 by corank and of p_0H by
    nullity, whose outer products sum to R (module docstring)."""
    n = popcount(e)
    masks = [y for y, _ in pairs]
    ranks = [r for _, r in pairs]
    sizes = [popcount(y) for y in masks]
    # below[f]: the indices of the flats inside Y_f, ascending; canonical
    # order sorts by size, so a flat's subsets come before it
    below = [[g for g in range(f) if not masks[g] & ~yf]
             for f, yf in enumerate(masks)]
    entries = (len(pairs) + sum(map(len, below))) * (n + 1)
    if entries > 1 << ENUM_CAP:
        raise TooLarge(
            f"rank_gen would tabulate {entries} interval coefficients for a "
            f"connected component of {n} elements and {len(pairs)} cyclic "
            f"flats, over cap 2^{ENUM_CAP} (ENUM_CAP); rank_gen_convolution "
            f"gives R of a free product from its factors")
    # each polynomial is held as its value at z = 2^w: every coefficient
    # counts subsets of at most n elements, so it is below 2^w and the
    # value's base-2^w digits are the coefficients (Kronecker)
    w = n + 1
    p = [{} for _ in pairs]  # p[g][h]: p_GH
    b = [{} for _ in pairs]  # b[f][h]: b_HF
    powers = {}  # d -> (1+z)^d: only n + 1 exponents occur
    for f, down in enumerate(below):
        into = b[f]  # by now b_HF for every H in (G, F)
        for g in reversed(down):
            d = sizes[f] - sizes[g]
            if d not in powers:
                powers[d] = ((1 << w) + 1) ** d
            rest = powers[d]
            above = p[g]
            for h, b_hf in into.items():
                if h in above:
                    rest -= above[h] * b_hf
            low = rest & (1 << w * (ranks[f] - ranks[g])) - 1
            above[f], into[g] = rest - low, low
    top = len(pairs) - 1
    mask = (1 << w) - 1

    def digits(value, start, stop):
        return [value >> w * i & mask for i in range(start, stop)]

    return [([0, *digits(b[top][h], 0, ranks[top] - ranks[h])[::-1]]
             if h < top else [1],
             digits(p[0][h], ranks[h], sizes[h] + 1) if h else [1])
            for h in range(len(pairs))]


def _at(coeffs, bits: int, minus_one: bool = False) -> int:
    """The polynomial with these coefficients, lowest degree first, at
    z = 2^bits, or at 2^bits - 1 with minus_one, by Horner's rule: each
    step's product by z is a shift, less the value itself for 2^bits - 1,
    so it costs the length of the value, however long z is."""
    value = 0
    for c in reversed(coeffs):
        value = ((value << bits) - value if minus_one else value << bits) + c
    return value


def _unpack(value: int, w: int, rows: int, cols: int) -> list[list[int]]:
    """The base-2^w digits of value as a (rows x cols) matrix, the digit
    at w (cols i + j) in row i, column j."""
    mask, row_mask = (1 << w) - 1, (1 << w * cols) - 1
    out = []
    for i in range(rows):
        row = value >> w * cols * i & row_mask
        out.append([row >> w * j & mask for j in range(cols)])
    return out


def rank_gen(m: Matroid) -> RankGenMatrix:
    """Exact coefficient matrix from the cyclic flats (module docstring):
    (1+x)^coloops (1+y)^loops times, for each connected component, the
    sum over its cyclic flats H of b_H1(x) p_0H(y).

    The factors are multiplied as integers, at x = 2^(w cols) and
    y = 2^w, where cols = nullity + 1 bounds the y-degree and w = n + 1
    (Kronecker substitution).  The coefficients of R count at most 2^n
    subsets, so they lie in [0, 2^w) and are the product's base-2^w
    digits."""
    w, cols = len(m.ground) + 1, m.nullity + 1

    def value(xs, ys):
        return _at(xs, w * cols) * _at(ys, w)

    loops, coloops = popcount(m.loops()), popcount(m.isthmuses())
    product = ((1 << w * cols) + 1) ** coloops * ((1 << w) + 1) ** loops
    for e, pairs in m.factors:
        product *= sum(value(xs, ys) for xs, ys in _interval_terms(e, pairs))
    return RankGenMatrix(tuple(map(tuple, _unpack(
        product, w, m.matroid_rank + 1, cols))))


def tutte_polynomial(m: Matroid) -> dict[tuple[int, int], int]:
    """t(M; x, y) as a map (x_exp, y_exp) -> coefficient, only nonzero
    terms kept, in (p, q) order."""
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

    t at x = 2^(w cols), y = 2^w is R at x = 2^(w cols) - 1,
    y = 2^w - 1, one Horner evaluation (Kronecker substitution, as in
    rank_gen).  t[p][q] is the sum of a[i][j] C(i, p) C(j, q) with
    signs, so |t[p][q]| < 2^(w-1) once 2^(w-1) passes sum |a| times
    2^(rows + cols - 2); adding 2^(w-1) to every digit then makes them
    all lie in [0, 2^w), and the value's base-2^w digits less 2^(w-1)
    are t's coefficients, for any integer matrix."""
    coeffs = rgm.coeffs
    rows, cols = len(coeffs), len(coeffs[0])
    w = (sum(sum(map(abs, row)) for row in coeffs).bit_length()
         + rows + cols - 1)
    half = 1 << w - 1
    value = (_at([_at(row, w, True) for row in coeffs], w * cols, True)
             + ((1 << w * rows * cols) - 1) // ((1 << w) - 1) * half)
    return {(p, q): c - half
            for p, row in enumerate(_unpack(value, w, rows, cols))
            for q, c in enumerate(row) if c != half}
