import random
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycflats as cf
from conftest import _grid_ranks_outer
from cycflats.matroid import ENUM_CAP
from cycflats.groundsets import bits, class_profile, popcount
from cycflats.dense import _low_sizes
from cycflats.tutte import (RankGenMatrix, rank_gen,
                            rank_gen_brute, rank_gen_convolution,
                            tutte_from_rank_gen, tutte_polynomial)


def poly_mul(p, q):
    """Product of two sparse polynomials in x, y."""
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return {k: v for k, v in sorted(out.items()) if v}


def eval_poly(terms, x, y):
    return sum(c * x ** p * y ** q for (p, q), c in terms.items())


def eval_rgm(rgm, x, y):
    return sum(c * x ** i * y ** j for i, j, c in rgm.terms())


def total(rgm):
    """Sum of all coefficients; equals 2^|E|."""
    return sum(sum(row) for row in rgm.coeffs)


def transpose(rgm):
    return RankGenMatrix(tuple(zip(*rgm.coeffs)))


def _component_rank_gen_loops(e, pairs):
    """Oracle for a factor of rank_gen, the class grid: in a component,
    r(A) = min over the cyclic flats Y of r(Y) + |A - Y| depends only on
    how many elements A takes from each class of elements lying in the
    same flats, so R(M|E) is a sum over those class profiles t, each
    weighted by prod C(|c|, t_c).  Two _grid_ranks_outer calls (the
    mixed-radix grid of conftest, one axis per class) give the ranks
    and |A| (the rank of A when no class lies in a flat), and the
    weights are built apart; returns a list of rows."""
    classes, inside = class_profile([y for y, _ in pairs], e)
    radices = [popcount(c) for c in classes]
    n = popcount(e)
    flats = list(zip(inside, (r for _, r in pairs)))
    rank = min(r + popcount(e & ~y) for y, r in pairs)
    dtype = np.int64 if n <= 62 else object
    weights = np.ones(1, dtype)
    for k in reversed(radices):
        row = np.array([comb(k, t) for t in range(k + 1)], dtype)
        weights = np.multiply.outer(weights, row).ravel()
    ranks = _grid_ranks_outer(radices, flats).astype(np.int64)
    sizes = _grid_ranks_outer(radices, [(0, 0)]).astype(np.int64)
    counts = np.zeros((rank + 1, n - rank + 1), dtype)
    np.add.at(counts, (rank - ranks, sizes - ranks), weights)
    return counts.tolist()


def _poly_mul(a, b):
    """Product of two polynomials in x, y given as coefficient matrices,
    one product of Python ints per pair of nonzero terms."""
    out = [[0] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, row_a in enumerate(a):
        for j, x in enumerate(row_a):
            if x:
                for k, row_b in enumerate(b):
                    for l, y in enumerate(row_b):
                        out[i + k][j + l] += x * y
    return out


def rank_gen_loops(m):
    """Oracle for rank_gen: the same factors multiplied by _poly_mul."""
    loops, coloops = popcount(m.loops()), popcount(m.isthmuses())
    coeffs = _poly_mul([[comb(loops, j) for j in range(loops + 1)]],
                       [[comb(coloops, i)] for i in range(coloops + 1)])
    for e, pairs in m.factors:
        coeffs = _poly_mul(coeffs, _component_rank_gen_loops(e, pairs))
    return RankGenMatrix(tuple(map(tuple, coeffs)))


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


def tutte_shift_loops(rgm):
    """Oracle for tutte_from_rank_gen: x -> x-1 over the rows, then
    y -> y-1 over the columns, each a binomial pass of Python ints."""
    shifted = zip(*_shift_rows(list(zip(*_shift_rows(rgm.coeffs)))))
    return {(p, q): c for p, row in enumerate(shifted)
            for q, c in enumerate(row) if c}


def _sparse_paving(rng, rank, n):
    """A sparse paving matroid of the given rank on n elements: random
    rank-subsets, kept while each meets every kept one in at most
    rank - 2 elements, are its circuit-hyperplanes."""
    hyperplanes = []
    for _ in range(40):
        h = frozenset(rng.sample(range(n), rank))
        if all(len(h & g) <= rank - 2 for g in hyperplanes):
            hyperplanes.append(h)
    labels = "".join(map(str, range(n)))
    return cf.Matroid.from_labels(labels, [("", 0)] + [
        ("".join(map(str, sorted(h))), rank - 1) for h in hyperplanes]
        + [(labels, rank)])


class TestAgainstLoops:
    """rank_gen, by intervals of cyclic flats, against the class-grid
    oracle above and, to 14 elements, rank_gen_brute; tutte_polynomial
    against the shift of rank_gen; tutte_from_rank_gen against the
    binomial passes."""

    @staticmethod
    def assert_same(m):
        rgm = rank_gen(m)
        assert rgm == rank_gen_loops(m), m
        if len(m.ground) <= 14:
            assert rgm == rank_gen_brute(m), m
        assert all(type(c) is int for row in rgm.coeffs for c in row)
        t = tutte_from_rank_gen(rgm)
        assert t == tutte_shift_loops(rgm), m
        assert tutte_polynomial(m) == t, m
        assert list(t) == sorted(t)
        assert all(type(c) is int for c in t.values())

    def test_catalog_and_duals(self, catalog):
        for m in catalog.values():
            self.assert_same(m)
            self.assert_same(cf.dual(m))

    def test_both_realizations_of_every_lattice(self):
        lattices = cf.all_lattices(6)
        assert len(lattices) == 25
        for lat in lattices:
            for variant in ("plain", "sublattice"):
                m = cf.realize_lattice(lat, variant).matroid
                self.assert_same(m)
                self.assert_same(cf.dual(m))

    def test_sparse_paving(self):
        rng = random.Random("sparse paving")
        for rank, n in product((3, 4), (7, 8)):
            for _ in range(10):
                m = _sparse_paving(rng, rank, n)
                assert len(m.flats) > 2
                self.assert_same(m)
                self.assert_same(cf.dual(m))

    def test_nested(self):
        for length in range(1, 9):
            for seq in product("if", repeat=length):
                self.assert_same(cf.nested_from_sequence("".join(seq)))
        rng = random.Random("nested")
        for _ in range(20):
            seq = "".join(rng.choice("if") for _ in range(rng.randint(9, 16)))
            self.assert_same(cf.nested_from_sequence(seq))

    def test_catalog_sums_and_free_products(self, catalog):
        names = ["empty", "u01", "u11", "u13", "u24", "u23+u11", "u01+u11",
                 "nested:ififif", "p3", "mk4", "gimenez2:swap", "lattice7"]
        for an, bn in product(names, repeat=2):
            a, b = catalog[an], cf.relabel(catalog[bn], "r:")
            for m in (cf.direct_sum(a, b), cf.free_product(a, b)):
                self.assert_same(m)

    def test_random_matroids(self):
        for seed in range(40):
            m = cf.random_matroid(random.Random(seed), 16)
            self.assert_same(m)
            self.assert_same(cf.dual(m))

    def test_random_cw2_matroids(self):
        for seed in range(40):
            m = cf.random_cw2_matroid(random.Random(seed), 10)
            self.assert_same(m)
            self.assert_same(cf.dual(m))

    def test_sums_of_random_pieces(self):
        rng = random.Random("pieces")
        for i in range(40):
            m = cf.random_matroid(rng, 8)
            for j in range(rng.randint(1, 3)):
                piece = cf.relabel(cf.random_cw2_matroid(rng, 7), f"{i}.{j}:")
                m = cf.direct_sum(m, piece)
            self.assert_same(m)

    def test_past_int64(self):
        # 70 elements: every factor product runs on Python ints
        m = cf.direct_sum(cf.uniform(30, 62), cf.relabel(cf.catalog("mk4"), "k:"))
        m = cf.direct_sum(m, cf.uniform(1, 2, ["l1", "l2"]))
        assert len(m.ground) == 70
        self.assert_same(m)


class TestRankGenBrute:
    def test_u24(self, catalog):
        rgm = rank_gen_brute(catalog["u24"])
        # row i = corank: spanning sets first, the empty set at corank 2
        assert rgm.coeffs == ((6, 4, 1), (4, 0, 0), (1, 0, 0))

    def test_total_is_power_of_two(self, small_catalog):
        for name, m in small_catalog.items():
            assert total(rank_gen_brute(m)) == 1 << len(m.ground), name

    def test_dual_transposes(self, small_catalog):
        for name, m in small_catalog.items():
            assert rank_gen_brute(cf.dual(m)) == \
                transpose(rank_gen_brute(m)), name

    def test_low_sizes(self):
        # |A| of every mask below 2^16: one cached, read-only uint8 row
        sizes = _low_sizes()
        assert sizes is _low_sizes()
        assert sizes.dtype == np.uint8 and not sizes.flags.writeable
        assert sizes.tolist() == [popcount(a) for a in range(1 << 16)]

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_uniform_across_slices(self, n):
        # one slice of 2^16 subsets, part of one, and two or four: each
        # slice start's popcount adds to |A mod 2^16|
        for r in (1, n // 2, n - 1):
            m = cf.uniform(r, n)
            assert rank_gen_brute(m) == rank_gen(m), (r, n)


class TestTuttePolynomial:
    def test_u24(self, catalog):
        t = tutte_polynomial(catalog["u24"])
        assert t == {(0, 1): 2, (0, 2): 1, (1, 0): 2, (2, 0): 1}

    def test_mk4(self, catalog):
        t = tutte_polynomial(catalog["mk4"])
        # t(M(K4)) = x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3
        assert t == {(0, 1): 2, (0, 2): 3, (0, 3): 1, (1, 0): 2,
                     (1, 1): 4, (2, 0): 3, (3, 0): 1}

    def test_counts_bases_independents_spanning(self, small_catalog):
        for name, m in small_catalog.items():
            t = tutte_polynomial(m)
            n = len(m.ground)
            bases = sum(1 for a in range(1 << n)
                        if m.is_independent(a)
                        and m.rank(a) == m.matroid_rank)
            independents = sum(1 for a in range(1 << n) if m.is_independent(a))
            spanning = sum(1 for a in range(1 << n)
                           if m.rank(a) == m.matroid_rank)
            assert eval_poly(t, 1, 1) == bases, name
            assert eval_poly(t, 2, 1) == independents, name
            assert eval_poly(t, 1, 2) == spanning, name
            assert eval_poly(t, 2, 2) == 1 << n, name

    def test_matches_rank_gen_substitution(self, small_catalog):
        for name, m in small_catalog.items():
            t = tutte_polynomial(m)
            rgm = rank_gen_brute(m)
            for x, y in product(range(-2, 4), repeat=2):
                assert eval_poly(t, x, y) == eval_rgm(rgm, x - 1, y - 1), name

    def test_direct_sum_multiplies(self, catalog):
        a, b = catalog["u23"], cf.relabel(catalog["u12"], "r:")
        t = tutte_polynomial(cf.direct_sum(a, b))
        assert t == poly_mul(tutte_polynomial(a), tutte_polynomial(b))


class TestConvolution:
    def test_worked_example(self):
        # R(U11 box U01) from R(U11) = x + 1 and R(U01) = y + 1
        rm = rank_gen_brute(cf.uniform(1, 1, ["a"]))
        rn = rank_gen_brute(cf.uniform(0, 1, ["b"]))
        conv = rank_gen_convolution(rm, rn)
        direct = rank_gen_brute(cf.free_product(cf.uniform(1, 1, ["a"]),
                                                cf.uniform(0, 1, ["b"])))
        assert conv == direct
        assert eval_rgm(conv, 1, 1) == 4

    def test_matches_brute_on_pairs(self, small_catalog):
        names = ["u12", "u23", "u24", "u11", "u01", "nested:fi", "mk4"]
        for an, bn in product(names, repeat=2):
            a = small_catalog[an]
            b = cf.relabel(small_catalog[bn], "r:")
            if len(a.ground) + len(b.ground) > 10:
                continue
            conv = rank_gen_convolution(rank_gen_brute(a), rank_gen_brute(b))
            assert conv == rank_gen_brute(cf.free_product(a, b)), (an, bn)

    def test_operation_count_is_polynomial(self, catalog):
        # the convolution touches O((r+1)^2 (n-r+1)^2) coefficient pairs,
        # independent of 2^n; count multiplications for the gimenez member
        m = catalog["u36"]
        rgm = rank_gen_brute(m)
        pairs = sum(1 for _, _, a in rgm.terms() for _, _, b in rgm.terms())
        assert pairs <= (m.matroid_rank + 1) ** 2 * (m.nullity + 1) ** 2


class TestRankGenMatrix:
    def test_terms_sorted_nonzero(self, catalog):
        rgm = rank_gen_brute(catalog["u24"])
        terms = rgm.terms()
        assert terms == sorted(terms)
        assert all(c for _, _, c in terms)

    def test_transpose_involution(self, catalog):
        rgm = rank_gen_brute(catalog["mk4"])
        assert transpose(transpose(rgm)) == rgm

    def test_shape(self, catalog):
        rgm = rank_gen_brute(catalog["u24"])
        assert (rgm.corank_max, rgm.nullity_max) == (2, 2)


def mk4_sum(copies):
    """The direct sum of relabelled copies of M(K4)."""
    m = cf.relabel(cf.catalog("mk4"), "a0:")
    for i in range(1, copies):
        m = cf.direct_sum(m, cf.relabel(cf.catalog("mk4"), f"a{i}:"))
    return m


def uniform_rank_gen(r, n):
    """R(U_{r,n}): the C(n, k) k-subsets sit at corank r - min(k, r) and
    nullity k - min(k, r)."""
    coeffs = [[0] * (n - r + 1) for _ in range(r + 1)]
    for k in range(n + 1):
        coeffs[r - min(k, r)][k - min(k, r)] += comb(n, k)
    return RankGenMatrix(tuple(map(tuple, coeffs)))


class TestRankGen:
    """rank_gen, from the cyclic flats, against the brute-force oracle."""

    def test_catalog(self, catalog):
        assert "u01+u11" in catalog and "empty" in catalog
        for name, m in catalog.items():
            assert rank_gen(m) == rank_gen_brute(m), name

    @pytest.mark.parametrize("n", [62, 63])
    def test_uniform_at_the_int64_line(self, n):
        # the coefficients sum to 2^n, on both sides of int64's 2^63
        rgm = rank_gen(cf.uniform(31, n))
        assert rgm == uniform_rank_gen(31, n)
        assert total(rgm) == 1 << n
        assert all(type(c) is int for row in rgm.coeffs for c in row)

    def test_random_matroids(self):
        for seed in range(60):
            m = cf.random_matroid(random.Random(seed), 14)
            assert rank_gen(m) == rank_gen_brute(m), seed

    def test_random_cw2_matroids(self):
        for seed in range(30):
            m = cf.random_cw2_matroid(random.Random(seed), 10)
            assert rank_gen(m) == rank_gen_brute(m), seed

    def test_direct_sums_and_free_products(self, catalog):
        names = ["u01", "u11", "u12", "u24", "nested:fif", "p2", "mk4",
                 "gimenez1:id"]
        for an, bn in product(names, repeat=2):
            a = catalog[an]
            b = cf.relabel(catalog[bn], "r:")
            for m in (cf.direct_sum(a, b), cf.free_product(a, b)):
                assert rank_gen(m) == rank_gen_brute(m), (an, bn)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed_a=st.integers(0, 10**6), seed_b=st.integers(0, 10**6))
    def test_convolution_of_rank_gens(self, seed_a, seed_b):
        a = cf.random_matroid(random.Random(seed_a), 10)
        b = cf.relabel(cf.random_matroid(random.Random(seed_b), 10), "r:")
        assert rank_gen_convolution(rank_gen(a), rank_gen(b)) == \
            rank_gen(cf.free_product(a, b))

    def test_components(self):
        m = mk4_sum(3)
        parts = [e for e, _ in m.factors]
        assert parts == [0o77 << (6 * i) for i in range(3)]
        assert sorted(_components(m, m.top & ~m.bottom)) == parts
        p = cf.free_product(cf.catalog("mk4"), cf.relabel(cf.catalog("mk4"), "r:"))
        assert [e for e, _ in p.factors] == [p.ground.full]
        assert _components(p, p.top & ~p.bottom) == [p.ground.full]

    def test_sum_makes_no_independence_test(self, monkeypatch):
        # the components are the factors validate found, not a basis search
        m = cf.direct_sum(mk4_sum(2), cf.uniform(1, 3))
        calls = []
        is_independent = cf.Matroid.is_independent

        def counting(self, i):
            calls.append(i)
            return is_independent(self, i)

        monkeypatch.setattr(cf.Matroid, "is_independent", counting)
        t_u13 = tutte_from_rank_gen(uniform_rank_gen(1, 3))
        t_k4 = tutte_polynomial(cf.catalog("mk4"))
        assert tutte_polynomial(m) == poly_mul(poly_mul(t_k4, t_k4), t_u13)
        assert calls == []


def _components(m, support):
    """Oracle: the connected components of m restricted to support, which
    holds no loop and no coloop.  They are the components of the
    fundamental graph of a greedy basis B (Krogdahl), which joins each e
    outside B to every b in its fundamental circuit: b is there iff
    B - b + e is independent."""
    basis = 0
    for x in bits(support):
        if m.is_independent(basis | 1 << x):
            basis |= 1 << x
    parts = []
    for e in bits(support & ~basis):
        joined = 1 << e
        for b in bits(basis):
            if m.is_independent(basis & ~(1 << b) | 1 << e):
                joined |= 1 << b
        keep = []
        for part in parts:  # parts are disjoint: merge those joined meets
            if part & joined:
                joined |= part
            else:
                keep.append(part)
        parts = keep + [joined]
    return parts


def _pieces(rng):
    """Small random pieces for sums: random and cw2 matroids, their
    duals, loops U_{0,k} and coloops U_{k,k}."""
    m = (cf.random_matroid(rng, 8) if rng.random() < 0.6
         else cf.random_cw2_matroid(rng, 7))
    roll = rng.random()
    if roll < 0.25:
        return cf.dual(m)
    if roll < 0.35:
        k = rng.randint(1, 2)
        return cf.uniform(0, k) if rng.random() < 0.5 else cf.uniform(k, k)
    return m


class TestProductSplit:
    """Matroid.factors, the split validate reads off Z alone, against the
    Krogdahl components of the elements between 0_Z and 1_Z."""

    @staticmethod
    def _check(m):
        parts = [e for e, _ in m.factors]
        want = _components(m, m.top & ~m.bottom)
        assert parts == sorted(want, key=lambda p: p & -p), m
        # each factor's pairs are its projections of Z at r(Y u 0_Z)
        flats = dict(zip(m.flats, m.flat_ranks))
        for e, pairs in m.factors:
            assert sorted(pairs) == sorted(
                {(f & e, flats[(f & e) | m.bottom]) for f in m.flats}), m

    def test_sums_match_krogdahl(self):
        rng = random.Random("product-split")
        checked = split = 0
        for i in range(300):
            pieces = [_pieces(rng) for _ in range(rng.choice([1, 2, 2, 3]))]
            m = None
            for j, piece in enumerate(pieces):
                piece = cf.relabel(piece, f"{j}:")
                if m is None:
                    m = piece
                elif rng.random() < 0.8:
                    m = cf.direct_sum(m, piece)
                else:
                    m = cf.free_product(m, piece)
            for host in (m, cf.dual(m)):
                self._check(host)
                checked += 1
                split += len(host.factors) > 1
        assert checked == 600 and split > 200, split

    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    def test_sum_of_connected_pieces(self, copies):
        pieces = [cf.catalog("mk4"), cf.uniform(2, 5), cf.excluded_minor_pn(3),
                  cf.nested_from_sequence("ffiifif")][:copies]
        m = None
        for j, piece in enumerate(pieces):
            piece = cf.relabel(piece, f"{j}:")
            assert len(piece.factors) == 1
            m = piece if m is None else cf.direct_sum(m, piece)
        m = cf.direct_sum(cf.direct_sum(cf.uniform(0, 2, ["l1", "l2"]), m),
                          cf.uniform(1, 1, ["c1"]))
        assert len(m.factors) == copies
        self._check(m)

    def test_no_factors_without_circuits(self):
        for m in (cf.uniform(0, 3), cf.uniform(3, 3), cf.uniform(0, 0),
                  cf.direct_sum(cf.uniform(0, 2), cf.uniform(2, 2, "xy"))):
            assert m.top == m.bottom and m.factors == ()


def _tutte_shift_quartic(rgm):
    """Oracle for tutte_from_rank_gen: every coefficient a[i][j] expanded
    term by term over (p, q) <= (i, j) with binomial signs."""
    out = {}
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


class TestShiftAgainstQuartic:
    def assert_same(self, rgm):
        got, want = tutte_from_rank_gen(rgm), _tutte_shift_quartic(rgm)
        assert got == want
        assert list(got) == list(want)  # same (p, q) order

    def test_random_matrices(self):
        rng = random.Random(63)
        for _ in range(200):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            bound = rng.choice([1, 10, 2 ** 70])  # past 2^63 too
            self.assert_same(RankGenMatrix(tuple(
                tuple(rng.choice([0, rng.randint(-bound, bound)])
                      for _ in range(cols)) for _ in range(rows))))

    def test_rank_gens(self, catalog):
        for m in catalog.values():
            self.assert_same(rank_gen_brute(m))
        self.assert_same(uniform_rank_gen(40, 80))

    def test_entries_in_int64_sums_past_it(self):
        # entries below 2^50 fit int64, but sum |a| 2^(rows + cols - 2)
        # does not: the shift must not run in int64
        rng = random.Random(50)
        for _ in range(20):
            coeffs = tuple(tuple(rng.randint(-2 ** 50, 2 ** 50)
                                 for _ in range(12)) for _ in range(12))
            self.assert_same(RankGenMatrix(coeffs))
        corner = RankGenMatrix(((0,) * 12,) * 11 + ((0,) * 11 + (2 ** 50,),))
        self.assert_same(corner)  # t[5][5] = 2^50 C(11, 5)^2 > 2^63
        assert tutte_from_rank_gen(corner)[(5, 5)] == 2 ** 50 * 462 ** 2

    def test_zero_and_single_entries(self):
        for coeffs in (((0,),), ((1,),), ((0, 0), (0, 0)), ((0, 5),),
                       ((7,), (0,), (2 ** 64,)), ((0,) * 70,) * 70):
            self.assert_same(RankGenMatrix(coeffs))


class TestTuttePastTheCap:
    def test_four_copies_of_mk4(self):
        m = mk4_sum(4)
        assert len(m.ground) == 24 > ENUM_CAP
        t = tutte_polynomial(cf.catalog("mk4"))
        assert tutte_polynomial(m) == poly_mul(poly_mul(t, t), poly_mul(t, t))
        assert m._table is None

    def test_uniform_40_80_exact_past_int64(self):
        rgm = rank_gen(cf.uniform(40, 80))
        assert rgm == uniform_rank_gen(40, 80)
        assert max(c for _, _, c in rgm.terms()) == comb(80, 40) > 2 ** 63
        assert tutte_polynomial(cf.uniform(40, 80)) == \
            tutte_from_rank_gen(uniform_rank_gen(40, 80))

    def test_gimenez_members(self):
        for n in (6, 7):
            m = cf.gimenez_family(n, list(range(n, 0, -1)))
            rgm = rank_gen(m)
            assert total(rgm) == 1 << len(m.ground)
            assert rank_gen(cf.dual(m)) == transpose(rgm)

    def test_free_product_of_four_mk4(self):
        # one connected component of 24 elements, whose class grid would
        # have 2^24 cells: its R is the convolution of its factors'
        mk4 = cf.catalog("mk4")
        m = cf.relabel(mk4, "a:")
        for p in "bcd":
            m = cf.free_product(m, cf.relabel(mk4, f"{p}:"))
        assert len(m.ground) == 24 and len(m.factors) == 1
        rgm = rank_gen(m)
        r_k4 = rank_gen(mk4)
        conv = r_k4
        for _ in range(3):
            conv = rank_gen_convolution(conv, r_k4)
        assert rgm == conv
        assert total(rgm) == 1 << 24
        t = tutte_polynomial(m)
        assert t == tutte_from_rank_gen(rgm)
        assert eval_poly(t, 2, 2) == 1 << 24
        assert m._table is None

    def test_gimenez_8(self):
        m = cf.gimenez_family(8, list(range(8, 0, -1)))
        assert len(m.ground) == 37 and len(m.factors) == 1
        rgm = rank_gen(m)
        assert total(rgm) == 1 << 37
        assert rank_gen(cf.dual(m)) == transpose(rgm)
        t = tutte_polynomial(m)
        assert t == tutte_from_rank_gen(rgm)
        assert eval_poly(t, 2, 2) == 1 << 37

    def test_interval_tables_over_cap(self, monkeypatch):
        # M(K4): 15 comparable pairs of its 6 cyclic flats, 7 sizes each
        monkeypatch.setattr("cycflats.tutte.ENUM_CAP", 6)
        with pytest.raises(cf.TooLarge) as err:
            rank_gen(cf.catalog("mk4"))
        assert "105 interval coefficients" in str(err.value)
        assert "over cap 2^6 (ENUM_CAP)" in str(err.value)
        with pytest.raises(cf.TooLarge):
            tutte_polynomial(cf.catalog("mk4"))
        assert tutte_polynomial(cf.uniform(2, 3)) == {(0, 1): 1, (1, 0): 1,
                                                      (2, 0): 1}
