from itertools import product

import cycflats as cf
from cycflats.tutte import (RankGenMatrix, rank_gen_brute,
                            rank_gen_convolution, tutte_from_rank_gen,
                            tutte_polynomial)


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
