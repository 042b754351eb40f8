import random
from itertools import product

import pytest

import cycflats as cf
from cycflats.groundsets import popcount
from conftest import agrees_with_validate, summands


def fp_rank_check(m, n, x, y):
    """Closed-form rank of X u Y in M box N, independent of the
    constructed product: r_M(X) + r_N(Y) + min{r(M) - r_M(X), nu_N(Y)}."""
    rx = m.rank(x)
    ry = n.rank(y)
    return rx + ry + min(m.matroid_rank - rx, popcount(y) - ry)


def fp_independent_check(m, n, x, y):
    """Closed-form independence of X u Y in M box N: X independent in M
    and nu_N(Y) <= r(M) - |X|."""
    if not m.is_independent(x):
        return False
    nu_y = popcount(y) - n.rank(y)
    return nu_y <= m.matroid_rank - popcount(x)


def shifted_pairs(m, n):
    """All subset masks of the product ground set, split into (x, y)."""
    na = len(m.ground)
    for mask in range(1 << (na + len(n.ground))):
        yield mask, mask & m.ground.full, mask >> na


class TestFreeProduct:
    def test_matches_validate(self):
        # every ordered pair of fixed summands, and 40 seeded random pairs
        fixed, rand = summands()
        rng = random.Random(7)
        pairs = list(product(fixed, repeat=2))
        pairs += [tuple(rng.sample(rand, 2)) for _ in range(40)]
        for m, n in pairs:
            agrees_with_validate(
                cf.free_product(cf.relabel(m, "a:"), cf.relabel(n, "b:")))

    def test_overlap_rejected(self, catalog):
        with pytest.raises(cf.OverlappingGroundSets):
            cf.free_product(catalog["u24"], catalog["u12"])

    def test_u11_box_u01_is_u12(self, catalog):
        got = cf.free_product(cf.uniform(1, 1, ["a"]), cf.uniform(0, 1, ["b"]))
        assert cf.is_isomorphic(got, catalog["u12"])[0]

    def test_u01_box_u11(self):
        # loop first: the loop stays a loop, the second element an isthmus
        got = cf.free_product(cf.uniform(0, 1, ["a"]), cf.uniform(1, 1, ["b"]))
        assert got.loops() == got.ground.mask("a")
        assert got.isthmuses() == got.ground.mask("b")

    def test_uniform_box_uniform(self):
        # U_{r,a} box U_{s,b} = U_{r+s, a+b} when 0 < r = a or ... not in
        # general; but U_{1,1} box U_{1,2} is the rank-2 whirl-free U_{2,3}
        got = cf.free_product(cf.uniform(1, 1, ["a"]),
                              cf.uniform(1, 2, ["b", "c"]))
        assert cf.is_isomorphic(got, cf.uniform(2, 3))[0]

    def test_rank_against_closed_form(self, small_catalog):
        names = ["u12", "u23", "u01", "u11", "nested:fi", "u24"]
        for an, bn in product(names, repeat=2):
            a = small_catalog[an]
            b = cf.relabel(small_catalog[bn], "r:")
            if len(a.ground) + len(b.ground) > 8:
                continue
            p = cf.free_product(a, b)
            for mask, x, y in shifted_pairs(a, b):
                assert p.rank(mask) == fp_rank_check(a, b, x, y), (an, bn)

    def test_independence_against_closed_form(self, small_catalog):
        names = ["u12", "u23", "u01", "u11", "nested:if"]
        for an, bn in product(names, repeat=2):
            a = small_catalog[an]
            b = cf.relabel(small_catalog[bn], "r:")
            p = cf.free_product(a, b)
            for mask, x, y in shifted_pairs(a, b):
                assert p.is_independent(mask) == \
                    fp_independent_check(a, b, x, y), (an, bn)

    def test_em_flat_membership_rule(self, catalog):
        # E(M) joins the lattice iff M has no isthmuses and N has no loops
        m, n = catalog["u23"], cf.relabel(catalog["u12"], "r:")
        p = cf.free_product(m, n)
        assert m.ground.full in p.flats
        m2 = catalog["u33"]  # all isthmuses
        p2 = cf.free_product(m2, n)
        assert m2.ground.full not in p2.flats
        n3 = cf.relabel(catalog["u01+u11"], "r:")  # has a loop
        p3 = cf.free_product(m, n3)
        assert m.ground.full not in p3.flats

    def test_associativity(self, catalog):
        a = cf.uniform(1, 2, ["a1", "a2"])
        b = cf.uniform(1, 1, ["b1"])
        c = cf.uniform(0, 2, ["c1", "c2"])
        left = cf.free_product(cf.free_product(a, b), c)
        right = cf.free_product(a, cf.free_product(b, c))
        assert left == right

    def test_rank_is_sum(self, catalog):
        p = cf.free_product(catalog["u23"], cf.relabel(catalog["u12"], "r:"))
        assert p.matroid_rank == 3

    def test_dual_antiisomorphism(self, catalog):
        # (M box N)* = N* box M*
        m, n = catalog["u12"], cf.relabel(catalog["u23"], "r:")
        lhs = cf.dual(cf.free_product(m, n))
        rhs = cf.free_product(cf.dual(n), cf.dual(m))
        assert cf.is_isomorphic(lhs, rhs)[0]


class TestFreeExtension:
    def test_u24_to_u25(self, catalog):
        got = cf.free_extension(catalog["u24"])
        assert cf.is_isomorphic(got, cf.uniform(2, 5))[0]
        assert got.ground.labels[-1] == "e0"  # e1..e4 taken

    def test_explicit_label(self, catalog):
        got = cf.free_extension(catalog["u24"], "q")
        assert got.ground.labels[-1] == "q"
        with pytest.raises(cf.LabelInUse):
            cf.free_extension(catalog["u24"], "e1")

    def test_new_element_not_isthmus_unless_free(self, catalog):
        got = cf.free_extension(catalog["u24"], "q")
        assert got.isthmuses() == 0
        free = cf.free_extension(catalog["u33"], "q")
        assert free.matroid_rank == 3  # rank unchanged, q dependent on top

    def test_circuits_through_new_element(self, catalog):
        # circuits through e are exactly B u {e} for bases B of the
        # truncation-to-hyperplane level, i.e. independent sets of size r
        m = catalog["u23"]
        ext = cf.free_extension(m, "q")
        q = ext.ground.mask("q")
        for c in ext.circuits():
            if c & q:
                base = m.ground.mask(n for n in ext.ground.names(c) if n != "q")
                assert popcount(base) == m.matroid_rank
                assert m.is_independent(base)


class TestFreeCoextension:
    def test_dual_of_extension(self, small_catalog):
        for name, m in small_catalog.items():
            lhs = cf.free_coextension(m, "q")
            rhs = cf.dual(cf.free_extension(cf.dual(m), "q"))
            assert cf.is_isomorphic(lhs, rhs)[0], name

    def test_rank_bumps(self, catalog):
        got = cf.free_coextension(catalog["u24"], "q")
        assert got.matroid_rank == 3
        assert cf.is_isomorphic(got, cf.uniform(3, 5))[0]

    def test_label_in_use(self, catalog):
        with pytest.raises(cf.LabelInUse):
            cf.free_coextension(catalog["u24"], "e2")

    def test_contraction_inverse(self, small_catalog):
        # contracting the coextension point recovers the original matroid
        for name, m in small_catalog.items():
            co = cf.free_coextension(m, "q")
            back = cf.contraction(co, co.ground.mask("q"))
            assert cf.is_isomorphic(back, m)[0], name
