import random
from itertools import accumulate, combinations
from math import comb

import pytest

import cycflats as cf
from cycflats.errors import TooLarge
from cycflats.widths import ANTICHAIN_CAP


class TestCyclicWidth:
    def test_known_values(self, catalog):
        assert cf.cyclic_width(catalog["u24"]) == 1
        assert cf.cyclic_width(catalog["u33"]) == 1
        assert cf.cyclic_width(catalog["mk4"]) == 4
        assert cf.cyclic_width(catalog["p2"]) == 2
        assert cf.cyclic_width(catalog["gimenez2:id"]) == 2
        assert cf.cyclic_width(catalog["nested:ififif"]) == 1

    def test_dual_invariant(self, catalog):
        for name, m in catalog.items():
            assert cf.cyclic_width(cf.dual(m)) == cf.cyclic_width(m), name

    def test_minor_monotone(self, small_catalog):
        for name, m in small_catalog.items():
            w = cf.cyclic_width(m)
            for x in range(len(m.ground)):
                for spec in (cf.MinorSpec(0, 1 << x), cf.MinorSpec(1 << x, 0)):
                    assert cf.cyclic_width(cf.minor(m, spec)) <= w, (name, x)

    def test_flat_count_minor_monotone(self, small_catalog):
        # |Z| never rises under a minor, which has_minor's gate relies on:
        # a single deletion or contraction maps Z(N) into Z(M) injectively
        hosts = list(small_catalog.values())
        hosts += [cf.random_matroid(random.Random(seed))
                  for seed in range(100)]
        hosts += [cf.random_cw2_matroid(random.Random(seed), max_elems=8)
                  for seed in range(100)]
        minors = 0
        for m in hosts + [cf.dual(m) for m in hosts]:
            for x in range(len(m.ground)):
                for spec in (cf.MinorSpec(0, 1 << x), cf.MinorSpec(1 << x, 0)):
                    assert len(cf.minor(m, spec).flats) <= len(m.flats), \
                        (m, spec)
                    minors += 1
        assert minors == 4_820

    def test_free_product_takes_max(self, catalog):
        # CW(M box N) = max(CW(M), CW(N)) for loop/isthmus-free factors
        m, n = catalog["mk4"], cf.relabel(catalog["p2"], "r:")
        assert cf.cyclic_width(cf.free_product(m, n)) == 4
        assert cf.cyclic_width(cf.free_product(n, m)) == 4


class TestIngleton:
    def test_uniform_passes(self, catalog):
        assert cf.ingleton_transversal(catalog["u24"]) == (True, None)

    def test_mk4_fails_on_the_four_triangles(self, catalog):
        m = catalog["mk4"]
        ok, witness = cf.ingleton_transversal(m)
        assert not ok
        triangles = [f for f, r in zip(m.flats, m.flat_ranks) if r == 2]
        assert sorted(witness) == sorted(triangles)
        # the exact margin: LHS = r(empty intersection) = 0, RHS = -1
        inter = witness[0]
        for f in witness[1:]:
            inter &= f
        assert m.rank(inter) == 0
        rhs = 0
        for j in range(1, 5):
            sign = 1 if j % 2 else -1
            for sub in combinations(witness, j):
                u = 0
                for f in sub:
                    u |= f
                rhs += sign * m.rank(u)
        assert rhs == -1

    def test_relaxed_mk4_passes(self, catalog):
        m = catalog["mk4"]
        tri = m.ground.mask(["12", "13", "23"])
        assert cf.ingleton_transversal(cf.relax(m, tri))[0]

    def test_antichain_restriction_is_lossless(self, small_catalog):
        # spot-check: the all-families variant agrees with the antichain one
        for name, m in small_catalog.items():
            if len(m.flats) > 8:
                continue
            assert ingleton_all_families(m)[0] == \
                cf.ingleton_transversal(m)[0], name

    def test_flat_count_cap(self, catalog):
        # the cap bounds the rank calls, sum_{s=3..w} C(k, s) 2^s over k
        # flats of width w, not k: two M(K4) and the realization of M_22
        # both raise before the search.  The message gives the sum up to
        # the first size that passes the cap.
        mk4 = catalog["mk4"]
        atoms = [f"a{i}" for i in range(22)]
        m22 = cf.lattice_from_covers(
            ["0", *atoms, "1"],
            [("0", a) for a in atoms] + [(a, "1") for a in atoms])
        for m, k in ((cf.direct_sum(mk4, cf.relabel(mk4, "r:")), 36),
                     (cf.realize_lattice(m22, "sublattice").matroid, 24)):
            width = cf.cyclic_width(m)
            bound = next(b for b in accumulate(
                comb(k, s) << s for s in range(3, width + 1))
                if b > ANTICHAIN_CAP)
            assert len(m.flats) == k
            for call in (cf.ingleton_transversal, cf.bitransversal_cert):
                with pytest.raises(cf.TooLarge) as err:
                    call(m)
                assert f"make {bound} or more rank calls" in str(err.value)
                assert f"to {width} of {k} cyclic flats" in str(err.value)
                assert f"cap {ANTICHAIN_CAP} (ANTICHAIN_CAP)" in str(err.value)

    def test_long_chain_under_cap(self):
        # 31 cyclic flats of width 1: no antichain to search
        m = cf.nested_from_sequence("if" * 30)
        assert len(m.flats) == 31
        assert cf.ingleton_transversal(m) == (True, None)
        assert cf.bitransversal_cert(m)


class TestBitransversal:
    def test_uniform(self, catalog):
        assert cf.bitransversal_cert(catalog["u24"])

    def test_mk4(self, catalog):
        assert not cf.bitransversal_cert(catalog["mk4"])

    def test_width_two_matroids(self):
        # cyclic width <= 2 forces bitransversality
        for s in range(40):
            m = cf.random_cw2_matroid(random.Random(s))
            assert cf.bitransversal_cert(m), s

    def test_nested_catalog_members(self, catalog):
        for name, m in catalog.items():
            if name.startswith("nested:"):
                assert cf.bitransversal_cert(m), name


def ingleton_all_families(m: cf.Matroid, cap: int = 16):
    """The same condition evaluated over ALL nonempty families of cyclic
    flats, not just antichains.  Quadratically slower; used to spot-check
    that the antichain restriction is lossless."""
    flats = m.flats
    if len(flats) > cap:
        raise TooLarge(
            f"{len(flats)} cyclic flats exceeds cap {cap}")
    for size in range(1, len(flats) + 1):
        for combo in combinations(flats, size):
            inter = combo[0]
            for f in combo[1:]:
                inter &= f
            rhs = 0
            for j in range(1, size + 1):
                sign = 1 if j % 2 else -1
                for sub in combinations(combo, j):
                    union = 0
                    for f in sub:
                        union |= f
                    rhs += sign * m.rank(union)
            if m.rank(inter) > rhs:
                return False, combo
    return True, None
