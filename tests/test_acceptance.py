"""Acceptance gate: twelve criteria, one test (and one pass line) each.

Every check is exact integer equality; there are no tolerances anywhere.
Randomized criteria use fixed seeds, so the whole gate is deterministic.
"""

import random
import time
from itertools import combinations, permutations, product

import numpy as np

import cycflats as cf
from cycflats.groundsets import bits, popcount
from cycflats.matroid import ENUM_CAP
from conftest import build_catalog


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_axiom_fixpoint():
    """Recomputing cyclic flats from the rank oracle reproduces every
    catalog member exactly, within the time budget."""
    start = time.perf_counter()
    cat = build_catalog()
    assert len(cat) >= 30
    for name, m in cat.items():
        assert cf.cyclic_flats_recompute(m) == m.ranked_family(), name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"fixpoint sweep took {elapsed:.1f}s"
    report(1, f"axiom fixpoint exact on {len(cat)} matroids "
              f"in {elapsed:.2f}s")


def test_criterion_02_rank_oracle_soundness(catalog):
    checked = 0
    for name, m in catalog.items():
        n = len(m.ground)
        if n > 10:
            continue
        rt = m.rank_table()
        full = (1 << n) - 1
        for a in range(1 << n):
            assert 0 <= rt[a] <= popcount(a), name
            outside = list(bits(full & ~a))
            for x in outside:
                assert rt[a] <= rt[a | (1 << x)] <= rt[a] + 1, name
            for x, y in combinations(outside, 2):
                assert rt[a | (1 << x)] + rt[a | (1 << y)] >= \
                    rt[a] + rt[a | (1 << x) | (1 << y)], name
        # circuits() must equal the minimal dependent sets
        dependent = [a for a in range(1 << n) if rt[a] < popcount(a)]
        minimal = [a for a in dependent
                   if all(rt[a & ~(1 << x)] == popcount(a) - 1
                          for x in bits(a))]
        assert sorted(m.circuits()) == sorted(minimal), name
        checked += 1
    report(2, f"rank axioms and circuits exact on {checked} matroids")


def test_criterion_03_tutte_convolution(small_catalog):
    pairs = 0
    for an, bn in product(small_catalog, repeat=2):
        a = small_catalog[an]
        b = cf.relabel(small_catalog[bn], "r:")
        p = cf.free_product(a, b)
        conv = cf.rank_gen_convolution(cf.rank_gen_brute(a),
                                       cf.rank_gen_brute(b))
        assert conv == cf.rank_gen_brute(p), (an, bn)
        pairs += 1
    # the worked case: R(U11 box U01) = x + y + 2
    worked = cf.rank_gen_convolution(
        cf.rank_gen_brute(cf.uniform(1, 1, ["a"])),
        cf.rank_gen_brute(cf.uniform(0, 1, ["b"])))
    assert worked.terms() == [(0, 0, 2), (0, 1, 1), (1, 0, 1)]
    report(3, f"convolution equals brute force on {pairs} ordered pairs")


def test_criterion_04_free_product_characterizations(small_catalog):
    pairs = 0
    for an, bn in product(small_catalog, repeat=2):
        a = small_catalog[an]
        b = cf.relabel(small_catalog[bn], "r:")
        na, nb = len(a.ground), len(b.ground)
        if na + nb > 12:
            continue
        p = cf.free_product(a, b)
        rt = p.rank_table()
        ra = a.rank_table().astype(np.int64)
        rb = b.rank_table().astype(np.int64)
        masks = np.arange(1 << (na + nb), dtype=np.uint64)
        x = (masks & np.uint64(a.ground.full)).astype(np.int64)
        y = (masks >> np.uint64(na)).astype(np.int64)
        rx, ry = ra[x], rb[y]
        nu_y = np.bitwise_count(y.astype(np.uint64)).astype(np.int64) - ry
        # Lemma: rank of X u Y in the product
        expect_rank = rx + ry + np.minimum(a.matroid_rank - rx, nu_y)
        assert np.array_equal(rt, expect_rank), (an, bn)
        # Theorem: independence of X u Y in the product
        size_x = np.bitwise_count(x.astype(np.uint64)).astype(np.int64)
        expect_ind = (rx == size_x) & (nu_y <= a.matroid_rank - size_x)
        sizes = np.bitwise_count(masks).astype(np.int64)
        assert np.array_equal(rt == sizes, expect_ind), (an, bn)
        pairs += 1
    report(4, f"free-product rank/independence formulas exact on {pairs} pairs")


def test_criterion_05_lattice_realization():
    lats = cf.all_lattices(5)
    for lat in lats:
        real = cf.realize_lattice(lat)
        assert cf.poset_isomorphic(real.matroid.flats, lat)[0]
        sub = cf.realize_lattice(lat, "sublattice")
        assert cf.poset_isomorphic(sub.matroid.flats, lat)[0]
        flat_of = dict(sub.witness)
        for i, xe in enumerate(lat.elements):
            for j, ye in enumerate(lat.elements):
                expect = flat_of[lat.elements[lat.meet[i][j]]]
                assert flat_of[xe] & flat_of[ye] == expect
    report(5, f"all {len(lats)} lattices on <= 5 elements realized")


def test_criterion_06_nested_counting():
    for n in range(1, 7):
        classes = []
        for code in range(1 << n):
            seq = "".join("if"[(code >> i) & 1] for i in range(n))
            m = cf.nested_from_sequence(seq)
            assert not any(cf.is_isomorphic(m, s)[0] for s in classes), seq
            classes.append(m)
        assert len(classes) == 1 << n
    report(6, "nested isomorphism classes count 2^n for n = 1..6")


def test_criterion_07_pn_excluded_minors():
    for n in (2, 3, 4):
        p = cf.excluded_minor_pn(n)
        assert cf.cyclic_width(p) == 2, n
        for x in range(len(p.ground)):
            for spec in (cf.MinorSpec(0, 1 << x), cf.MinorSpec(1 << x, 0)):
                assert cf.cyclic_width(cf.minor(p, spec)) == 1, (n, x)
    report(7, "P_n has width 2 with all one-element minors width 1, n = 2..4")


def test_criterion_08_uniform_minor_from_chain():
    hosts = {1: ["ifif", "fifif", "ifiif"],
             2: ["ififif", "ifiifif", "fififif"],
             3: ["ifififif", "iifififiif"]}
    count = 0
    for k, seqs in hosts.items():
        for seq in seqs:
            m = cf.nested_from_sequence(seq)
            assert len(m.flats) >= k + 2, seq
            cm = cf.uniform_minor_from_chain(m, k)
            got = cf.minor(m, cm.trimmed)
            assert cf.is_isomorphic(got, cf.uniform(k, k + 2))[0], (k, seq)
            count += 1
    report(8, f"U_k,k+2 extracted from {count} chains, k = 1..3")


def test_criterion_09_width_closure():
    violations = 0
    for seed in range(100):
        m = cf.random_matroid(random.Random(seed))
        w = cf.cyclic_width(m)
        if cf.cyclic_width(cf.dual(m)) != w:
            violations += 1
        for x in range(len(m.ground)):
            for spec in (cf.MinorSpec(0, 1 << x), cf.MinorSpec(1 << x, 0)):
                if cf.cyclic_width(cf.minor(m, spec)) > w:
                    violations += 1
        if m.matroid_rank >= 1 and cf.cyclic_width(cf.truncate(m)) > w:
            violations += 1
        if m.nullity >= 1 and cf.cyclic_width(cf.higgs_lift(m)) > w:
            violations += 1
        if cf.cyclic_width(cf.free_extension(m, "q")) > w:
            violations += 1
        if cf.cyclic_width(cf.free_coextension(m, "q")) > w:
            violations += 1
    assert violations == 0
    report(9, "width closure: 0 violations over 100 seeded matroids")


def test_criterion_10_ingleton():
    mk4 = cf.catalog("mk4")
    ok, witness = cf.ingleton_transversal(mk4)
    assert not ok
    triangles = [f for f, r in zip(mk4.flats, mk4.flat_ranks) if r == 2]
    assert sorted(witness) == sorted(triangles)
    inter = witness[0]
    for f in witness[1:]:
        inter &= f
    lhs = mk4.rank(inter)
    rhs = 0
    for j in range(1, 5):
        sign = 1 if j % 2 else -1
        for sub in combinations(witness, j):
            u = 0
            for f in sub:
                u |= f
            rhs += sign * mk4.rank(u)
    assert (lhs, rhs) == (0, -1)
    assert cf.bitransversal_cert(cf.uniform(2, 4))
    for seed in range(200):
        m = cf.random_cw2_matroid(random.Random(seed))
        assert cf.cyclic_width(m) <= 2, seed
        assert cf.bitransversal_cert(m), seed
    report(10, "M(K4) fails at (0, -1); 200 width-<=2 matroids bitransversal")


def test_criterion_11_gimenez_family():
    for n in (2, 3):
        members = [cf.gimenez_family(n, sigma)
                   for sigma in permutations(range(1, n + 1))]
        assert len(members) == [1, 2, 6][n - 1]
        for m in members:
            assert len(m.ground) == 4 * n + 5
        for a, b in combinations(members, 2):
            assert cf.is_isomorphic(a, b) == (False, None)
            assert cf.poset_isomorphic(a.flats, b.flats)[0]
    report(11, "Gimenez n = 2, 3: n! valid, pairwise nonisomorphic members "
               "with isomorphic lattices")


def test_criterion_12_duality_suite(catalog):
    for name, m in catalog.items():
        assert cf.dual(cf.dual(m)) == m, name
        t = cf.tutte_polynomial(m)
        td = cf.tutte_polynomial(cf.dual(m))
        assert td == {(q, p): c for (p, q), c in t.items()}, name
        if len(m.ground) <= ENUM_CAP:
            # tutte_polynomial works from Z(M); keep the brute oracle
            assert t == cf.tutte_from_rank_gen(cf.rank_gen_brute(m)), name
        if len(m.ground) <= 8:
            for x in range(len(m.ground)):
                lhs = cf.dual(cf.minor(m, cf.MinorSpec(0, 1 << x)))
                rhs = cf.minor(cf.dual(m), cf.MinorSpec(1 << x, 0))
                assert lhs == rhs, (name, x)
    report(12, f"duality suite exact on all {len(catalog)} catalog matroids")
