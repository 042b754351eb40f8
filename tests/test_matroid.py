import random
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

import cycflats as cf
from cycflats.groundsets import bits, popcount
from cycflats.matroid import CIRCUIT_CAP, ENUM_CAP, _grid_ranks


def rf(labels, sets):
    return cf.RankedFamily.from_labels(labels, sets)


class TestValidate:
    def test_u24(self):
        m = cf.validate(rf("abcd", [("", 0), ("abcd", 2)]))
        assert isinstance(m, cf.Matroid)
        assert m.matroid_rank == 2

    def test_single_empty_flat_is_free(self):
        m = cf.validate(rf("abc", [("", 0)]))
        assert isinstance(m, cf.Matroid)
        assert m.matroid_rank == 3
        assert m.isthmuses() == m.ground.full

    def test_z0_failure(self):
        v = cf.validate(rf("abcd", [("ab", 0), ("cd", 0)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z0"

    def test_z1_failure(self):
        v = cf.validate(rf("abcd", [("", 1), ("abcd", 2)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z1"

    def test_z2_failure_rank_jump_zero(self):
        v = cf.validate(rf("abcd", [("", 0), ("abcd", 0)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z2"

    def test_z2_failure_rank_jump_full(self):
        # r(Y) - r(X) = |Y - X| is also forbidden
        v = cf.validate(rf("ab", [("", 0), ("ab", 2)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z2"

    def test_z3_failure(self):
        # two lines sharing c, while their lattice meet is the empty set
        v = cf.validate(rf("abcde",
                           [("", 0), ("abc", 1), ("cde", 1), ("abcde", 2)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z3"
        g = cf.GroundSet("abcde")
        assert set(v.witness) == {g.mask("abc"), g.mask("cde")}

    def test_all_violations_exhaustive(self):
        cand = rf("abcde",
                  [("", 1), ("abc", 1), ("cde", 1), ("abcde", 2)])
        vs = cf.all_violations(cand)
        assert [v.which for v in vs] == ["Z1", "Z2", "Z2", "Z3"]

    def test_catalog_members_validate(self, catalog):
        for name, m in catalog.items():
            back = cf.validate(m.ranked_family())
            assert isinstance(back, cf.Matroid), name
            assert back == m, name


# -- graphic matroid oracle for M(K4) ----------------------------------------

MK4_EDGES = {"12": (1, 2), "13": (1, 3), "14": (1, 4),
             "23": (2, 3), "24": (2, 4), "34": (3, 4)}


def graphic_rank(edge_names):
    """Rank of an edge subset of K4: touched vertices minus components."""
    parent = {v: v for v in (1, 2, 3, 4)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    touched = set()
    comps = 0
    for e in edge_names:
        u, v = MK4_EDGES[e]
        touched.update((u, v))
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(v) for v in touched}
    comps = len(roots)
    return len(touched) - comps


class TestRankOracle:
    def test_mk4_against_graphic_oracle(self, catalog):
        m = catalog["mk4"]
        labels = m.ground.labels
        for mask in range(1 << 6):
            names = [labels[i] for i in bits(mask)]
            assert m.rank(mask) == graphic_rank(names), names

    def test_u36_rank_formula(self, catalog):
        m = catalog["u36"]
        for mask in range(1 << 6):
            assert m.rank(mask) == min(3, popcount(mask))

    def test_rank_table_matches_scalar_rank(self, small_catalog):
        for name, m in small_catalog.items():
            table = m.rank_table()
            for mask in range(1 << len(m.ground)):
                assert table[mask] == m.rank(mask), name

    def test_rank_axioms_hold(self, small_catalog):
        for name, m in small_catalog.items():
            rt = m.rank_table()
            n = len(m.ground)
            full = (1 << n) - 1
            assert rt[0] == 0, name
            for a in range(1 << n):
                assert 0 <= rt[a] <= popcount(a), name
                for x in bits(full & ~a):
                    assert rt[a] <= rt[a | (1 << x)] <= rt[a] + 1, name


    def test_rank_table_on_zero_and_one_element(self, catalog):
        for name in ["empty", "u01", "u11"]:
            m = catalog[name]
            table = m.rank_table()
            assert len(table) == 1 << len(m.ground), name
            assert [int(r) for r in table] == \
                [m.rank(a) for a in range(1 << len(m.ground))], name

    def test_rank_table_odd_ground_sampled(self):
        # 17 elements: the grid's low half is elements 0-7, so the flats
        # of the U_{2,5} summand (elements 6-10) lie in both halves
        mk4 = cf.catalog("mk4")
        m = cf.direct_sum(cf.direct_sum(cf.relabel(mk4, "a:"),
                                        cf.uniform(2, 5, list("vwxyz"))),
                          cf.relabel(mk4, "b:"))
        nested = cf.nested_from_sequence("ififfiiffifiifffiif")
        rng = random.Random(17)
        for m in (m, nested):
            n = len(m.ground)
            assert n % 2 == 1 and n >= 17
            table = m.rank_table()
            assert len(table) == 1 << n
            masks = [0, m.ground.full] + [rng.getrandbits(n) for _ in range(3000)]
            for a in masks:
                assert table[a] == m.rank(a), (n, a)

    def test_grid_ranks_mixed_radix(self):
        radices = [2, 1, 3, 1, 2]
        flats = [(0b00000, 0), (0b00101, 2), (0b11001, 3), (0b10110, 4),
                 (0b11111, 6)]
        grid = _grid_ranks(radices, flats)
        # axis 0 varies fastest
        cells = [t[::-1] for t in product(*(range(k + 1) for k in radices[::-1]))]
        assert len(grid) == len(cells)
        for g, t in zip(grid, cells):
            assert g == min(r + sum(tc for c, tc in enumerate(t)
                                    if not inside >> c & 1)
                            for inside, r in flats), t


class TestIndependence:
    def test_matches_rank(self, small_catalog):
        for name, m in small_catalog.items():
            for mask in range(1 << len(m.ground)):
                expect = m.rank(mask) == popcount(mask)
                assert m.is_independent(mask) == expect, name

    def test_u24_independent_sets(self, catalog):
        m = catalog["u24"]
        for mask in range(1 << 4):
            assert m.is_independent(mask) == (popcount(mask) <= 2)


class TestClosure:
    def test_closure_is_a_closure_operator(self, small_catalog):
        for name, m in small_catalog.items():
            for mask in range(1 << len(m.ground)):
                c = m.closure(mask)
                assert mask & ~c == 0, name
                assert m.rank(c) == m.rank(mask), name
                assert m.closure(c) == c, name

    def test_mk4_triangle_closure(self, catalog):
        m = catalog["mk4"]
        g = m.ground
        assert m.closure(g.mask(["12", "13"])) == g.mask(["12", "13", "23"])


class TestCircuits:
    def test_u24_circuits(self, catalog):
        m = catalog["u24"]
        circuits = m.circuits()
        assert len(circuits) == 4
        assert all(popcount(c) == 3 for c in circuits)

    def test_mk4_circuits(self, catalog):
        m = catalog["mk4"]
        circuits = {frozenset(m.ground.names(c)) for c in m.circuits()}
        triangles = {frozenset(s) for s in
                     [("12", "13", "23"), ("12", "14", "24"),
                      ("13", "14", "34"), ("23", "24", "34")]}
        squares = {frozenset(s) for s in
                   [("12", "13", "24", "34"), ("12", "14", "23", "34"),
                    ("13", "14", "23", "24")]}
        assert circuits == triangles | squares

    def test_circuits_are_dependent_and_minimal(self, small_catalog):
        for name, m in small_catalog.items():
            for c in m.circuits():
                assert not m.is_independent(c), name
                for x in bits(c):
                    assert m.is_independent(c & ~(1 << x)), name

    def test_circuit_elimination(self, small_catalog):
        for name, m in small_catalog.items():
            circuits = m.circuits()
            for c1, c2 in combinations(circuits, 2):
                common = c1 & c2
                for x in bits(common):
                    union = (c1 | c2) & ~(1 << x)
                    assert any(c & ~union == 0 for c in circuits), name

    def test_loops_are_circuits(self, catalog):
        m = catalog["u01+u11"]
        assert [m.ground.names(c) for c in m.circuits()] == [("a1",)]

    def test_candidate_cap(self):
        # U_{10,40} would enumerate every 11-subset of its 40 elements
        with pytest.raises(cf.TooLarge) as err:
            cf.uniform(10, 40).circuits()
        assert f"{comb(40, 11)} candidate" in str(err.value)
        assert f"cap {CIRCUIT_CAP}" in str(err.value)


class TestCyclicFlatsRecompute:
    def test_fixpoint_on_catalog(self, catalog):
        for name, m in catalog.items():
            if len(m.ground) > 16:
                continue
            assert cf.cyclic_flats_recompute(m) == m.ranked_family(), name

    def test_fixpoint_on_three_copies_of_mk4(self):
        mk4 = cf.catalog("mk4")
        m = cf.direct_sum(cf.direct_sum(cf.relabel(mk4, "a:"),
                                        cf.relabel(mk4, "b:")),
                          cf.relabel(mk4, "c:"))
        assert (len(m.ground), len(m.flats)) == (18, 216)
        assert cf.cyclic_flats_recompute(m) == m.ranked_family()

    def test_fixpoint_on_nested_19(self):
        m = cf.nested_from_sequence("ififfiiffifiifffiif")
        assert len(m.ground) == 19
        assert cf.cyclic_flats_recompute(m) == m.ranked_family()

    def test_cap(self):
        m = cf.uniform(1, ENUM_CAP + 1)
        with pytest.raises(cf.TooLarge) as err:
            cf.cyclic_flats_recompute(m)
        assert f"{ENUM_CAP + 1} elements" in str(err.value)
        assert f"cap {ENUM_CAP} (ENUM_CAP)" in str(err.value)
        assert m._table is None


class TestBasicStats:
    def test_u24(self, catalog):
        s = cf.basic_stats(catalog["u24"])
        assert (s.rank, s.nullity, s.loops, s.isthmuses) == (2, 2, (), ())
        assert s.n_cyclic_flats == 2

    def test_loops_and_isthmuses(self, catalog):
        s = cf.basic_stats(catalog["u01+u11"])
        assert s.loops == ("a1",)
        assert s.isthmuses == ("b1",)
        assert (s.rank, s.nullity) == (1, 1)

    def test_free_matroid(self, catalog):
        s = cf.basic_stats(catalog["u33"])
        assert s.loops == ()
        assert len(s.isthmuses) == 3
        assert s.n_cyclic_flats == 1


class TestRankedFamily:
    def test_duplicate_sets_rejected(self):
        g = cf.GroundSet("ab")
        with pytest.raises(cf.InvalidParameters):
            cf.RankedFamily(g, [(0, 0), (0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(cf.InvalidParameters):
            cf.RankedFamily(cf.GroundSet("ab"), [])

    def test_non_integer_rank_rejected(self):
        with pytest.raises(cf.InvalidParameters):
            rf("ab", [("", 0.5)])

    def test_canonical_order(self):
        fam = rf("abc", [("abc", 2), ("", 0), ("ab", 1)])
        g = fam.ground
        assert list(fam.entries) == [0, g.mask("ab"), g.mask("abc")]
