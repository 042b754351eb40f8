from itertools import combinations

import pytest

import cycflats as cf
from cycflats import ops
from cycflats.groundsets import bits, popcount, subset_key


def apply_witness(m, n, witness):
    """Check that a label map really carries m's ranked family onto n's."""
    assert sorted(witness) == sorted(m.ground.labels)
    assert sorted(witness.values()) == sorted(n.ground.labels)
    mapped = {}
    for f, r in zip(m.flats, m.flat_ranks):
        img = n.ground.mask(witness[lab] for lab in m.ground.names(f))
        mapped[img] = r
    assert mapped == dict(zip(n.flats, n.flat_ranks))


class TestDual:
    def test_u13(self, catalog):
        d = cf.dual(catalog["u13"])
        assert cf.is_isomorphic(d, catalog["u23"])[0]

    def test_u24_self_dual(self, catalog):
        assert cf.dual(catalog["u24"]) == catalog["u24"]

    def test_involution(self, catalog):
        for name, m in catalog.items():
            assert cf.dual(cf.dual(m)) == m, name

    def test_dual_rank_formula(self, small_catalog):
        for name, m in small_catalog.items():
            d = cf.dual(m)
            full = m.ground.full
            for a in range(1 << len(m.ground)):
                expect = popcount(a) - m.matroid_rank + m.rank(full & ~a)
                assert d.rank(a) == expect, name

    def test_loops_isthmuses_swap(self, catalog):
        m = catalog["u01+u11"]
        d = cf.dual(m)
        assert d.loops() == m.isthmuses()
        assert d.isthmuses() == m.loops()


class TestMinor:
    def test_spec_disjointness(self):
        with pytest.raises(cf.InvalidParameters):
            cf.MinorSpec(0b011, 0b110)

    def test_outside_ground(self, catalog):
        with pytest.raises(cf.InvalidParameters):
            cf.minor(catalog["u24"], cf.MinorSpec(1 << 5, 0))

    def test_uniform_delete(self, catalog):
        m = catalog["u25"]
        got = cf.restriction(m, m.ground.mask(["e1", "e2", "e3", "e4"]))
        assert cf.is_isomorphic(got, catalog["u24"])[0]

    def test_uniform_contract(self, catalog):
        m = catalog["u24"]
        got = cf.contraction(m, m.ground.mask(["e1"]))
        assert cf.is_isomorphic(got, catalog["u13"])[0]

    def test_minor_rank_oracle(self, small_catalog):
        # r'(A) = r(A u C) - r(C) over every (contract, delete) split
        for name, m in small_catalog.items():
            if len(m.ground) > 4:
                continue
            full = m.ground.full
            for c in range(1 << len(m.ground)):
                d = full & ~c  # extreme split: contract c, delete the rest
                got = cf.minor(m, cf.MinorSpec(c, 0))
                rc = m.rank(c)
                for a_small in range(1 << len(got.ground)):
                    a = got.ground  # expand back to parent indices
                    parent_mask = m.ground.mask(got.ground.names(a_small))
                    assert got.rank(a_small) == m.rank(parent_mask | c) - rc, name

    def test_minor_of_dual_is_dual_of_minor(self, small_catalog):
        # (M / C \ D)* = M* \ C / D
        for name, m in small_catalog.items():
            g = m.ground
            if len(g) < 2:
                continue
            c, d = 1, 2
            lhs = cf.dual(cf.minor(m, cf.MinorSpec(c, d)))
            rhs = cf.minor(cf.dual(m), cf.MinorSpec(d, c))
            assert lhs == rhs, name

    def test_mk4_contract_edge(self, catalog):
        m = catalog["mk4"]
        got = cf.contraction(m, m.ground.mask(["12"]))
        # contracting an edge of K4 leaves two parallel pairs joined at a vertex
        assert got.matroid_rank == 2
        assert len(got.ground) == 5

    def test_compose_into(self, catalog):
        m = catalog["u25"]
        outer = cf.MinorSpec(0, m.ground.mask(["e5"]))
        inner_m = cf.minor(m, outer)
        inner = cf.MinorSpec(inner_m.ground.mask(["e1"]), 0)
        merged = inner.compose_into(outer, m.ground, inner_m.ground)
        assert cf.minor(m, merged) == cf.minor(inner_m, inner)


class TestRelax:
    def test_mk4_triangle(self, catalog):
        m = catalog["mk4"]
        tri = m.ground.mask(["12", "13", "23"])
        got = cf.relax(m, tri)
        assert isinstance(got, cf.Matroid)
        assert len(got.flats) == len(m.flats) - 1
        assert got.is_independent(tri)
        assert not m.is_independent(tri)

    def test_not_a_flat(self, catalog):
        m = catalog["mk4"]
        with pytest.raises(cf.NotRelaxable):
            cf.relax(m, m.ground.mask(["12", "13"]))

    def test_bottom_and_top(self, catalog):
        m = catalog["mk4"]
        with pytest.raises(cf.NotRelaxable):
            cf.relax(m, m.bottom)
        with pytest.raises(cf.NotRelaxable):
            cf.relax(m, m.top)

    def test_comparable_middle_flat(self, catalog):
        m = catalog["gimenez1:id"]
        # the chains share bottom and top; A_1 contains the A_0 flat
        a1 = sorted(m.flats, key=popcount)[-2]
        inner = [f for f in m.flats
                 if f not in (m.bottom, m.top, a1) and f & ~a1 == 0]
        if inner:
            with pytest.raises(cf.NotRelaxable):
                cf.relax(m, a1)


class TestRelabel:
    def test_prefix(self, catalog):
        m = catalog["u24"]
        got = cf.relabel(m, "q:")
        assert got.ground.labels == ("q:e1", "q:e2", "q:e3", "q:e4")
        ok, witness = cf.is_isomorphic(m, got)
        assert ok
        apply_witness(m, got, witness)


class TestDirectSum:
    def test_rank_additive(self, catalog):
        m = catalog["u12+u12"]
        assert m.matroid_rank == 2
        assert len(m.flats) == 4

    def test_overlap_rejected(self, catalog):
        with pytest.raises(cf.OverlappingGroundSets):
            cf.direct_sum(catalog["u24"], catalog["u12"])

    def test_rank_splits_blockwise(self, small_catalog, catalog):
        a = catalog["u23"]
        b = cf.relabel(catalog["u12"], "r:")
        s = cf.direct_sum(a, b)
        na = len(a.ground)
        for mask in range(1 << len(s.ground)):
            x, y = mask & a.ground.full, mask >> na
            assert s.rank(mask) == a.rank(x) + b.rank(y)

    def test_circuits_are_union(self, catalog):
        a = catalog["u23"]
        b = cf.relabel(catalog["u12"], "r:")
        s = cf.direct_sum(a, b)
        expect = {frozenset(a.ground.names(c)) for c in a.circuits()}
        expect |= {frozenset(b.ground.names(c)) for c in b.circuits()}
        got = {frozenset(s.ground.names(c)) for c in s.circuits()}
        assert got == expect


class TestTruncate:
    def test_u24(self, catalog):
        t = cf.truncate(catalog["u24"])
        assert cf.is_isomorphic(t, cf.uniform(1, 4))[0]
        assert t.ground.labels == catalog["u24"].ground.labels

    def test_rank_formula(self, small_catalog):
        for name, m in small_catalog.items():
            if m.matroid_rank == 0:
                continue
            t = cf.truncate(m)
            k = m.matroid_rank - 1
            for a in range(1 << len(m.ground)):
                assert t.rank(a) == min(m.rank(a), k), name

    def test_rank_zero(self, catalog):
        with pytest.raises(cf.RankZero):
            cf.truncate(catalog["u03"])

    def test_mk4(self, catalog):
        t = cf.truncate(catalog["mk4"])
        assert t.matroid_rank == 2


class TestHiggsLift:
    def test_u12(self, catalog):
        assert cf.is_isomorphic(cf.higgs_lift(catalog["u12"]),
                                cf.uniform(2, 2))[0]

    def test_duality_identity(self, small_catalog):
        for name, m in small_catalog.items():
            if m.nullity == 0:
                continue
            lifted = cf.higgs_lift(m)
            assert lifted.matroid_rank == m.matroid_rank + 1, name
            assert cf.dual(lifted) == cf.truncate(cf.dual(m)), name

    def test_rank_formula(self, small_catalog):
        for name, m in small_catalog.items():
            if m.nullity == 0:
                continue
            lifted = cf.higgs_lift(m)
            for a in range(1 << len(m.ground)):
                assert lifted.rank(a) == min(m.rank(a) + 1, popcount(a)), name


class TestIsomorphism:
    def test_positive_with_witness(self, catalog):
        pairs = [("u24", "u24"), ("mk4", "mk4"), ("p2", "p2")]
        for a, b in pairs:
            m = catalog[a]
            n = cf.relabel(catalog[b], "z:")
            ok, witness = cf.is_isomorphic(m, n)
            assert ok
            apply_witness(m, n, witness)

    def test_negative_same_size(self, catalog):
        assert cf.is_isomorphic(catalog["u24"],
                                catalog["nested:ifif"]) == (False, None)
        assert cf.is_isomorphic(catalog["nested:if"],
                                catalog["nested:fi"]) == (False, None)

    def test_nested_fast_path(self, catalog):
        m = catalog["nested:ififif"]
        n = cf.relabel(m, "w:")
        ok, witness = cf.is_isomorphic(m, n)
        assert ok
        apply_witness(m, n, witness)

    def test_chain_vs_nonchain_same_profile(self):
        # equal multisets of (|F|, r(F)) but only one family is a chain
        chain = cf.Matroid.from_labels(
            "abcdef", [("", 0), ("abc", 2), ("abcdef", 4)])
        split = cf.Matroid.from_labels(
            "abcdef", [("", 0), ("abc", 2), ("def", 2), ("abcdef", 4)])
        assert cf.is_isomorphic(chain, split) == (False, None)

    def test_cap(self, catalog):
        g2 = catalog["gimenez2:id"]
        with pytest.raises(cf.TooLarge):
            cf.is_isomorphic(g2, catalog["gimenez2:swap"], max_elems=5)

    def test_gimenez_pair(self, catalog):
        # distinct permutations give non-isomorphic matroids whose
        # lattices of cyclic flats are nevertheless poset-isomorphic
        a, b = catalog["gimenez2:id"], catalog["gimenez2:swap"]
        assert cf.is_isomorphic(a, b, max_elems=13) == (False, None)
        assert cf.poset_isomorphic(a.flat_family(), b.flat_family())[0]
        ok, witness = cf.is_isomorphic(a, cf.relabel(a, "z:"), max_elems=13)
        assert ok
        apply_witness(a, cf.relabel(a, "z:"), witness)


class TestHasMinor:
    def test_u13_in_u24(self, catalog):
        found, spec = cf.has_minor(catalog["u24"], catalog["u13"])
        assert found
        got = cf.minor(catalog["u24"], spec)
        assert cf.is_isomorphic(got, catalog["u13"])[0]

    def test_no_u24_in_mk4(self, catalog):
        assert cf.has_minor(catalog["mk4"], catalog["u24"]) == (False, None)

    def test_self_minor(self, catalog):
        found, spec = cf.has_minor(catalog["u24"], catalog["u24"])
        assert found
        assert (spec.contract, spec.delete) == (0, 0)

    def test_too_big_pattern(self, catalog):
        assert cf.has_minor(catalog["u13"], catalog["u24"]) == (False, None)

    def test_witness_is_canonical_least(self, catalog):
        found, spec = cf.has_minor(catalog["u25"], catalog["u24"])
        assert found
        # deleting e1 is the canonically least witness
        assert spec.contract == 0
        assert spec.delete == catalog["u25"].ground.mask(["e1"])

    def test_cap(self, catalog):
        with pytest.raises(cf.TooLarge):
            cf.has_minor(catalog["p4"], catalog["u24"], max_elems=4)

    def test_witness_matches_sort_everything_order(self, small_catalog):
        hosts = [m for m in small_catalog.values() if len(m.ground) <= 5]
        patterns = [small_catalog[k] for k in ("u01", "u11", "u12", "u23",
                                               "u24", "u12+u12")]
        checked = 0
        for m in hosts:
            for n in patterns:
                assert cf.has_minor(m, n) == _has_minor_sorted(m, n)
                checked += 1
        assert checked > 50

    def test_first_candidate_is_the_only_minor_built(self, monkeypatch):
        built = []

        def counting_minor(m, spec, *args, **kwargs):
            built.append(spec)
            return cf.minor(m, spec, *args, **kwargs)

        monkeypatch.setattr(ops, "minor", counting_minor)
        found, spec = cf.has_minor(cf.uniform(2, 12), cf.uniform(2, 4))
        assert found
        assert spec == cf.MinorSpec(0, 0b11111111)
        assert built == [spec]


def _has_minor_sorted(m, n):
    """Reference: build every (contract, delete) spec with |C u D| =
    |E(m)| - |E(n)|, sort them canonically, return the first witness."""
    size_m, size_n = len(m.ground), len(n.ground)
    if size_n > size_m or n.matroid_rank > m.matroid_rank \
            or n.nullity > m.nullity:
        return False, None
    specs = []
    for removed_idx in combinations(range(size_m), size_m - size_n):
        removed = sum(1 << i for i in removed_idx)
        for c in range(removed + 1):
            if c & ~removed == 0:
                d = removed & ~c
                specs.append((subset_key(c), subset_key(d), c, d))
    for _, _, c, d in sorted(specs):
        spec = cf.MinorSpec(c, d)
        if cf.is_isomorphic(cf.minor(m, spec), n)[0]:
            return True, spec
    return False, None
