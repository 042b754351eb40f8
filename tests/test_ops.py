import functools
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import cycflats as cf
from conftest import rank_support_scan, reordered, same_matroid, summands
from cycflats import ops
from cycflats.groundsets import bits, class_profile, popcount, subset_key
from cycflats.matroid import ENUM_CAP, _assemble, _product
from cycflats.ops import MINOR_SEARCH_CAP


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
        for contract, delete in ((0b011, 0b110), (1, 1)):
            with pytest.raises(cf.InvalidParameters):
                cf.MinorSpec(contract, delete)
        with pytest.raises(cf.InvalidParameters):
            cf.MinorSpec(1, 2)._replace(delete=1)
        assert repr(cf.MinorSpec(1, 2)) == "MinorSpec(contract=1, delete=2)"

    def test_spec_masks_are_ints(self):
        # a mask is an int: a float has no &, and True would read as
        # the mask of element 0
        for contract, delete in ((1.5, 0), (True, 0), (0, False),
                                 (0, None), ("1", 0)):
            with pytest.raises(cf.InvalidParameters,
                               match="mask .* is not an integer$"):
                cf.MinorSpec(contract, delete)
        with pytest.raises(cf.InvalidParameters):
            cf.MinorSpec(1, 2)._replace(delete=2.0)

    def test_outside_ground(self, catalog):
        with pytest.raises(cf.InvalidParameters):
            cf.minor(catalog["u24"], cf.MinorSpec(1 << 5, 0))

    def test_restriction_outside_ground(self, catalog):
        m = catalog["u24"]
        for keep in (1 << 4, -1, m.ground.full | 1 << 7):
            with pytest.raises(cf.InvalidParameters):
                cf.restriction(m, keep)

    def test_restriction_non_integer_mask(self, catalog):
        # refused as contraction refuses them, through MinorSpec
        for keep in (1.5, True, None, "1"):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.restriction(catalog["u24"], keep)

    def test_uniform_delete(self, catalog):
        m = catalog["u25"]
        got = cf.restriction(m, m.ground.mask(["e1", "e2", "e3", "e4"]))
        assert cf.is_isomorphic(got, catalog["u24"])[0]

    def test_uniform_contract(self, catalog):
        m = catalog["u24"]
        got = cf.contraction(m, m.ground.mask(["e1"]))
        assert cf.is_isomorphic(got, catalog["u13"])[0]

    def test_minor_rank_oracle(self, small_catalog):
        # every (contract, delete) split of the small catalog members
        checked = 0
        for name, m in small_catalog.items():
            n = len(m.ground)
            if n > 4:
                continue
            for split in product(range(3), repeat=n):
                c = sum(1 << i for i, s in enumerate(split) if s == 1)
                d = sum(1 << i for i, s in enumerate(split) if s == 2)
                _check_minor(m, c, d, name)
                checked += 1
        # and a seeded sample of larger matroids, split at random
        rng = random.Random(6)
        hosts = [cf.random_matroid(random.Random(s)) for s in range(60)]
        hosts += [cf.random_cw2_matroid(random.Random(s)) for s in range(30)]
        hosts += [cf.realize_lattice(lat).matroid
                  for lat in cf.all_lattices(5)]
        for m in hosts:
            for _ in range(4):
                c = d = 0
                for i in range(len(m.ground)):
                    t = rng.randrange(4)
                    c |= (t == 1) << i
                    d |= (t == 2) << i
                _check_minor(m, c, d, repr(m))
                checked += 1
        assert checked > 1000

    def test_truncate_past_enumeration_cap(self):
        assert cf.truncate(cf.uniform(3, 30)) == cf.uniform(2, 30)

    def test_deletion_past_enumeration_cap(self):
        m = cf.gimenez_family(5, [2, 4, 1, 5, 3])
        assert len(m.ground) == 25 > ENUM_CAP
        d = m.ground.mask(["x1"])
        got = cf.minor(m, cf.MinorSpec(0, d))
        rng = random.Random(25)
        for _ in range(300):
            a = rng.getrandbits(len(got.ground))
            parent_mask = m.ground.mask(got.ground.names(a))
            assert got.rank(a) == m.rank(parent_mask)

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
        merged = compose_into(inner, outer, m.ground, inner_m.ground)
        assert cf.minor(m, merged) == cf.minor(inner_m, inner)


def _records():
    """One value of each frozen record type, built afresh per call."""
    mk4 = cf.catalog("mk4")
    with pytest.raises(cf.NotAMatroid) as info:
        cf.validate(cf.RankedFamily.from_labels(
            "abcde", [("", 0), ("abc", 1), ("cde", 1), ("abcde", 2)]))
    lat = cf.lattice_from_covers(["0", "x", "1"], [("0", "x"), ("x", "1")])
    return [info.value.violation, cf.rank_gen(mk4), cf.realize_lattice(lat),
            cf.uniform_minor_from_chain(cf.nested_from_sequence("fififif"), 2),
            cf.MinorSpec(1, 2)]


class TestRecords:
    @pytest.mark.parametrize("i, field", enumerate(
        ["which", "coeffs", "matroid", "raw", "contract"]))
    def test_frozen_and_equal_by_value(self, i, field):
        a, b = _records()[i], _records()[i]
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        assert a == b

    def test_violation_text(self):
        v = _records()[0]
        assert v.which == "Z3"
        assert str(v).startswith("Z3 violated: ")


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

    def test_non_integer_flat(self):
        for f in (3.0, True, None, "1"):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.relax(cf.excluded_minor_pn(2), f)

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
        # relabel keeps every mask, so it agrees with validating m's
        # family on the new ground set, on the whole catalog
        for m in catalog.values():
            got = cf.relabel(m, "q:")
            same_matroid(got, cf.validate(cf.RankedFamily(
                got.ground, zip(m.flats, m.flat_ranks))))


def _validated_sum(m, n):
    """Oracle for direct_sum: validate on the product family."""
    shift = len(m.ground)
    return cf.validate(cf.RankedFamily(
        m.ground.concat(n.ground),
        [(x | (y << shift), rx + ry)
         for x, rx in zip(m.flats, m.flat_ranks)
         for y, ry in zip(n.flats, n.flat_ranks)]))


class TestDirectSum:
    def test_matches_validate(self):
        # every pair of fixed summands, each fixed summand on either side
        # of 8 random ones, and 40 seeded random pairs
        fixed, rand = summands()
        rng = random.Random(0)
        pairs = list(product(fixed, repeat=2))
        pairs += [(f, r) for f in fixed for r in rand[:8]]
        pairs += [(r, f) for f in fixed for r in rand[8:16]]
        pairs += [tuple(rng.sample(rand, 2)) for _ in range(40)]
        for m, n in pairs:
            m, n = cf.relabel(m, "a:"), cf.relabel(n, "b:")
            same_matroid(cf.direct_sum(m, n), _validated_sum(m, n))

    def test_three_mk4_without_validate(self, catalog, validate_calls):
        # the sum is read off its summands' factors: no validate at all
        parts = [cf.relabel(catalog["mk4"], p) for p in "abc"]
        s = cf.direct_sum(cf.direct_sum(parts[0], parts[1]), parts[2])
        assert validate_calls == []
        assert len(s.flats) == 216 and len(s.factors) == 3
        same_matroid(s, _validated_sum(
            _validated_sum(parts[0], parts[1]), parts[2]))

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


def _truncate_by_extension(m):
    """Reference truncation: free extension by a fresh element, then
    contract it."""
    ext = cf.free_extension(m)
    return cf.contraction(ext, 1 << len(m.ground))


def _differential_matroids(catalog):
    """The catalog and 100 seeds each of the two random generators."""
    yield from catalog.items()
    for seed in range(100):
        yield f"random:{seed}", cf.random_matroid(random.Random(seed))
        yield f"cw2:{seed}", cf.random_cw2_matroid(random.Random(seed))


class TestTruncate:
    def test_matches_extension_then_contraction(self, catalog):
        for name, m in _differential_matroids(catalog):
            if m.matroid_rank >= 1:
                assert cf.truncate(m) == _truncate_by_extension(m), name

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
    def test_matches_dual_truncate_dual(self, catalog):
        for name, m in _differential_matroids(catalog):
            if m.nullity >= 1:
                ref = cf.dual(_truncate_by_extension(cf.dual(m)))
                assert cf.higgs_lift(m) == ref, name

    def test_full_rank(self, catalog):
        for name in ("empty", "u11", "u33"):
            with pytest.raises(cf.RankZero, match="lift"):
                cf.higgs_lift(catalog[name])

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

    def test_ranks_tell_same_size_flats_apart(self):
        # the two 3-element flats differ only in rank
        m = cf.direct_sum(cf.uniform(1, 3, ["a1", "a2", "a3"]),
                          cf.uniform(2, 3, ["b1", "b2", "b3"]))
        n = cf.direct_sum(cf.uniform(2, 3, ["c1", "c2", "c3"]),
                          cf.uniform(1, 3, ["d1", "d2", "d3"]))
        ok, witness = cf.is_isomorphic(m, n)
        assert ok
        apply_witness(m, n, witness)

    def test_gimenez_pair(self, catalog):
        # distinct permutations give non-isomorphic matroids whose
        # lattices of cyclic flats are nevertheless poset-isomorphic
        a, b = catalog["gimenez2:id"], catalog["gimenez2:swap"]
        assert cf.is_isomorphic(a, b) == (False, None)
        assert cf.poset_isomorphic(a.flats, b.flats)[0]
        ok, witness = cf.is_isomorphic(a, cf.relabel(a, "z:"))
        assert ok
        apply_witness(a, cf.relabel(a, "z:"), witness)

    def test_two_mk4_and_gimenez_pair(self):
        # 25 elements and 288 flats: the lattices are isomorphic, the class
        # sizes are not
        k4 = cf.catalog("mk4")

        def host(n, sigma):
            return cf.direct_sum(
                cf.direct_sum(cf.relabel(k4, "a"), cf.relabel(k4, "b")),
                cf.relabel(cf.gimenez_family(n, sigma), "g"))

        assert cf.is_isomorphic(host(2, [1, 2]),
                                host(2, [2, 1])) == (False, None)
        # 27 elements, 360 flats, equal multisets of (|U|, class size):
        # only the classes' places in the lattice tell them apart
        assert cf.is_isomorphic(host(3, [2, 3, 1]),
                                host(3, [3, 1, 2])) == (False, None)

    def test_sparse_paving_rank_4_pair(self):
        # eight circuit-hyperplanes each; every node of either poset has
        # one refined signature, so the search decides it
        def paving(quads):
            return cf.Matroid.from_labels("01234567", [("", 0)] + [
                (q, 3) for q in quads.split()] + [("01234567", 4)])

        m = paving("0147 0156 0257 0346 1237 1246 2345 3567")
        n = paving("0167 0257 0347 0456 1237 1256 1346 2345")
        assert cf.is_isomorphic(m, n) == (False, None)

    def test_sparse_paving_pair_refines_few_times(self, refine_calls):
        # the pair above: individualizing a node and refining again
        # decides each branch, so the search refines a handful of times
        def paving(quads):
            return cf.Matroid.from_labels("01234567", [("", 0)] + [
                (q, 3) for q in quads.split()] + [("01234567", 4)])

        m = paving("0147 0156 0257 0346 1237 1246 2345 3567")
        n = paving("0167 0257 0347 0456 1237 1256 1346 2345")
        assert cf.is_isomorphic(m, n) == (False, None)
        assert 0 < len(refine_calls) <= 20

    def test_past_former_element_cap(self):
        # 18 elements and 216 flats; 29 elements
        k4 = cf.catalog("mk4")
        three_k4 = cf.direct_sum(cf.direct_sum(cf.relabel(k4, "a"),
                                               cf.relabel(k4, "b")),
                                 cf.relabel(k4, "c"))
        g6 = cf.gimenez_family(6, [3, 1, 6, 2, 5, 4])
        for m in (three_k4, g6):
            n = shuffled(m, random.Random(len(m.ground)))
            ok, witness = cf.is_isomorphic(m, n)
            assert ok
            apply_witness(m, n, witness)

    def test_gimenez_17_elements_against_shuffled_copies(self):
        members = [cf.gimenez_family(3, sigma)
                   for sigma in permutations(range(1, 4))]
        rng = random.Random(17)
        for i, m in enumerate(members):
            for j, other in enumerate(members):
                n = shuffled(other, rng)
                ok, witness = cf.is_isomorphic(m, n)
                assert ok == (i == j)
                if ok:
                    apply_witness(m, n, witness)
                else:
                    assert witness is None

    def test_loops_and_isthmuses_keep_their_class(self):
        # two loops (in every cyclic flat) and two isthmuses (in none):
        # classes of one size that only their places in the poset tell
        # apart
        m = cf.direct_sum(cf.direct_sum(cf.uniform(0, 2, ["l1", "l2"]),
                                        cf.uniform(1, 3, ["p1", "p2", "p3"])),
                          cf.uniform(2, 2, ["t1", "t2"]))
        assert popcount(m.loops()) == popcount(m.isthmuses()) == 2
        for seed in range(6):
            n = shuffled(m, random.Random(seed))
            ok, witness = cf.is_isomorphic(m, n)
            assert ok
            apply_witness(m, n, witness)
            def image(mask):
                return {witness[x] for x in m.ground.names(mask)}
            assert image(m.loops()) == set(n.ground.names(n.loops()))
            assert image(m.isthmuses()) == set(n.ground.names(n.isthmuses()))


KINDS = ("random", "cw2", "plain", "sublattice")


def sample_matroid(kind, seed):
    """A seeded matroid: from a random generator, or realizing one of the
    lattices with at most 5 elements."""
    if kind == "random":
        return cf.random_matroid(random.Random(seed))
    if kind == "cw2":
        return cf.random_cw2_matroid(random.Random(seed))
    lattices = _lattices()
    return cf.realize_lattice(lattices[seed % len(lattices)], kind).matroid


@functools.cache
def _lattices():
    return cf.all_lattices(5)


@functools.cache
def equal_invariant_pairs():
    """Pairs of sampled matroids and Gimenez members (whose lattices are
    isomorphic) with equal size, rank and flat count."""
    pool = [sample_matroid(kind, seed)
            for kind, seeds in (("random", 150), ("cw2", 30),
                                ("plain", 10), ("sublattice", 10))
            for seed in range(seeds)]
    pool += [cf.gimenez_family(n, sigma) for n in (1, 2, 3)
             for sigma in permutations(range(1, n + 1))]
    return [(a, b) for a, b in combinations(pool, 2)
            if (len(a.ground), a.matroid_rank, len(a.flats))
            == (len(b.ground), b.matroid_rank, len(b.flats))]


def shuffled(m, rng):
    """m on a fresh, randomly ordered ground set: x becomes "s:x"."""
    order = list(bits(m.ground.full))
    rng.shuffle(order)
    ground = cf.GroundSet("s:" + m.ground.labels[i] for i in order)
    entries = [(sum(1 << p for p, i in enumerate(order) if (f >> i) & 1), r)
               for f, r in zip(m.flats, m.flat_ranks)]
    return cf.validate(cf.RankedFamily(ground, entries))


class TestIsomorphismProperties:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10**6),
           perm_seed=st.integers(0, 2**32 - 1))
    def test_shuffled_copy_is_isomorphic(self, kind, seed, perm_seed):
        m = sample_matroid(kind, seed)
        n = shuffled(m, random.Random(perm_seed))
        ok, witness = cf.is_isomorphic(m, n)
        assert ok
        apply_witness(m, n, witness)

    def test_agrees_with_class_backtracking(self):
        pairs = equal_invariant_pairs()
        assert len(pairs) > 300
        rng = random.Random(2)
        for m, n in pairs:
            n = shuffled(n, rng)
            got = cf.is_isomorphic(m, n)
            assert got[0] == _iso_backtrack(m, n)[0]
            if got[0]:
                apply_witness(m, n, got[1])
            else:
                assert got[1] is None


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
        # the cap counts class-count profile pairs, not host elements
        assert MINOR_SEARCH_CAP == 131_072
        found, spec = cf.has_minor(cf.uniform(2, 13), catalog["u24"])
        assert found  # one class: 10 profile pairs
        assert spec == cf.MinorSpec(0, 0b111111111)
        host = functools.reduce(cf.direct_sum, [
            cf.uniform(1, 2, [f"a{i}", f"b{i}"]) for i in range(10)])
        with pytest.raises(cf.TooLarge) as err:
            cf.has_minor(host, cf.uniform(1, 2))
        assert "visit 1377810 (contract, delete) class-count profile " \
            "pairs" in str(err.value)
        assert "cap 131072 (MINOR_SEARCH_CAP)" in str(err.value)
        assert "nested_sequence_of and nested_subsequence_minor" \
            in str(err.value)

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

    def test_loop_and_coloop_counts_before_building(self):
        # has_minor's counts from two rank_support calls on the host
        rng = random.Random(4)
        checked = 0
        for seed in range(200):
            m = cf.random_matroid(random.Random(seed))
            full = m.ground.full
            for _ in range(10):
                c = rng.getrandbits(len(m.ground)) & full
                d = rng.getrandbits(len(m.ground)) & full & ~c
                cl_c = c | m.rank_support(c)[2]
                inter = m.rank_support(full & ~d)[1]
                got = cf.minor(m, cf.MinorSpec(c, d))
                assert popcount(cl_c & ~(c | d)) == popcount(got.loops())
                assert popcount(full & ~(d | inter | c)) \
                    == popcount(got.isthmuses())
                checked += 1
        assert checked == 2000

    def test_matches_sort_everything_order_on_larger_hosts(self):
        patterns = [cf.uniform(1, 2), cf.uniform(2, 4), cf.uniform(1, 3),
                    cf.excluded_minor_pn(2), cf.nested_from_sequence("ifif")]
        found = 0
        for seed in range(20):
            host = cf.random_cw2_matroid(random.Random(seed), max_elems=7)
            for n in patterns:
                got = cf.has_minor(host, n)
                assert got == _has_minor_sorted(host, n)
                found += got[0]
        rng = random.Random(8)
        for _ in range(20):
            seq = "".join(rng.choice("if") for _ in range(8))
            keep = sorted(rng.sample(range(8), rng.randint(3, 4)))
            host = cf.nested_from_sequence(seq)
            pattern = cf.nested_from_sequence("".join(seq[i] for i in keep))
            got = cf.has_minor(host, pattern)
            assert got[0] and got == _has_minor_sorted(host, pattern)
            p2 = cf.excluded_minor_pn(2)
            assert cf.has_minor(host, p2) == (False, None) \
                == _has_minor_sorted(host, p2)
            found += 1
        assert 20 < found < 120

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

    def test_absent_p2_builds_no_minor(self, monkeypatch):
        # a minor of a nested matroid is nested, so its chain of cyclic
        # flats never has P_2's two flats of size 2: has_minor answers
        # from the widths, and in the search itself every candidate
        # fails on its flat profile.  minor is the one derivation of a
        # minor's cyclic flats: every _factor_minor_flats call happens
        # inside a minor call, also for the candidates that fail
        inside, outside = [0], []

        def counting_minor(m, spec):
            inside[0] += 1
            try:
                return cf.minor(m, spec)
            finally:
                inside[0] -= 1

        factor_minor_flats = ops._factor_minor_flats

        def watched(pairs, c, d):
            outside.append(not inside[0])
            return factor_minor_flats(pairs, c, d)

        monkeypatch.setattr(ops, "minor", counting_minor)
        monkeypatch.setattr(ops, "_factor_minor_flats", watched)
        rng = random.Random(15)
        p2 = cf.excluded_minor_pn(2)
        for _ in range(20):
            seq = "".join(rng.choice("if") for _ in range(8))
            host = cf.nested_from_sequence(seq)
            assert cf.has_minor(host, p2) == (False, None) \
                == ops._minor_search(host, p2)
        # five candidates fail the flat profile before the witness
        assert cf.has_minor(cf.nested_from_sequence("ififiif"),
                            cf.nested_from_sequence("iiff")) \
            == (True, cf.MinorSpec(48, 1))
        assert outside and not any(outside)


class TestOrbitSearch:
    """has_minor visits one (C, D) per pair of class-count profiles;
    _has_minor_pairwise, which visits every pair, is the oracle."""

    PATTERNS = [cf.excluded_minor_pn(2), cf.uniform(2, 4), cf.uniform(1, 3),
                cf.uniform(0, 1), cf.uniform(1, 1),
                cf.nested_from_sequence("ifif"),
                cf.nested_from_sequence("iff")]

    @staticmethod
    def _hosts(small_catalog):
        hosts = list(small_catalog.values())
        hosts += [cf.random_matroid(random.Random(seed), 10)
                  for seed in range(40)]
        hosts += [cf.random_cw2_matroid(random.Random(seed), max_elems=8)
                  for seed in range(30)]
        rng = random.Random("orbit-hosts")
        hosts += [cf.nested_from_sequence(
                      "".join(rng.choice("if") for _ in range(steps)))
                  for steps in range(4, 11) for _ in range(3)]
        hosts += [cf.nested_from_sequence("ififififfiif"), cf.uniform(6, 12)]
        return hosts

    def test_matches_pairwise(self, small_catalog):
        checked = found = 0
        for m in self._hosts(small_catalog):
            assert len(m.ground) <= 12
            for n in self.PATTERNS:
                got = cf.has_minor(m, n)
                assert got == _has_minor_pairwise(m, n), (m, n)
                checked += 1
                found += got[0]
        assert checked > 800 and 200 < found < checked - 200

    @pytest.mark.parametrize("seq, pairs, c_sets, d_sets",
                             [(None, 9, 9, 5),
                              ("ififififfiif", 4_317, 379, 3_180)],
                             ids=["None-9", "ififififfiif-4317"])
    def test_visited_pairs(self, seq, pairs, c_sets, d_sets, monkeypatch):
        # the walks give pairs orbit-minimal pairs over every C; the search
        # lists no D for a hopeless C, so it lists fewer D sets than that
        # (has_minor answers these calls by cyclic width, with no walk)
        host = cf.uniform(6, 12) if seq is None \
            else cf.nested_from_sequence(seq)
        pattern = cf.excluded_minor_pn(2)
        classes, _ = class_profile(host.flats, host.ground.full)
        removed = len(host.ground) - len(pattern.ground)
        contract = [(size, c) for size in range(removed + 1)
                    for c in ops._orbit_sets(classes, 0, size)]
        assert len(contract) == len(set(contract)) == c_sets
        visited = [(c, d) for size, c in contract
                   for d in ops._orbit_sets(classes, c, removed - size)]
        assert len(visited) == len(set(visited)) == pairs
        listed = []
        orbit_sets = ops._orbit_sets

        def counting(classes, avoid, size):
            sets = orbit_sets(classes, avoid, size)
            listed.extend(sets)
            return sets

        monkeypatch.setattr(ops, "_orbit_sets", counting)
        assert ops._minor_search(host, pattern) == (False, None)
        assert len(listed) == c_sets + d_sets

    @pytest.mark.parametrize("size", [1_000, 3_000])
    def test_one_class_past_the_recursion_limit(self, size):
        # U_{2,n} is one class: the first C is empty and its first D the
        # lowest n - 4 elements, a walk longer than the recursion limit
        got = cf.has_minor(cf.uniform(2, size), cf.uniform(2, 4))
        assert got == (True, cf.MinorSpec(0, (1 << size - 4) - 1))

    def test_hopeless_contract_sets_skip_rank_support(self, monkeypatch):
        # of the 4,317 pairs over 379 sets C, the 1,137 pairs of a C with
        # r(C) > r(M) - r(P_2) or |C| - r(C) > n(M) - n(P_2) make no
        # rank_support call on E - D; one call per C, one per other pair
        # (minor reads the factors' pairs, not rank_support)
        host = cf.nested_from_sequence("ififififfiif")
        calls = []
        rank_support = cf.Matroid.rank_support

        def counting(self, a):
            calls.append(a)
            return rank_support(self, a)

        monkeypatch.setattr(cf.Matroid, "rank_support", counting)
        assert ops._minor_search(host, cf.excluded_minor_pn(2)) \
            == (False, None)
        assert len(calls) == 379 + 4_317 - 1_137

    def test_orbit_pairs_are_the_orbit_minimal_pairs(self):
        # the C sets of each size, then the D sets of each C, are every
        # (C, D) that is a prefix of each class, and of each class minus
        # C, in canonical order, counted by _profile_pairs
        hosts = [cf.random_matroid(random.Random(seed), 8)
                 for seed in range(30)]
        hosts += [cf.nested_from_sequence("iiffifffi"), cf.uniform(3, 7),
                  cf.excluded_minor_pn(3), cf.catalog("mk4")]
        for m in hosts:
            classes, _ = class_profile(m.flats, m.ground.full)
            size = len(m.ground)

            def prefix(x, k):
                low = list(bits(k))[:popcount(k & x)]
                return x & k == sum(1 << i for i in low)

            for removed in range(size + 1):
                want = [(c, d) for c, d in _pairs_in_order(size, removed)
                        if all(prefix(c, k) and prefix(d, k & ~c)
                               for k in classes)]
                got = [(c, d) for c_size in range(removed + 1)
                       for c in ops._orbit_sets(classes, 0, c_size)
                       for d in ops._orbit_sets(classes, c,
                                                removed - c_size)]
                assert got == want
                assert len(got) == ops._profile_pairs(
                    [popcount(k) for k in classes], removed)

    def test_cap_takes_every_host_of_twelve(self):
        # the pair count of any class sizes summing to 12 is at most
        # C(12, 8) 2^8, reached by twelve classes of one
        def partitions(n, most):
            if n == 0:
                yield []
            for k in range(min(n, most), 0, -1):
                for rest in partitions(n - k, k):
                    yield [k] + rest

        counts = [ops._profile_pairs(sizes, removed)
                  for sizes in partitions(12, 12) for removed in range(13)]
        assert max(counts) == 126_720 <= MINOR_SEARCH_CAP

    def test_nested_hosts_past_twelve(self):
        rng = random.Random("reach")
        found = 0
        for _ in range(10):
            size = rng.randint(16, 20)
            seq = "".join(rng.choice("if") for _ in range(size))
            host = cf.nested_from_sequence(seq)
            for want in (True, False):
                while True:
                    k = rng.randint(size - 6, size - 2)
                    pat = ("".join(seq[i] for i in sorted(
                               rng.sample(range(size), k))) if want
                           else "".join(rng.choice("if") for _ in range(k)))
                    if cf.nested_subsequence_minor(pat, seq)[0] == want:
                        break
                pattern = cf.nested_from_sequence(pat)
                got, spec = cf.has_minor(host, pattern)
                assert got == want, (seq, pat)
                if got:
                    assert cf.is_isomorphic(cf.minor(host, spec), pattern)[0]
                found += got
        assert found == 10


class TestMinorGate:
    """has_minor answers "no" from |Z| and the cyclic width, which never
    rise under a minor, before any search."""

    @staticmethod
    def _decided(small_catalog):
        # the (host, pattern) pairs that pass the size, rank and nullity
        # checks and that the |Z| or width check then answers
        rng = random.Random("gate-hosts")
        hosts = [cf.nested_from_sequence(
                     "".join(rng.choice("if") for _ in range(steps)))
                 for steps in range(4, 9) for _ in range(steps)]
        # nested hosts of width 1 with at least as many cyclic flats as P_n
        chains = [cf.nested_from_sequence("".join(seq))
                  for seq in product("if", repeat=8)]
        hosts += rng.sample([m for m in chains if len(m.flats) >= 4], 8)
        hosts += [cf.random_matroid(random.Random(seed), 8)
                  for seed in range(15)]
        hosts += [cf.random_cw2_matroid(random.Random(seed), max_elems=8)
                  for seed in range(10)]
        patterns = [cf.excluded_minor_pn(2), cf.excluded_minor_pn(3)]
        patterns += [small_catalog[k] for k in ("u12+u12", "u24+u12", "mk4",
                                                "nested:ififif")]
        for m in hosts:
            for n in patterns:
                if len(n.ground) > len(m.ground) \
                        or n.matroid_rank > m.matroid_rank \
                        or n.nullity > m.nullity:
                    continue
                width = cf.cyclic_width(n)
                if len(n.flats) > len(m.flats) \
                        or 2 <= width > cf.cyclic_width(m):
                    yield m, n

    def test_decided_pairs_match_the_oracles(self, small_catalog):
        by_count = by_width = 0
        for m, n in self._decided(small_catalog):
            assert cf.has_minor(m, n) == (False, None) \
                == _has_minor_pairwise(m, n) == _has_minor_sorted(m, n)
            if len(n.flats) > len(m.flats):
                by_count += 1
            else:
                by_width += 1
        assert by_count > 100 and by_width > 30

    def test_decided_pairs_make_no_search(self, small_catalog,
                                          monkeypatch):
        calls = []
        rank_support, orbit_sets = cf.Matroid.rank_support, ops._orbit_sets

        def counting_rank_support(self, a):
            calls.append("rank_support")
            return rank_support(self, a)

        def counting_orbit_sets(classes, avoid, size):
            calls.append("_orbit_sets")
            return orbit_sets(classes, avoid, size)

        decided = list(self._decided(small_catalog))
        monkeypatch.setattr(cf.Matroid, "rank_support", counting_rank_support)
        monkeypatch.setattr(ops, "_orbit_sets", counting_orbit_sets)
        for m, n in decided:
            assert cf.has_minor(m, n) == (False, None)
        host = cf.nested_from_sequence("iiff" * 5)
        assert cf.has_minor(host, cf.excluded_minor_pn(2)) == (False, None)
        assert calls == []
        # the walk, called directly, does search these pairs
        assert ops._minor_search(*decided[0]) == (False, None)
        assert "_orbit_sets" in calls

    def test_cap_runs_before_the_width_check(self):
        # "if" * 9 has width 1 under P_2's 2, and 10 cyclic flats over its
        # 4, yet the cap refuses it first: a call the cap refuses pays for
        # no width computation
        host = cf.nested_from_sequence("if" * 9)
        with pytest.raises(cf.TooLarge) as err:
            cf.has_minor(host, cf.excluded_minor_pn(2))
        assert "visit 1303452 (contract, delete)" in str(err.value)


class TestMinorFlats:
    """The cyclic flats of the minor that minor builds, against
    _minor_flats_full, the rule on the whole family of the host; that
    minor's rank oracle is checked against the host's on every subset."""

    @staticmethod
    def _by_labels(ground, flats):
        return {frozenset(ground.names(x)): r for x, r in flats.items()}

    @classmethod
    def _agree(cls, m, c, d):
        """minor's cyclic flats and _minor_flats_full's, by label."""
        got = cf.minor(m, cf.MinorSpec(c, d))
        return cls._by_labels(got.ground, dict(zip(
            got.flats, got.flat_ranks))) == cls._by_labels(
                m.ground, _minor_flats_full(m, c, d))

    @staticmethod
    def _host(kind, seed):
        """A random or cw2 matroid, or a direct sum of two to four
        pieces (those two, a loop, an isthmus), some of them dualised."""
        if kind == "random":
            return cf.random_matroid(random.Random(seed))
        if kind == "cw2":
            return cf.random_cw2_matroid(random.Random(seed), max_elems=8)
        rng = random.Random(f"minor-flats:sum:{seed}")
        pieces = [cf.random_matroid(random.Random(seed), 6),
                  cf.random_cw2_matroid(random.Random(seed), 5),
                  cf.uniform(0, 1), cf.uniform(1, 1)]
        rng.shuffle(pieces)
        m = None
        for j, piece in enumerate(pieces[:rng.randint(2, 4)]):
            piece = cf.relabel(piece if rng.random() < 0.7
                               else cf.dual(piece), f"{j}:")
            m = piece if m is None else cf.direct_sum(m, piece)
        return m

    @pytest.mark.parametrize("kind", ["random", "cw2", "product"])
    def test_matches_minor(self, kind):
        rng = random.Random(f"minor-flats:{kind}")
        checked = 0
        for seed in range(60):
            m = self._host(kind, seed)
            n = len(m.ground)
            for _ in range(8):
                c = rng.getrandbits(n) & m.ground.full
                d = rng.getrandbits(n) & m.ground.full & ~c
                assert self._agree(m, c, d)
                _check_minor(m, c, d, f"{kind} seed {seed}")
                checked += 1
        assert checked == 480

    @pytest.mark.parametrize("kind", ["random", "cw2", "product"])
    def test_minor_packs_like_the_bit_loop(self, kind):
        # minor moves each kept flat to the minor's ground set one run of
        # kept bits at a time; moving it one bit at a time gives the same
        rng = random.Random(f"minor-flats:pack:{kind}")
        for seed in range(60):
            m = self._host(kind, seed)
            n = len(m.ground)
            for _ in range(8):
                c = rng.getrandbits(n) & m.ground.full
                d = rng.getrandbits(n) & m.ground.full & ~c
                kept = list(bits(m.ground.full & ~(c | d)))
                entries = []
                for x, r in _minor_flats_full(m, c, d).items():
                    y = 0
                    for j, i in enumerate(kept):
                        y |= ((x >> i) & 1) << j
                    entries.append((y, r))
                want = cf.validate(cf.RankedFamily(
                    cf.GroundSet(m.ground.labels[i] for i in kept), entries))
                got = cf.minor(m, cf.MinorSpec(c, d))
                assert (got.ground, got.flats, got.flat_ranks) \
                    == (want.ground, want.flats, want.flat_ranks)

    def test_flats_avoiding_d_match_full_rule(self):
        # a flat avoiding D skips the cyclic test, and with C empty every
        # rank computation; a factor that C u D misses keeps its flats;
        # _minor_flats_full tests every flat of the whole family
        rng = random.Random("minor-flats:untouched")
        checked = untouched = contract_free = factor_kept = 0
        for seed in range(210):
            m = (self._host("product", seed) if seed >= 150
                 else cf.random_matroid(random.Random(seed)) if seed % 2
                 else cf.random_cw2_matroid(random.Random(seed), max_elems=9))
            full, n = m.ground.full, len(m.ground)
            for _ in range(20):
                c = 0 if rng.random() < 0.5 else \
                    rng.getrandbits(n) & rng.getrandbits(n) & full
                d = rng.getrandbits(n) & rng.getrandbits(n) & full & ~c
                assert self._agree(m, c, d)
                checked += 1
                if any(f and not f & d for f in m.flats):
                    untouched += 1
                    contract_free += not c
                factor_kept += seed >= 150 and any(
                    not e & (c | d) for e, _ in m.factors)
        assert checked == 4200
        assert untouched > 1500 and contract_free > 700 and factor_kept > 200

    def test_deletion_scans_each_flat_once(self, monkeypatch):
        # with C empty, a Y meeting D takes one _support call, whose
        # intersection is the isthmus test and whose union the closure
        # test; a Y avoiding D takes none, and a factor D misses none
        rng = random.Random("minor-flats:scans")
        calls = []
        support = ops._support

        def counting(pairs, a):
            calls.append(a)
            return support(pairs, a)

        monkeypatch.setattr(ops, "_support", counting)
        mk4 = cf.catalog("mk4")
        hosts = [mk4, cf.direct_sum(cf.relabel(mk4, "a"), cf.uniform(2, 4))]
        hosts += [cf.random_matroid(random.Random(seed), 8)
                  for seed in range(20)]
        for m in hosts:
            for _ in range(5):
                d = rng.getrandbits(len(m.ground)) & m.ground.full
                calls.clear()
                cf.minor(m, cf.MinorSpec(0, d))
                met = [pairs for e, pairs in m.factors if e & d]
                assert len(calls) == sum(
                    1 + sum(1 for y, _ in pairs if y & d) for pairs in met)


class TestMinorByFactors:
    """minor splits only the families of the factors that C u D meets
    and builds no product; _minor_whole, which sorts the whole product
    and finds its factors again, gives the same ground set, flats,
    ranks and factors."""

    @staticmethod
    def _hosts(seed):
        """A random or cw2 matroid, a third of them summed with a piece
        of up to 5 elements, its dual, and both rebuilt by
        Matroid.from_labels in a shuffled ground order, where the
        factors interleave."""
        m = (cf.random_matroid(random.Random(seed), 10) if seed % 2
             else cf.random_cw2_matroid(random.Random(seed), 8))
        if seed % 3 == 0:
            m = cf.direct_sum(cf.relabel(m, "x:"), cf.relabel(
                cf.random_matroid(random.Random(~seed), 5), "y:"))
        hosts = [m, cf.dual(m)]
        rng = random.Random(f"minor-by-factors:shuffle:{seed}")
        for h in hosts[:]:
            labels = list(h.ground.labels)
            rng.shuffle(labels)
            hosts.append(reordered(h, labels))
        return hosts

    @staticmethod
    def _spec(rng, m):
        n, full = len(m.ground), m.ground.full
        c = rng.getrandbits(n) & rng.getrandbits(n) & full
        return c, rng.getrandbits(n) & rng.getrandbits(n) & full & ~c

    def test_matches_whole_product(self):
        rng = random.Random("minor-by-factors")
        checked = interleaved = resplit = sorted_product = 0
        for seed in range(150):
            for m in self._hosts(seed):
                pieces = cf.dense._pieces(len(m.ground), m.factors)
                interleaved += len(pieces) < len(m.factors)
                for _ in range(9):
                    c, d = self._spec(rng, m)
                    got = cf.minor(m, cf.MinorSpec(c, d))
                    same_matroid(got, _minor_whole(m, c, d))
                    checked += 1
                    resplit += len(got.factors) > len(m.factors)
                    sorted_product += sum(
                        len(pairs) > 1 for _, pairs in got.factors) > 1
        assert checked == 5400
        # hosts whose factors interleave; minors with more factors than
        # the host; minors of two or more factors of more than one flat,
        # whose view of Z sorts the product (Matroid)
        assert interleaved > 50 and resplit > 25 and sorted_product > 200, (
            interleaved, resplit, sorted_product)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), spec=st.randoms(use_true_random=False))
    def test_matches_whole_product_property(self, seed, spec):
        for m in self._hosts(seed):
            c, d = self._spec(spec, m)
            same_matroid(cf.minor(m, cf.MinorSpec(c, d)),
                         _minor_whole(m, c, d))

    def test_splits_only_the_met_factors(self, monkeypatch):
        # deleting or contracting one element of M(K4) + M(K4) + U_{1,3}
        # finds the factors of that M(K4)'s minor alone, and _assemble,
        # which would sort and split the product, is never called
        families = []
        real = ops._factors

        def spy(entries):
            families.append(len(entries))
            return real(entries)

        monkeypatch.setattr(ops, "_factors", spy)
        monkeypatch.setattr(ops, "_assemble", None)
        mk4 = cf.catalog("mk4")
        m = cf.direct_sum(cf.direct_sum(cf.relabel(mk4, "a"),
                                        cf.relabel(mk4, "b")),
                          cf.uniform(1, 3))
        assert len(m.flats) == 72
        for x in range(12):
            for spec in (cf.MinorSpec(1 << x, 0), cf.MinorSpec(0, 1 << x)):
                families.clear()
                got = cf.minor(m, spec)
                assert families == [len(got.flats) // 12]
                same_matroid(got, _minor_whole(m, spec.contract, spec.delete))

    def test_equality_reads_factors(self):
        # a == b exactly when ground, flats and ranks agree, and equal
        # matroids hash alike, over the hosts, their random minors (by
        # minor and by _minor_whole, and with C and D swapped, which
        # keeps the ground set) and the hosts built again by validate
        rng = random.Random("minor-by-factors:equality")
        equal = unequal = 0
        for seed in range(40):
            pool = []
            for m in self._hosts(seed):
                assert cf.dual(cf.dual(m)) == m
                pool += [m, cf.dual(cf.dual(m)),
                         cf.validate(m.ranked_family())]
                for _ in range(3):
                    c, d = self._spec(rng, m)
                    pool += [cf.minor(m, cf.MinorSpec(c, d)),
                             _minor_whole(m, c, d),
                             cf.minor(m, cf.MinorSpec(d, c))]
            for a, b in product(pool, repeat=2):
                same = ((a.ground, a.flats, a.flat_ranks)
                        == (b.ground, b.flats, b.flat_ranks))
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
                    equal += 1
                else:
                    unequal += a.ground == b.ground
        assert equal > 4000 and unequal > 1500, (equal, unequal)

    def test_broken_factor_rule_goes_to_validate(self, monkeypatch):
        # a factor family that is no product of its own factors (here
        # {a, b} and {c, d} have no join) breaks minor's rule, and the
        # product goes to validate, which names the pair
        monkeypatch.setattr(ops, "_factor_minor_flats",
                            lambda pairs, c, d: {0: 0, 3: 1, 12: 1})
        with pytest.raises(cf.NotAMatroid) as info:
            cf.minor(cf.uniform(2, 5), cf.MinorSpec(0, 1 << 4))
        assert info.value.violation.which == "Z0"


def _minor_whole(m, c, d):
    """Reference for minor: the route that sorts the whole product and
    finds its factors again.  The flats of _minor_flats_full, moved onto
    the kept elements one bit at a time, go to matroid._assemble."""
    kept = list(bits(m.ground.full & ~(c | d)))
    entries = []
    for x, r in _minor_flats_full(m, c, d).items():
        entries.append((sum(((x >> i) & 1) << j for j, i in enumerate(kept)),
                        r))
    return _assemble(cf.GroundSet(m.ground.labels[i] for i in kept), entries)


def _check_minor(m, c, d, name):
    """The minor's rank is r(A u C) - r(C) on every subset A, and its
    cyclic flats are those the rank oracle enumerates."""
    got = cf.minor(m, cf.MinorSpec(c, d))
    rc = m.rank(c)
    for a in range(1 << len(got.ground)):
        parent_mask = m.ground.mask(got.ground.names(a))
        assert got.rank(a) == m.rank(parent_mask | c) - rc, name
    assert cf.cyclic_flats_recompute(got) == got.ranked_family(), name


def compose_into(inner, outer, outer_ground, inner_ground):
    """Lift the spec inner (on inner_ground) to outer_ground and merge it
    with outer."""
    contract, delete = outer.contract, outer.delete
    for i in bits(inner.contract):
        contract |= 1 << outer_ground.index[inner_ground.labels[i]]
    for i in bits(inner.delete):
        delete |= 1 << outer_ground.index[inner_ground.labels[i]]
    return cf.MinorSpec(contract, delete)


def _incidence_classes(m):
    """Partition the ground set by flat-incidence vector.

    Elements with identical incidence over the cyclic flats are
    interchangeable by an automorphism.  Returns a list of
    (signature, class_mask) sorted canonically; the signature carries the
    class size and the (|F|, r(F)) profile of the incident flats.
    """
    by_vector = {}
    for x in bits(m.ground.full):
        vec = tuple(i for i, f in enumerate(m.flats) if (f >> x) & 1)
        by_vector[vec] = by_vector.get(vec, 0) | (1 << x)
    if not m.ground.full:
        return []
    out = []
    for vec, mask in by_vector.items():
        profile = tuple(sorted((popcount(m.flats[i]), m.flat_ranks[i])
                               for i in vec))
        out.append(((popcount(mask), profile), mask, vec))
    out.sort(key=lambda t: (t[0], subset_key(t[1])))
    return out


def _iso_backtrack(m, n):
    """Reference isomorphism test: match classes of interchangeable
    elements by backtracking, checking the flats at each leaf."""
    classes_m = _incidence_classes(m)
    classes_n = _incidence_classes(n)
    if [c[0] for c in classes_m] != [c[0] for c in classes_n]:
        return False, None
    k = len(classes_m)
    flats_n = dict(zip(n.flats, n.flat_ranks))
    # group candidate targets by signature
    candidates = [[j for j in range(k) if classes_n[j][0] == classes_m[i][0]]
                  for i in range(k)]
    assignment = [-1] * k
    used = [False] * k

    def flats_map_ok():
        images = set()
        for f, r in zip(m.flats, m.flat_ranks):
            img = 0
            for i in range(k):
                if classes_m[i][1] & ~f == 0 and classes_m[i][1] & f:
                    img |= classes_n[assignment[i]][1]
            if flats_n.get(img) != r:
                return False
            images.add(img)
        return len(images) == len(n.flats)

    def search(i):
        if i == k:
            return flats_map_ok()
        for j in candidates[i]:
            if not used[j]:
                assignment[i] = j
                used[j] = True
                if search(i + 1):
                    return True
                used[j] = False
                assignment[i] = -1
        return False

    if not search(0):
        return False, None
    witness = {}
    for i in range(k):
        witness.update(zip(m.ground.names(classes_m[i][1]),
                           n.ground.names(classes_n[assignment[i]][1])))
    return True, witness


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


def _pairs_in_order(size, removed):
    """Every disjoint (C, D) with |C| + |D| = removed, in has_minor's
    canonical order."""
    for c in _masks_by_size(range(size), range(removed + 1)):
        rest = [i for i in range(size) if not (c >> i) & 1]
        for d in _masks_by_size(rest, [removed - popcount(c)]):
            yield c, d


def _has_minor_pairwise(m, n):
    """Reference: has_minor's filters on every (contract, delete) pair
    in canonical order, not one pair per class-count profile pair.  The
    flat profile is read off _minor_profile before any minor is built,
    which rejects the same pairs as has_minor's test on the built minor,
    at less cost."""
    size_m, size_n = len(m.ground), len(n.ground)
    if size_n > size_m or n.matroid_rank > m.matroid_rank \
            or n.nullity > m.nullity:
        return False, None
    full = m.ground.full
    loops_n, coloops_n = popcount(n.loops()), popcount(n.isthmuses())
    profile_n = sorted(zip(map(popcount, n.flats), n.flat_ranks))
    for c, d in _pairs_in_order(size_m, size_m - size_n):
        rc, _, union = m.rank_support(c)
        r, inter, _ = m.rank_support(full & ~d)
        if r - rc != n.matroid_rank \
                or popcount((c | union) & ~(c | d)) != loops_n \
                or popcount(full & ~(d | inter | c)) != coloops_n:
            continue
        if _minor_profile(m, c, d) != profile_n:
            continue
        if cf.is_isomorphic(cf.minor(m, cf.MinorSpec(c, d)), n)[0]:
            return True, cf.MinorSpec(c, d)
    return False, None


def _minor_profile(m, c, d):
    """The sorted (|F|, r) list of Z(m \\ D / C), from the product
    (matroid._product) of the factors' minor flats
    (ops._factor_minor_flats), with no minor built."""
    removed = c | d
    flats = _product(m.bottom & ~removed, [
        ops._factor_minor_flats(pairs, c & e, d & e).items() if e & removed
        else pairs for e, pairs in m.factors])
    return sorted(zip(map(popcount, flats), flats.values()))


def _masks_by_size(elems, sizes):
    """Masks of the subsets of elems (ascending indices) with the given
    sizes, in canonical subset order."""
    for size in sizes:
        for combo in combinations(elems, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask


def _minor_flats_full(m, c, d):
    """Reference: the rule of ops._factor_minor_flats on the whole family
    of m, with both tests on every flat, including those that avoid D,
    and r, intersections and unions by the flat scan."""
    rc = rank_support_scan(m, c)[0]
    found = {}
    for f in m.flats:
        g = f & ~d
        if g & ~rank_support_scan(m, g)[1]:
            continue
        r, _, union = rank_support_scan(m, g | c)
        if union & ~(g | c | d):
            continue
        found[g & ~c] = r - rc
    return found
