import copy
import pickle
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycflats as cf
from conftest import (_grid_ranks_outer, rank_support_scan, reordered,
                      summands)
from cycflats import dense, matroid
from cycflats.dense import _grid_ranks
from cycflats.groundsets import (bits, canonical, class_profile, popcount,
                                 precedes, set_text, subset_key)
from cycflats.lattices import family_lattice_tables
from cycflats.matroid import CIRCUIT_CAP, ENUM_CAP


def rf(labels, sets):
    return cf.RankedFamily.from_labels(labels, sets)


def first_violation(candidate):
    """The violation that validate raises for an invalid candidate."""
    with pytest.raises(cf.NotAMatroid) as info:
        cf.validate(candidate)
    return info.value.violation


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
        v = first_violation(rf("abcd", [("ab", 0), ("cd", 0)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z0"

    def test_z1_failure(self):
        v = first_violation(rf("abcd", [("", 1), ("abcd", 2)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z1"

    def test_z2_failure_rank_jump_zero(self):
        v = first_violation(rf("abcd", [("", 0), ("abcd", 0)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z2"

    def test_z2_failure_rank_jump_full(self):
        # r(Y) - r(X) = |Y - X| is also forbidden
        v = first_violation(rf("ab", [("", 0), ("ab", 2)]))
        assert isinstance(v, cf.AxiomViolation)
        assert v.which == "Z2"

    def test_z3_failure(self):
        # two lines sharing c, while their lattice meet is the empty set
        v = first_violation(rf("abcde",
                               [("", 0), ("abc", 1), ("cde", 1),
                                ("abcde", 2)]))
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


# -- the one-sweep validation against the two-pass rule ----------------------

def _violations_two_pass(candidate):
    """Oracle for all_violations: Z0 from the meet/join tables of
    family_lattice_tables, then Z1, then Z2 over the comparable pairs and
    Z3 over every pair, each pass in canonical pair order."""
    entries = candidate.entries
    masks = tuple(entries)

    def show(m):
        return set_text(candidate.ground.names(m))

    try:
        meet, join = family_lattice_tables(masks)
    except cf.NotALattice as exc:
        x, y = exc.pair
        return [cf.AxiomViolation(
            "Z0", (x, y),
            f"members {show(x)} and {show(y)} lack a unique meet or join")]
    out = []
    r0 = entries[masks[0]]
    if r0 != 0:
        out.append(cf.AxiomViolation(
            "Z1", (masks[0],),
            f"least member {show(masks[0])} has rank {r0}, not 0"))
    n = len(masks)
    for i, j in combinations(range(n), 2):
        x, y = masks[i], masks[j]
        if x & ~y == 0:
            diff = entries[y] - entries[x]
            if not 0 < diff < popcount(y & ~x):
                out.append(cf.AxiomViolation(
                    "Z2", (x, y),
                    f"r(Y)-r(X) = {diff} not strictly between 0 and "
                    f"|Y-X| = {popcount(y & ~x)} for X={show(x)}, "
                    f"Y={show(y)}"))
    for i, j in combinations(range(n), 2):
        x, y = masks[i], masks[j]
        mt, jn = masks[meet[i][j]], masks[join[i][j]]
        lhs = entries[x] + entries[y]
        rhs = entries[jn] + entries[mt] + popcount((x & y) & ~mt)
        if lhs < rhs:
            out.append(cf.AxiomViolation(
                "Z3", (x, y),
                f"r(X)+r(Y) = {lhs} < {rhs} = r(XvY)+r(X^Y)+|(XnY)-(X^Y)| "
                f"for X={show(x)}, Y={show(y)}"))
    return out


def _perturbed(m, rng):
    """m's ranked family with one change: a rank shifted by +-1, a random
    set added at a random rank, or a member dropped."""
    entries = dict(zip(m.flats, m.flat_ranks))
    kind = rng.choice(["shift", "add", "drop"])
    if kind == "shift":
        f = rng.choice(m.flats)
        entries[f] += rng.choice([-1, 1])
    elif kind == "add":
        s = rng.randrange(1 << len(m.ground))
        entries[s] = rng.randint(0, popcount(s))
    elif len(entries) > 1:
        del entries[rng.choice(m.flats)]
    return cf.RankedFamily(m.ground, entries)


def _differential_bases():
    for seed in range(300):
        yield cf.random_matroid(random.Random(seed), 8)
        yield cf.random_cw2_matroid(random.Random(seed), 8)
    for lat in cf.all_lattices(5):
        for variant in ("plain", "sublattice"):
            yield cf.realize_lattice(lat, variant).matroid


class TestOneSweep:
    def test_matches_two_pass_oracle(self):
        rng = random.Random(13)
        firsts = Counter()
        for m in _differential_bases():
            for _ in range(6):
                cand = _perturbed(m, rng)
                want = _violations_two_pass(cand)
                assert cf.all_violations(cand) == want, cand
                if want:
                    assert first_violation(cand) == want[0], cand
                    firsts[want[0].which] += 1
                else:
                    cf.validate(cand)
                    firsts["valid"] += 1
        assert set(firsts) == {"valid", "Z0", "Z1", "Z2", "Z3"}, firsts

    def test_z0_after_a_z2_pair(self):
        # ({}, {a}) breaks Z2 before ({a}, {b, c}) is found to have no join
        sets = [("", 0), ("a", 0), ("bc", 1), ("bd", 1)]
        cand = rf("abcd", sets)
        g = cand.ground
        with_top = rf("abcd", sets + [("abcd", 2)])
        assert (("Z2", (0, g.mask("a")))
                in [(v.which, v.witness) for v in cf.all_violations(with_top)])
        vs = cf.all_violations(cand)
        assert vs == _violations_two_pass(cand)
        assert [(v.which, v.witness) for v in vs] \
            == [("Z0", (g.mask("a"), g.mask("bc")))]
        assert first_violation(cand) == vs[0]

    def test_z0_after_a_z3_pair(self):
        # (abc, cde) breaks Z3 before (cdf, cdg) is found to have two
        # least upper members, acdfg and bcdfg
        sets = [("", 0), ("abc", 1), ("cde", 1), ("cdf", 1), ("cdg", 1),
                ("acdfg", 2), ("bcdfg", 2), ("abcdefg", 3)]
        cand = rf("abcdefg", sets)
        g = cand.ground
        without = rf("abcdefg", [s for s in sets if s[0] != "bcdfg"])
        assert (("Z3", (g.mask("abc"), g.mask("cde")))
                in [(v.which, v.witness) for v in cf.all_violations(without)])
        vs = cf.all_violations(cand)
        assert vs == _violations_two_pass(cand)
        assert [(v.which, v.witness) for v in vs] \
            == [("Z0", (g.mask("cdf"), g.mask("cdg")))]
        assert first_violation(cand) == vs[0]


# -- the product rule against the whole sweep ---------------------------------

def _sum_of(parts):
    """The direct sum of parts, relabelled apart, and the ground mask of
    each part inside it."""
    total, blocks, shift = None, [], 0
    for i, part in enumerate(parts):
        part = cf.relabel(part, f"{i}:")
        blocks.append(part.ground.full << shift)
        shift += len(part.ground)
        total = part if total is None else cf.direct_sum(total, part)
    return total, blocks


def _shift_in_factor(m, block, rng):
    """m's family with every member that shares one projection onto
    block shifted by +-1: one factor's rank changes, the split stays."""
    a = rng.choice(sorted({f & block for f in m.flats}))
    d = rng.choice([-1, 1])
    return cf.RankedFamily(m.ground, {f: r + d * (f & block == a)
                                      for f, r in zip(m.flats, m.flat_ranks)})


def _shift_all(m):
    """m's family with every rank one higher: only Z1 breaks."""
    return cf.RankedFamily(m.ground, {f: r + 1 for f, r in
                                      zip(m.flats, m.flat_ranks)})


def _factor_sums(rng, catalog):
    """Seeded sums of two and three small random_matroid,
    random_cw2_matroid and catalog members."""
    small = [m for m in catalog.values()
             if len(m.ground) <= 5 and len(m.flats) <= 6]
    for _ in range(150):
        pool = [cf.random_matroid(rng, 6), cf.random_cw2_matroid(rng, 6),
                rng.choice(small)]
        yield _sum_of(rng.sample(pool, 2))
        yield _sum_of([rng.choice(pool) for _ in range(3)])


def _decided_like_sweep(cand):
    """validate returns or raises exactly what the whole sweep gives."""
    want = cf.all_violations(cand)
    if want:
        assert first_violation(cand) == want[0], cand
        return want[0].which
    assert cf.validate(cand).ranked_family() == cand
    return "valid"


class TestFactorRule:
    def test_sums_and_perturbations_match_the_sweep(self, catalog, sweeps):
        rng = random.Random(14)
        seen, by_factors = Counter(), 0
        for m, blocks in _factor_sums(rng, catalog):
            cands = [m.ranked_family(), _shift_all(m),
                     _shift_in_factor(m, rng.choice(blocks), rng)]
            cands += [_perturbed(m, rng) for _ in range(3)]
            for cand in cands:
                seen[_decided_like_sweep(cand)] += 1
            # a sum of two or more factors with two or more flats each
            # is decided one factor at a time, with no whole sweep
            if sum(len({f & b for f in m.flats}) > 1 for b in blocks) > 1:
                sweeps.clear()
                cf.validate(m.ranked_family())
                assert sweeps == [], m
                by_factors += 1
        assert set(seen) == {"valid", "Z0", "Z1", "Z2", "Z3"}, seen
        assert by_factors >= 150, by_factors

    def test_shift_in_one_factor_keeps_the_split(self, monkeypatch):
        # a triangle of the middle M(K4) at rank 3: the split and the
        # additivity survive, that factor's sweep fails, then the whole
        mk4 = cf.catalog("mk4")
        m, blocks = _sum_of([mk4, mk4, mk4])
        triangle = next(f for f in m.flats if f & ~blocks[1] == 0
                        and f.bit_count() == 3)
        cand = cf.RankedFamily(m.ground, {
            f: r + (f & blocks[1] == triangle)
            for f, r in zip(m.flats, m.flat_ranks)})
        swept = []
        sweep = matroid._sweep

        def recorded(ground, masks, ranks):
            out = sweep(ground, masks, ranks)
            swept.append((len(masks), bool(out)))
            return out
        monkeypatch.setattr(matroid, "_sweep", recorded)
        assert _decided_like_sweep(cand) == "Z2"
        # the oracle's sweep, then validate's: two factors and the whole
        assert swept == [(216, True), (6, False), (6, True), (216, True)]

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Counts the whole-family sweeps validate runs."""
        calls = []
        sweep = matroid.all_violations

        def counted(candidate):
            calls.append(len(candidate.entries))
            return sweep(candidate)
        monkeypatch.setattr(matroid, "all_violations", counted)
        return calls

    def test_four_copies_of_mk4_skip_the_whole_sweep(self, sweeps):
        mk4 = cf.catalog("mk4")
        m, _ = _sum_of([mk4] * 4)
        assert len(m.flats) == 1296
        sweeps.clear()  # those of building the copies
        for fam in (m.ranked_family(), cf.dual(m).ranked_family()):
            assert cf.validate(fam).ranked_family() == fam
        assert sweeps == []

    def test_connected_members_are_swept_whole(self, sweeps):
        fams = [m.ranked_family() for m in
                (cf.catalog("mk4"), cf.gimenez_family(2, [2, 1]))]
        sweeps.clear()
        for fam in fams:
            cf.validate(fam)
        assert sweeps == [6, 8]


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

    def test_rank_support_matches_flat_scan(self, catalog):
        # the factor-by-factor oracle against one scan of all of Z, on
        # the catalog, products and duals with loops and isthmuses
        rng = random.Random("rank-support")
        hosts = list(catalog.values())
        for seed in range(40):
            parts = [cf.random_matroid(random.Random(seed), 6),
                     cf.random_cw2_matroid(random.Random(seed), 5),
                     rng.choice([cf.uniform(0, 2), cf.uniform(2, 2)])]
            m, _ = _sum_of(rng.sample(parts, rng.randint(2, 3)))
            hosts += [m, cf.dual(m)]
        split = 0
        for m in hosts:
            n = len(m.ground)
            split += len(m.factors) > 1
            for a in [0, m.ground.full] + [rng.getrandbits(n)
                                           for _ in range(40)]:
                want = rank_support_scan(m, a)
                assert m.rank_support(a) == want, (m, a)
                assert m.rank(a) == want[0], (m, a)
                assert m.closure(a) == a | want[2], (m, a)
                assert m.is_independent(a) == (want[0] == popcount(a))
        assert split > 30, split

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

    def test_rank_table_is_read_only(self):
        m = cf.uniform(2, 4)
        rt = m.rank_table()
        family, rgm = cf.cyclic_flats_recompute(m), cf.rank_gen_brute(m)
        with pytest.raises(ValueError):
            rt[:] = 0
        assert m.rank_table() is rt
        assert cf.cyclic_flats_recompute(m) == family == m.ranked_family()
        assert cf.rank_gen_brute(m) == rgm

    def test_grid_ranks_mixed_radix(self):
        radices = [2, 1, 3, 1, 2]
        flats = [(0b00000, 0), (0b00101, 2), (0b11001, 3), (0b10110, 4),
                 (0b11111, 6)]
        grid = _grid_ranks_outer(radices, flats)
        # axis 0 varies fastest
        cells = [t[::-1] for t in product(*(range(k + 1) for k in radices[::-1]))]
        assert len(grid) == len(cells)
        for g, t in zip(grid, cells):
            assert g == min(r + sum(tc for c, tc in enumerate(t)
                                    if not inside >> c & 1)
                            for inside, r in flats), t


def _random_grid(rng, axes, max_flats):
    """axes, with up to max_flats distinct masks below 2^axes and random
    ranks."""
    count = rng.randint(1, min(max_flats, 1 << axes))
    insides = rng.sample(range(1 << axes), count)
    return axes, [(f, rng.randint(0, 9)) for f in insides]


class TestGridRanksAgainstOuterSums:
    """_grid_ranks against the outer-sum oracle with every radix 1: same
    values, same dtype."""

    def assert_same(self, axes, flats):
        got, want = _grid_ranks(axes, flats), _grid_ranks_outer([1] * axes,
                                                                 flats)
        assert got.dtype == want.dtype, (axes, flats)
        assert np.array_equal(got, want), (axes, flats)

    def test_random_grids(self):
        rng = random.Random(5)
        for axes in range(1, 15):  # odd and even axis counts
            for _ in range(12):
                self.assert_same(*_random_grid(rng, axes, 64))

    def test_more_flats_than_cells(self):
        # every inside mask on 1-6 axes, each with two ranks: more flats
        # than cells, and groups of up to 2^4 flats sharing a low part
        rng = random.Random(64)
        for axes in range(1, 7):
            flats = [(f, rng.randint(0, 9)) for f in range(1 << axes)
                     for _ in range(2)]
            rng.shuffle(flats)
            self.assert_same(axes, flats)

    @pytest.mark.parametrize("entries", [1, 5, 24, 64])
    def test_small_steps(self, monkeypatch, entries):
        # a step budget of a few entries splits groups across steps and
        # runs of flats across products, as 2^ENUM_CAP grids do
        monkeypatch.setattr(dense, "_STEP_ENTRIES", entries)
        rng = random.Random(entries)
        for axes in range(1, 9):
            for _ in range(6):
                self.assert_same(*_random_grid(rng, axes, 200))
            self.assert_same(axes, [(f, rng.randint(0, 9))
                                    for f in range(1 << axes)])

    def test_single_axis(self):
        # h = 0: no low bits; r = 300 needs a uint16 grid
        for r in (0, 3, 18, 300):
            self.assert_same(1, [(0, 0), (1, r)])
        self.assert_same(1, [(0, 2)])

    def test_many_flats(self):
        rng = random.Random(864)
        for count in (1, 2, 200, 864):
            insides = rng.sample(range(1 << 12), count)
            self.assert_same(12, [(f, rng.randint(0, 12)) for f in insides])

    def test_flats_meeting_both_halves(self):
        rng = random.Random(3)
        for axes in (5, 8, 9):
            h = axes // 2
            straddle = [f for f in range(1 << axes)
                        if f & ((1 << h) - 1) and f >> h]
            for _ in range(5):
                flats = [(f, rng.randint(0, 5))
                         for f in rng.sample(straddle, 20)]
                self.assert_same(axes, flats)

    def test_full_width_grids(self):
        # 21 and 22 axes, whose halves of 10 and 11 bits take uint16
        # masks: a few flats that meet both halves, two of them sharing
        # a low part
        rng = random.Random(22)
        for axes in (21, 22):
            h = axes // 2
            for count in (1, 2, 4):
                lows = [rng.randrange(1, 1 << h) for _ in range(count)]
                flats = {low | rng.randrange(1, 1 << (axes - h)) << h:
                         rng.randint(0, 9) for low in lows + lows[:1]}
                self.assert_same(axes, list(flats.items()))

    def test_rank_tables(self, catalog):
        for name, m in catalog.items():
            self.assert_same(len(m.ground), list(zip(m.flats, m.flat_ranks)))


def _alternating(m, n):
    """m + n with the ground order alternating between the two while
    both last: every factor of one crosses every factor of the other."""
    s = cf.direct_sum(m, n)
    a, b = list(s.ground.labels[:len(m.ground)]), list(
        s.ground.labels[len(m.ground):])
    k = min(len(a), len(b))
    labels = [x for pair in zip(a, b) for x in pair] + a[k:] + b[k:]
    return reordered(s, labels)


class TestRankTableByPieces:
    """rank_table, one grid per piece of factors and their outer sum,
    against one grid over every flat: _grid_ranks(n, flats)."""

    @staticmethod
    def assert_whole(m):
        got = m.rank_table()
        want = _grid_ranks(len(m.ground), zip(m.flats, m.flat_ranks))
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert np.array_equal(got, want), m

    @staticmethod
    def pieces(m):
        return len(dense._pieces(len(m.ground), m.factors))

    def test_contiguous_sums(self):
        fixed, rand = summands()
        rng = random.Random("pieces:contiguous")
        sums = 0
        for j in range(120):
            m, n = rng.choice(fixed + rand), rng.choice(fixed + rand)
            if len(m.ground) + len(n.ground) > 16:
                continue
            s = cf.direct_sum(cf.relabel(m, "a"), cf.relabel(n, "b"))
            sums += self.pieces(s) > 1
            self.assert_whole(s)
        assert sums > 40, sums

    def test_interleaved_sums(self):
        # shuffled ground orders: factors interleave and pieces merge
        fixed, rand = summands()
        rng = random.Random("pieces:interleaved")
        merged = 0
        for j in range(80):
            m, n = rng.choice(fixed + rand), rng.choice(fixed + rand)
            if len(m.ground) + len(n.ground) > 14:
                continue
            s = cf.direct_sum(cf.relabel(m, "a"), cf.relabel(n, "b"))
            labels = list(s.ground.labels)
            rng.shuffle(labels)
            s = reordered(s, labels)
            merged += self.pieces(s) < len(s.factors)
            self.assert_whole(s)
        assert merged > 10, merged

    def test_alternating_sums(self):
        mk4 = cf.catalog("mk4")
        for m, n in ((cf.uniform(2, 5), cf.uniform(3, 5)),
                     (mk4, cf.uniform(1, 3)),
                     (cf.direct_sum(cf.uniform(1, 2), cf.relabel(mk4, "x")),
                      cf.relabel(mk4, "y"))):
            s = _alternating(cf.relabel(m, "a"), cf.relabel(n, "b"))
            assert self.pieces(s) == 1
            self.assert_whole(s)

    def test_loops_and_isthmuses(self):
        # loops (l) and isthmuses (i) before, inside and between the
        # pieces of U_{1,3} (a) + U_{2,4} (b) + M(K4) (k)
        mk4 = cf.relabel(cf.catalog("mk4"), "k")
        parts = [cf.uniform(1, 3, ["a1", "a2", "a3"]),
                 cf.uniform(2, 4, ["b1", "b2", "b3", "b4"]), mk4,
                 cf.uniform(0, 2, ["l1", "l2"]),
                 cf.uniform(2, 2, ["i1", "i2"])]
        s = parts[0]
        for part in parts[1:]:
            s = cf.direct_sum(s, part)
        k = list(mk4.ground.labels)
        for labels, pieces in (
                (["l1", "a1", "i1", "a2", "a3", "l2", "b1", "b2", "b3", "b4",
                  "i2"] + k, 3),
                (["i1", "a1", "a2", "l1", "a3", "b1", "b2", "i2", "b3", "b4",
                  "l2"] + k, 3),
                (k[:3] + ["l1", "a1", "a2", "a3", "i1"] + k[3:] + [
                    "b1", "l2", "b2", "b3", "i2", "b4"], 2)):
            m = reordered(s, labels)
            assert self.pieces(m) == pieces
            self.assert_whole(m)

    def test_uniform_edges(self):
        for m in (cf.uniform(0, 0), cf.uniform(0, 9), cf.uniform(9, 9),
                  cf.direct_sum(cf.uniform(0, 4), cf.relabel(
                      cf.uniform(5, 5), "i"))):
            self.assert_whole(m)

    def test_dense_path_at_cap(self):
        self.assert_whole(TestDensePathAtCap.big())

    def test_one_grid_per_piece(self, monkeypatch):
        calls = []
        real = dense._grid_ranks

        def spy(axes, flats):
            flats = list(flats)
            calls.append((axes, flats))
            return real(axes, flats)

        monkeypatch.setattr(dense, "_grid_ranks", spy)
        big = TestDensePathAtCap.big()
        big.rank_table()
        assert [a for a, _ in calls] == [6, 6, 6, 2, 2]
        assert [len(f) for _, f in calls] == [6, 6, 6, 2, 2]
        alt = _alternating(cf.uniform(5, 11, [f"a{i}" for i in range(11)]),
                           cf.uniform(5, 11, [f"b{i}" for i in range(11)]))
        nested = cf.nested_from_sequence("iffifiiff")
        for m in (alt, nested, cf.uniform(3, 7), cf.uniform(0, 4)):
            calls.clear()
            m.rank_table()
            # one piece: its product of factors is Z, in its own order
            assert [(a, sorted(f)) for a, f in calls] == [
                (len(m.ground), sorted(zip(m.flats, m.flat_ranks)))]


def _fixpoint_strided(m):
    """Oracle for cyclic_flats_recompute: for each element x, the table
    viewed as (-1, 2, 2^x) compares each set without x with the same set
    plus x."""
    rt = m.rank_table()
    good = np.ones(len(rt), dtype=bool)
    for x in range(len(m.ground)):
        v = rt.reshape(-1, 2, 1 << x)
        g = good.reshape(-1, 2, 1 << x)
        up = v[:, 1] > v[:, 0]
        g[:, 0] &= up
        g[:, 1] &= ~up
    return cf.RankedFamily(m.ground, [(int(f), int(rt[f]))
                                      for f in np.flatnonzero(good)])


class TestFixpointAgainstStridedSweep:
    def test_catalog(self, catalog):
        for name, m in catalog.items():
            want = _fixpoint_strided(m)
            assert want == m.ranked_family(), name
            assert cf.cyclic_flats_recompute(m) == want, name

    def test_random_matroids(self):
        # 0 to 18 elements: random_matroid pieces joined by direct sums
        # and free products until the drawn size is reached
        for seed in range(57):
            rng = random.Random(seed)
            n, m, i = seed % 19, cf.uniform(0, 0), 0
            while len(m.ground) < n:
                i += 1
                piece = cf.relabel(cf.random_matroid(
                    rng, n - len(m.ground)), f"p{i}:")
                join = rng.choice([cf.direct_sum, cf.free_product])
                m = join(m, piece) if len(m.ground) + len(piece.ground) <= n \
                    else m
            assert len(m.ground) == n
            assert cf.cyclic_flats_recompute(m) == _fixpoint_strided(m), seed


class TestMasksOutsideTheGroundSet:
    # a negative mask, or one with a bit at or past |E|, names no subset
    @pytest.mark.parametrize("oracle", ["rank", "rank_support",
                                        "is_independent", "closure"])
    def test_oracle_raises(self, catalog, oracle):
        u12, mk4 = cf.uniform(1, 2), catalog["mk4"]
        for m, a in [(u12, -1), (u12, -2), (u12, 1 << 2), (u12, 1 << 5),
                     (mk4, 0b1000_0111), (mk4, -1 << 6)]:
            with pytest.raises(cf.UnknownLabel,
                               match=f"^mask {a:#x} outside ground set$"):
                getattr(m, oracle)(a)


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

    def test_three_copies_of_mk4(self):
        mk4 = cf.catalog("mk4")
        copies = [cf.relabel(mk4, p) for p in ("a:", "b:", "c:")]
        m = cf.direct_sum(cf.direct_sum(copies[0], copies[1]), copies[2])
        got = {frozenset(m.ground.names(c)) for c in m.circuits()}
        want = {frozenset(c.ground.names(x)) for c in copies
                for x in c.circuits()}
        assert len(got) == 21
        assert got == want

    def test_matches_every_flat_rule(self):
        # seeded random matroids and sums of two, with loops and isthmuses
        rng = random.Random(11)
        for t in range(150):
            m = cf.random_matroid(rng, 8)
            if t % 2:
                m = cf.direct_sum(m, cf.relabel(cf.random_matroid(rng, 6),
                                                "s:"))
            assert m.circuits() == _circuits_every_flat(m), m

    def test_candidate_cap(self):
        # U_{10,40} would enumerate every 11-subset of its 40 elements
        with pytest.raises(cf.TooLarge) as err:
            cf.uniform(10, 40).circuits()
        assert f"{comb(40, 11)} candidate" in str(err.value)
        assert f"cap {CIRCUIT_CAP}" in str(err.value)


def _circuits_every_flat(m):
    """Oracle for Matroid.circuits: the minimal (r(X) + 1)-subsets of
    every cyclic flat X, in subset_key order."""
    candidates = {sum(1 << i for i in combo)
                  for f, r in zip(m.flats, m.flat_ranks)
                  for combo in combinations(bits(f), r + 1)}
    return [c for c in sorted(candidates, key=subset_key)
            if all(m.is_independent(c & ~(1 << x)) for x in bits(c))]


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


class TestDensePathAtCap:
    """M(K4) + M(K4) + M(K4) + U_{1,2} + U_{1,2}: ENUM_CAP elements and
    864 cyclic flats, the largest rank table there is."""

    @staticmethod
    def big():
        mk4 = cf.catalog("mk4")
        m = cf.relabel(mk4, "a:")
        for part in (cf.relabel(mk4, "b:"), cf.relabel(mk4, "c:"),
                     cf.uniform(1, 2, ["d1", "d2"]),
                     cf.uniform(1, 2, ["e1", "e2"])):
            m = cf.direct_sum(m, part)
        assert (len(m.ground), len(m.flats)) == (ENUM_CAP, 864)
        return m

    @staticmethod
    def peak_over_table(call):
        """call()'s result and its tracemalloc peak in 2^ENUM_CAP-byte
        tables."""
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak / (1 << ENUM_CAP)

    def test_rank_table(self):
        m = self.big()
        table, peak = self.peak_over_table(m.rank_table)
        assert peak <= 2.3, peak
        assert (len(table), table.dtype) == (1 << ENUM_CAP, np.uint8)
        rng = random.Random(22)
        for a in [0, m.ground.full] + [rng.getrandbits(ENUM_CAP)
                                       for _ in range(300)]:
            assert table[a] == m.rank(a), a

    def test_rank_table_peak_by_pieces(self):
        # five pieces, so the table is an outer sum: the table and the
        # sum below its last piece (a quarter), not a grid and its scratch
        table, peak = self.peak_over_table(self.big().rank_table)
        assert peak <= 1.5, peak
        assert (len(table), table.dtype) == (1 << ENUM_CAP, np.uint8)

    def test_grid_with_one_low_part(self):
        # after a first group of one flat, 864 flats inside the high
        # half: one group, whose high parts only the chunks bound while
        # the grid and its scratch copy are live
        n, h = ENUM_CAP, ENUM_CAP // 2
        rng = random.Random(864)
        flats = [(1, 5)] + [(f << h, rng.randint(0, 9))
                            for f in rng.sample(range(1 << (n - h)), 864)]
        grid, peak = self.peak_over_table(lambda: _grid_ranks(n, flats))
        assert peak <= 2.3, peak
        for a in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]:
            assert grid[a] == min(r + popcount(a & ~f) for f, r in flats), a

    def test_fixpoint(self):
        # the ranks, the result mask and one comparison over half the
        # table: no negated copy of it beside
        m = self.big()
        family, peak = self.peak_over_table(
            lambda: cf.cyclic_flats_recompute(m))
        assert peak <= 2.8, peak
        assert family == m.ranked_family()

    def test_rank_gen_brute(self):
        # the rank table and slices of keys: no |A| grid beside it and no
        # int64 copy of the whole key grid (11 tables when bincount made
        # one)
        m = self.big()
        coeffs, peak = self.peak_over_table(lambda: cf.rank_gen_brute(m))
        assert peak <= 1.5, peak
        assert coeffs == cf.rank_gen(m)


class TestZIsAView:
    """A Matroid stores its loops and factors, and Z is read off them:
    the sum of 12 copies of M(K4) has 6^12 = 2,176,782,336 cyclic flats,
    which only a read of flats or flat_ranks would build."""

    @staticmethod
    def k4s(count):
        mk4 = cf.catalog("mk4")
        m = cf.relabel(mk4, "0:")
        for i in range(1, count):
            m = cf.direct_sum(m, cf.relabel(mk4, f"{i}:"))
        return m

    @pytest.fixture
    def product_calls(self, monkeypatch):
        """The calls of matroid._product, in every module that holds it."""
        calls = []
        real = matroid._product

        def spy(base, families):
            calls.append(base)
            return real(base, families)

        for module in (matroid, dense, cf.ops):
            monkeypatch.setattr(module, "_product", spy)
        return calls

    def test_works_from_the_factors(self, product_calls):
        m = self.k4s(12)
        assert (len(m.ground), len(m.factors)) == (72, 12)
        assert m.rank(m.ground.full) == 36
        d = cf.dual(m)
        assert d.rank(d.ground.full) == 36 and cf.dual(d) == m
        got = cf.minor(m, cf.MinorSpec(0, 1))
        assert got.rank(got.ground.full) == 36 and len(got.factors) == 12
        assert sum(cf.tutte_polynomial(m).values()) == 16 ** 12  # T(1, 1)
        assert product_calls == []

    def test_z_past_the_cap(self, product_calls):
        m = self.k4s(12)
        for call in (lambda: cf.cyclic_width(m),
                     lambda: cf.io.emit_matroid(m), lambda: m.flat_ranks):
            with pytest.raises(cf.TooLarge,
                               match="2176782336 cyclic flats.*ENUM_CAP"):
                call()
        assert product_calls == []

    def test_family_view_is_the_built_view(self, product_calls):
        # validate and _assemble set the view from the canonical family
        # they hold, with no product; it is the view the factors build,
        # also where the factors interleave (reordered)
        fixed, rand = summands()
        rng = random.Random("family-view")
        hosts = fixed + rand + [self.k4s(3)]
        hosts += [reordered(m, rng.sample(m.ground.labels, len(m.ground)))
                  for m in hosts[-20:]]
        for m in hosts:
            family = m.ranked_family()
            for got in (cf.validate(family),
                        matroid._assemble(m.ground, family.entries.items())):
                calls = len(product_calls)
                view = (got.flats, got.flat_ranks)
                assert len(product_calls) == calls
                built = matroid.Matroid(got.ground, got.bottom, got.factors)
                assert view == (built.flats, built.flat_ranks)
                assert len(product_calls) == calls + 1

    def test_view_is_built_once(self, product_calls):
        m = self.k4s(3)
        assert len(m.flats) == 216 and len(product_calls) == 1
        assert list(m.flats) == sorted(m.flats, key=subset_key)
        assert m.flat_ranks[-1] == 9 and len(product_calls) == 1

    def test_pickle_and_copy_past_the_cap(self, product_calls):
        # they carry the loops and the factors, never the view of Z
        m = self.k4s(12)
        for got in (pickle.loads(pickle.dumps(m)), copy.copy(m),
                    copy.deepcopy(m)):
            assert got == m and hash(got) == hash(m)
        assert product_calls == []

    def test_repr_past_the_cap(self, product_calls):
        text = repr(self.k4s(12))
        assert text.endswith("rank=36, Z=[<2176782336 cyclic flats>])")
        assert product_calls == []


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

    def test_non_integer_mask_rejected(self):
        # checked before canonical orders the masks; a bool is no mask
        for mask in (1.5, True, None, "1"):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.RankedFamily(cf.GroundSet("ab"), [(0, 0), (mask, 1)])

    def test_subset_outside_ground_rejected(self):
        with pytest.raises(cf.InvalidParameters,
                           match=r"^subset 0x4 outside ground set "
                                 r"\('a', 'b'\)$"):
            cf.RankedFamily(cf.GroundSet("ab"), [(0, 0), (0b100, 1)])

    def test_canonical_order(self):
        fam = rf("abc", [("abc", 2), ("", 0), ("ab", 1)])
        g = fam.ground
        assert list(fam.entries) == [0, g.mask("ab"), g.mask("abc")]

    def test_hash(self):
        # equal families, one given out of canonical order, hash equal
        # and are one member of a set
        a = rf("abc", [("", 0), ("ab", 1), ("abc", 2)])
        b = rf("abc", [("abc", 2), ("ab", 1), ("", 0)])
        other = rf("abc", [("", 0), ("ab", 1), ("abc", 3)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, other}) == 2

    def test_repr(self):
        assert repr(rf("ba", [("", 0), ("ab", 1)])) == (
            "RankedFamily(['b', 'a'], {(): 0, ('b', 'a'): 1})")


class TestSubsetKey:
    @staticmethod
    def by_tuple(mask):
        return (popcount(mask), tuple(bits(mask)))

    def test_every_mask_below_2_to_12(self):
        masks = list(range(1 << 12))
        random.Random(12).shuffle(masks)
        assert (sorted(masks, key=subset_key)
                == sorted(masks, key=self.by_tuple))

    def test_random_masks_up_to_200_bits(self):
        rng = random.Random(200)
        masks = [rng.getrandbits(rng.randint(0, 200)) for _ in range(4000)]
        masks += [m | (1 << b) for m in masks[:500] for b in (0, 199)]
        assert (sorted(masks, key=subset_key)
                == sorted(masks, key=self.by_tuple))


class TestPrecedes:
    def test_every_ordered_pair_below_2_to_9(self):
        keys = [subset_key(a) for a in range(1 << 9)]
        assert all(precedes(a, b) == (keys[a] < keys[b])
                   for a in range(1 << 9) for b in range(1 << 9))

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(a=st.integers(1 << 64, (1 << 200) - 1),
           flips=st.integers(0, (1 << 200) - 1),
           i=st.integers(0, 199), j=st.integers(0, 199))
    def test_masks_wider_than_64_bits(self, a, flips, i, j):
        # c swaps bits i and j of a when just one is set, so it has as
        # many elements as a: the case the lowest difference decides
        b = a ^ flips
        c = a ^ (1 << i | 1 << j) if (a >> i ^ a >> j) & 1 else a
        for x, y in ((a, b), (b, a), (a, c), (c, a), (a, a)):
            assert precedes(x, y) == (subset_key(x) < subset_key(y))


class TestCanonical:
    @staticmethod
    def families(seed, count=300):
        """Random lists of (distinct mask, tag) pairs over up to 90 bits:
        0 to 12 of them, and in every tenth list 100 to 2,000 of them over
        11 to 90 bits, as many as a view of Z, a realized lattice or a
        recomputed family holds."""
        rng = random.Random(seed)
        for i in range(count):
            if i % 10:
                width = rng.randint(1, 90)
                masks = {rng.getrandbits(width)
                         for _ in range(rng.randint(0, 12))}
            else:
                width, size = rng.randint(11, 90), rng.randint(100, 2000)
                masks = set()
                while len(masks) < size:
                    masks.add(rng.getrandbits(width))
            yield [(mask, object()) for mask in masks]

    def test_canonical_input_in_its_given_order(self, canonical_sorts):
        for pairs in self.families(39):
            pairs.sort(key=lambda item: subset_key(item[0]))
            got = canonical(iter(pairs))
            assert len(got) == len(pairs)
            assert all(g is p for g, p in zip(got, pairs))
        assert canonical_sorts == []

    def test_any_other_input_sorted(self, canonical_sorts):
        unsorted = large = 0
        for pairs in self.families(40):
            want = sorted(pairs, key=lambda item: subset_key(item[0]))
            unsorted += pairs != want
            large += len(pairs) >= 100
            assert canonical(pairs) == want
        assert unsorted > 200 and large == 30
        assert len(canonical_sorts) == unsorted
        # one pair out of place, at either end
        pairs = [(0, 0), (1, 1), (2, 1), (3, 2)]
        assert canonical(pairs[1::-1] + pairs[2:]) == pairs
        assert canonical(pairs[:2] + pairs[:1:-1]) == pairs


class TestElementClasses:
    def test_up_sets_by_definition(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(0, 12)
            family = [rng.getrandbits(n + 2) for _ in range(rng.randint(0, 9))]
            support = rng.getrandbits(n)
            want = {}
            for x in bits(support):
                u = sum(1 << i for i, f in enumerate(family) if f >> x & 1)
                want[u] = want.get(u, 0) | 1 << x
            classes, inside = class_profile(family, support)
            assert classes == list(want.values())
            assert inside == [
                sum(1 << c for c, u in enumerate(want) if u >> i & 1)
                for i in range(len(family))]


class TestGroundSet:
    def test_duplicate_labels(self):
        with pytest.raises(cf.DuplicateSet,
                           match=r"^duplicate labels in ground set: "
                                 r"\('a', 'b', 'a'\)$"):
            cf.GroundSet("aba")

    def test_repr(self):
        assert repr(cf.GroundSet(["b", "a"])) == "GroundSet(['b', 'a'])"

    def test_names_outside(self):
        g = cf.GroundSet("ab")
        assert g.names(0b11) == ("a", "b")
        with pytest.raises(cf.UnknownLabel,
                           match="^mask 0x4 outside ground set$"):
            g.names(0b100)


class TestWitnessText:
    def test_names_in_ground_order(self):
        g = cf.GroundSet(["b", "a", "c"])
        assert set_text(g.names(g.mask("abc"))) == "{'b', 'a', 'c'}"
        assert set_text(()) == "{}"

    def test_matroid_repr(self):
        m = cf.Matroid.from_labels("ba", [("", 0), ("ab", 1)])
        assert repr(m) == ("Matroid(E=['b', 'a'], rank=1, "
                           "Z=[({}, 0), ({'b', 'a'}, 1)])")
