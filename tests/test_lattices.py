import random
from itertools import combinations, product

import pytest

import cycflats as cf
from cycflats import lattices, ops
from cycflats.groundsets import atoms, bits, popcount
from cycflats.lattices import (FiniteLattice, _least_lattices,
                               family_lattice_tables)


def fam(labels, *sets):
    """The masks of the named sets, in canonical order."""
    g = cf.GroundSet(labels)
    return canonical(g.mask(s) for s in sets)


def canonical(masks):
    return sorted(masks, key=cf.subset_key)


def _translates(v, block):
    """The singletons of Z_v and the translates of block mod v, in
    canonical order."""
    return canonical({1 << x for x in range(v)}
                     | {sum(1 << (x + t) % v for x in block)
                        for t in range(v)})


def _most_shared(family):
    """The most points that two blocks (members of size > 1) share."""
    blocks = [x for x in family if x & (x - 1)]
    return max(popcount(x & y) for x, y in combinations(blocks, 2))


class TestLatticeFromCovers:
    def test_singleton(self):
        lat = cf.lattice_from_covers(["z"], [])
        assert lat.bottom == lat.top == 0

    def test_empty(self):
        with pytest.raises(cf.CycflatsError,
                           match="a lattice needs at least one element"):
            cf.lattice_from_covers([], [])

    def test_b2(self):
        lat = cf.lattice_from_covers(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        assert lat.leq("0", "1")
        assert not lat.leq("a", "b")
        assert lat.meet("a", "b") == "0"
        assert lat.join("a", "b") == "1"

    def test_m3_is_a_lattice(self):
        lat = cf.lattice_from_covers(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"),
             ("a", "1"), ("b", "1"), ("c", "1")])
        assert len(lat) == 5
        assert lat.join("a", "b") == "1"

    def test_unknown_cover_element(self):
        with pytest.raises(cf.UnknownLabel,
                           match=r"^unknown cover element in \('a', 'z'\)$"):
            cf.lattice_from_covers(["a", "b"], [("a", "b"), ("a", "z")])

    def test_cyclic_covers(self):
        with pytest.raises(cf.CyclicCovers):
            cf.lattice_from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_cover(self):
        with pytest.raises(cf.CyclicCovers, match="'a' covers itself"):
            cf.lattice_from_covers(["a"], [("a", "a")])
        with pytest.raises(cf.CyclicCovers, match="'b' covers itself"):
            cf.lattice_from_covers(["a", "b"], [("a", "b"), ("b", "b")])

    def test_not_a_lattice(self):
        # two incomparable maximal elements: no join
        with pytest.raises(cf.NotALattice):
            cf.lattice_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])

    def test_covers_round_trip(self):
        pairs = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        lat = cf.lattice_from_covers(["0", "a", "b", "1"], pairs)
        assert sorted(lat.covers()) == sorted(pairs)


class TestFiniteLatticeChecks:
    def test_no_elements(self):
        with pytest.raises(cf.InvalidParameters,
                           match="a lattice needs at least one element"):
            FiniteLattice([], [])

    @pytest.mark.parametrize("names, down", [
        (["a", "b", "c"], [1, 3]),
        (["a", "b"], [1, 3, 7]),
    ])
    def test_counts_differ(self, names, down):
        with pytest.raises(cf.InvalidParameters, match="element names but"):
            FiniteLattice(names, down)

    def test_repeated_name(self):
        with pytest.raises(cf.DuplicateSet):
            FiniteLattice(["a", "a"], [1, 3])

    def test_bottom_and_top_from_the_order(self):
        lat = FiniteLattice(["1", "a", "0"], [7, 6, 4])
        assert (lat.bottom, lat.top) == (2, 0)

    def test_names_on_a_chain(self):
        # the checked and the trusted constructor answer alike, and an
        # unknown name is an UnknownLabel on either side of each call
        for lat in (FiniteLattice(["0", "a", "1"], [1, 3, 7]),
                    *_least_lattices(["0", "a", "1"], [[1, 3, 7]])):
            assert lat.leq("0", "a") and lat.leq("a", "1")
            assert not lat.leq("1", "a")
            assert (lat.meet("a", "1"), lat.join("0", "a")) == ("a", "a")
            for call in (lat.leq, lat.meet, lat.join):
                for x, y in (("zz", "a"), ("a", "zz")):
                    with pytest.raises(cf.UnknownLabel, match="'zz'"):
                        call(x, y)

    def test_public_matches_trusted_on_every_lattice_to_eight(self):
        # all_lattices builds through the unchecked _least_lattices
        lats = cf.all_lattices(8)
        assert len(lats) == 300
        for lat in lats:
            checked = FiniteLattice(lat.elements, lat.down)
            assert (checked.elements, checked.down) == (lat.elements,
                                                        lat.down)
            assert (checked.bottom, checked.top) == (lat.bottom, lat.top)


class TestFamilyLatticeTables:
    def test_two_chain(self):
        f = fam("ab", "", "ab")
        meet, join = family_lattice_tables(f)
        assert f[meet[0][1]] == 0
        assert f[join[0][1]] == 0b11

    def test_p2_family(self):
        f = fam("abcd", "", "ab", "cd", "abcd")
        meet, join = family_lattice_tables(f)
        i, j = f.index(0b0011), f.index(0b1100)
        assert f[meet[i][j]] == 0
        assert f[join[i][j]] == 0b1111

    def test_no_bottom(self):
        f = fam("abc", "ab", "bc")
        with pytest.raises(cf.NotALattice) as info:
            family_lattice_tables(f)
        assert info.value.pair == (0b011, 0b110)
        assert info.value.reason == "no unique meet"


class TestWidth:
    def test_chain_width_one(self):
        assert cf.width_of_family(fam("ab", "", "ab")) == 1
        assert cf.width_of_family(fam("abcd", "", "ab", "abcd")) == 1

    def test_mk4_triangles(self, catalog):
        assert cf.width_of_family(catalog["mk4"].flats) == 4

    def test_two_blocks(self):
        assert cf.width_of_family(fam("abcd", "", "ab", "cd", "abcd")) == 2

    def test_repeated_mask_raises(self):
        with pytest.raises(cf.DuplicateSet):
            cf.width_of_family([1, 1, 1])

    @pytest.mark.parametrize("size", [500, 1200])
    def test_long_augmenting_path(self, size):
        # {f} takes {e_0, f}, already matched to {e_0}, so its augmenting
        # path runs through {e_0, e_1}, ..., {e_(size-1), e_size}: size
        # steps, past the recursion limit at 1,200.  The size + 1
        # singletons are an antichain, and the chains {e_(i-1)} c
        # {e_(i-1), e_i} with {f} c {e_0, f} cover the family
        f = 1 << (size + 1)
        masks = [1 << i for i in range(size)] + [f, 1 | f] \
            + [3 << (i - 1) for i in range(1, size + 1)]
        assert len(masks) == 2 * size + 2
        assert cf.width_of_family(masks) == size + 1

    def test_matching_equals_brute_on_random_families(self):
        rng = random.Random(0)
        for _ in range(50):
            masks = set()
            for _ in range(rng.randint(1, 12)):
                masks.add(rng.randrange(1 << 8))
            f = canonical(masks)
            assert cf.width_of_family(f) == _max_antichain_brute(f)


class TestIsChain:
    def test_examples(self):
        assert cf.is_chain(fam("ab", "", "a", "ab"))
        assert not cf.is_chain(fam("ab", "", "a", "b"))
        assert not cf.is_chain(fam("abcd", "", "ab", "cd", "abcd"))


class TestPosetIsomorphic:
    def test_chains(self):
        c1 = fam("abc", "", "a", "abc")
        c2 = fam("xyz", "", "xy", "xyz")
        ok, witness = cf.poset_isomorphic(c1, c2)
        assert ok
        assert witness == list(zip(c1, c2))  # items are the masks

    def test_long_chain(self):
        # 1,000 nodes: deeper than the interpreter's recursion limit
        chain = [(1 << i) - 1 for i in range(1000)]
        assert cf.poset_isomorphic(chain, chain) == (
            True, list(zip(chain, chain)))

    def test_chain_vs_b2(self):
        b2 = cf.lattice_from_covers(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        c = fam("abc", "", "a", "ab", "abc")
        assert cf.poset_isomorphic(c, b2) == (False, None)

    def test_realized_b2(self):
        b2 = cf.lattice_from_covers(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        m = cf.realize_lattice(b2).matroid
        assert cf.poset_isomorphic(m.flats, b2)[0]

    def test_crowns_run_out_of_candidates(self):
        # singletons under triples, as two 4-cycles against one 8-cycle:
        # every node has one refined signature, so the search
        # individualizes a node against each candidate and every branch
        # fails
        singles = ["a", "b", "c", "d"]
        two = fam("abcdwxyz", *singles, "abw", "abx", "cdy", "cdz")
        one = fam("abcdwxyz", *singles, "abw", "bcx", "cdy", "daz")
        assert cf.poset_isomorphic(two, one) == (False, None)

    @pytest.mark.parametrize("v, plane, circulant", [
        (7, [0, 1, 3], [0, 1, 2]),           # Fano plane
        (13, [0, 1, 3, 9], [0, 1, 2, 4]),    # PG(2,3)
    ])
    def test_projective_plane_against_circulant(self, v, plane, circulant,
                                                refine_calls):
        # both families are the singletons of Z_v under the translates of
        # a block: every node has one refined signature.  Two lines of a
        # projective plane share at most one point, while the circulant's
        # blocks i and i + 1 share two, so no isomorphism exists
        a, b = _translates(v, plane), _translates(v, circulant)
        assert _most_shared(a) == 1 and _most_shared(b) == 2
        assert cf.poset_isomorphic(a, b) == (False, None)
        assert 0 < len(refine_calls) <= 20
        rng = random.Random(v)
        for f in (a, b):
            perm = rng.sample(range(v), v)
            copy = [sum(1 << perm[i] for i in bits(x)) for x in f]
            rng.shuffle(copy)
            ok, witness = cf.poset_isomorphic(f, copy)
            assert ok
            assert [x for x, _ in witness] == f
            assert sorted(y for _, y in witness) == sorted(copy)
            for (x, y), (z, w) in product(witness, repeat=2):
                assert (x & ~z == 0) == (y & ~w == 0)

    def test_repeated_mask_raises(self):
        with pytest.raises(cf.DuplicateSet):
            cf.poset_isomorphic([0, 1, 1], [0, 1, 1])
        with pytest.raises(cf.DuplicateSet):
            cf.poset_isomorphic([0, 1], [0, 2, 2])

    def test_reflexive_and_symmetric_on_random_families(self):
        rng = random.Random(1)
        fams = []
        for _ in range(10):
            masks = {rng.randrange(64) for _ in range(rng.randint(1, 6))}
            fams.append(canonical(masks))
        for f in fams:
            assert cf.poset_isomorphic(f, f)[0]
        for f1, f2 in combinations(fams, 2):
            assert cf.poset_isomorphic(f1, f2)[0] == cf.poset_isomorphic(f2, f1)[0]


class TestOrderIsomorphismLoop:
    """_order_isomorphism is an individualization-refinement search; the
    recursive backtracking search it replaced is the oracle, so every
    mapping, and every witness built from one, must be the same."""

    @staticmethod
    def _both(*args):
        got = lattices._order_isomorphism(*args)
        assert got == _order_isomorphism_recursive(*args)
        return got

    def test_families(self):
        # the first pair backtracks into a position and must try its
        # candidates from the first again
        rng = random.Random("order-iso")
        pairs = [([3, 5, 9, 17, 6, 26, 15, 27, 29, 30, 31],
                  [9, 6, 10, 12, 24, 21, 23, 27, 29, 30, 31])]
        for _ in range(3000):
            n = rng.randint(3, 7)
            a = canonical({rng.randrange(1 << n)
                           for _ in range(rng.randint(4, 12))})
            perm = rng.sample(range(n), n)
            b = canonical({sum(1 << perm[i] for i in bits(x)) for x in a}) \
                if rng.random() < 0.5 else \
                canonical({rng.randrange(1 << n) for _ in range(len(a))})
            pairs.append((a, b))
        found = 0
        for a, b in pairs:
            down_a, down_b = lattices._down_masks(a), lattices._down_masks(b)
            found += self._both(down_a, down_b, [0] * len(a),
                                [0] * len(b)) is not None
        assert found > 1000

    def test_matroids(self, monkeypatch):
        # is_isomorphic searches posets of flats and element-class nodes
        sizes = []

        def both(down_a, *rest):
            sizes.append(len(down_a))
            return self._both(down_a, *rest)

        monkeypatch.setattr(ops, "_order_isomorphism", both)
        rng = random.Random("order-iso:matroids")
        found = 0
        for seed in range(150):
            m = cf.random_matroid(random.Random(seed), 8)
            labels = list(m.ground.labels)
            rng.shuffle(labels)
            names = dict(zip(m.ground.labels, labels))
            n = cf.Matroid.from_labels(labels, [
                ([names[x] for x in m.ground.names(f)], r)
                for f, r in zip(m.flats, m.flat_ranks)])
            other = cf.random_matroid(random.Random(seed + 1000), 8)
            sizes.clear()
            found += cf.is_isomorphic(m, n)[0]
            classes = len(atoms(m.ground.full, m.flats))
            assert sizes == [len(m.flats) + classes]
            cf.is_isomorphic(m, other)
        assert found == 150

    def test_symmetric_matroids(self, monkeypatch, refine_calls):
        # matroids with many automorphisms, each against a shuffled copy:
        # refinement alone leaves equal signatures in every pair, so each
        # search individualizes nodes
        sizes, deep = [], 0

        def both(down_a, *rest):
            sizes.append(len(down_a))
            return self._both(down_a, *rest)

        monkeypatch.setattr(ops, "_order_isomorphism", both)
        k4 = cf.catalog("mk4")
        hosts = [cf.catalog(name) for name in ("mk4", "u24", "p2", "p3")]
        hosts.append(cf.direct_sum(cf.relabel(k4, "a"), cf.relabel(k4, "b")))
        hosts += [cf.realize_lattice(lat, variant).matroid
                  for lat in cf.all_lattices(5)
                  for variant in ("plain", "sublattice")]
        hosts += [cf.random_cw2_matroid(random.Random(seed), 9)
                  for seed in range(100)]
        rng = random.Random("order-iso:symmetric")
        for m in hosts:
            labels = list(m.ground.labels)
            rng.shuffle(labels)
            names = dict(zip(m.ground.labels, labels))
            n = cf.Matroid.from_labels(labels, [
                ([names[x] for x in m.ground.names(f)], r)
                for f, r in zip(m.flats, m.flat_ranks)])
            sizes.clear()
            refine_calls.clear()
            assert cf.is_isomorphic(m, n)[0]
            classes = len(atoms(m.ground.full, m.flats))
            assert sizes == [len(m.flats) + classes]
            deep += len(refine_calls) > 1
        assert (len(hosts), deep) == (125, 125)

    def test_colours_are_named_across_both_posets(self):
        # one node each: only the colours differ, so signatures named
        # poset by poset would both be 0
        assert lattices._order_isomorphism([1], [1], [(1, 0)],
                                           [(2, 0)]) is None
        assert lattices._order_isomorphism([1], [1], [(1, 0)],
                                           [(1, 0)]) == [0]


def _order_isomorphism_recursive(down_a, down_b, colours_a, colours_b):
    """Reference: the recursive search of _order_isomorphism, one call
    per position, candidates in the same order."""
    n = len(down_a)
    if n != len(down_b):
        return None
    sig_a, sig_b = lattices._refine_signatures(
        lattices._links(down_a), lattices._links(down_b), colours_a, colours_b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    order = sorted(range(n), key=lambda i: (sig_a.count(sig_a[i]), i))
    mapping = [-1] * n
    used = [False] * n

    def ok(i, j):
        return all(
            ((down_a[i] >> k) & 1) == ((down_b[j] >> mapping[k]) & 1)
            and ((down_a[k] >> i) & 1) == ((down_b[mapping[k]] >> j) & 1)
            for k in range(n) if mapping[k] >= 0)

    def search(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if not used[j] and sig_b[j] == sig_a[i] and ok(i, j):
                mapping[i], used[j] = j, True
                if search(pos + 1):
                    return True
                mapping[i], used[j] = -1, False
        return False

    return mapping if search(0) else None


class TestMeetJoinAlgebra:
    def test_lattice_identities(self):
        families = [
            fam("ab", "", "ab"),
            fam("abcd", "", "ab", "cd", "abcd"),
            fam("abcde", "", "a", "ab", "cd", "abcde"),
        ]
        for f in families:
            meet, join = family_lattice_tables(f)
            n = len(f)
            for i in range(n):
                assert meet[i][i] == i and join[i][i] == i
                for j in range(n):
                    assert meet[i][j] == meet[j][i]
                    assert join[i][j] == join[j][i]
                    # absorption
                    assert meet[i][join[i][j]] == i
                    assert join[i][meet[i][j]] == i
                    for k in range(n):
                        assert meet[meet[i][j]][k] == meet[i][meet[j][k]]
                        assert join[join[i][j]][k] == join[i][join[j][k]]


def _max_antichain_brute(masks):
    """Reference width: the largest pairwise incomparable subfamily."""
    best = 0
    for size in range(len(masks), 0, -1):
        if size <= best:
            break
        for combo in combinations(masks, size):
            if all(a & ~b != 0 and b & ~a != 0
                   for a, b in combinations(combo, 2)):
                best = size
                break
        if best:
            break
    return best


def brute_tables(n, leq):
    """Meet/join tables from the definition of glb and lub, or
    ((i, j), reason) for the first pair in index order without one."""
    def extreme(bounds, below):
        best = [m for m in bounds if all(below(k, m) for k in bounds)]
        return best[0] if len(best) == 1 else None

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if leq(k, i) and leq(k, j)]
            m = extreme(lower, leq)
            if m is None:
                return (i, j), "no unique meet"
            upper = [k for k in range(n) if leq(i, k) and leq(j, k)]
            jn = extreme(upper, lambda a, b: leq(b, a))
            if jn is None:
                return (i, j), "no unique join"
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = jn
    return meet, join


def brute_tables_of_down(down):
    return brute_tables(len(down), lambda a, b: bool((down[b] >> a) & 1))


def assert_meets_joins(lat, meet, join):
    """lat.meet and lat.join name the elements of the index tables."""
    e = lat.elements
    for x in range(len(e)):
        for y in range(len(e)):
            assert lat.meet(e[x], e[y]) == e[meet[x][y]]
            assert lat.join(e[x], e[y]) == e[join[x][y]]


def covers_brute(lat):
    """Oracle for FiniteLattice.covers: (i, j) for i < j with no element
    strictly between, scanning every k, in element order."""
    return covers_of_down(lat.elements, lat.down)


def covers_of_down(names, down):
    """covers_brute on the down-masks of any partial order, named by
    names in index order."""
    out = []
    for j in range(len(down)):
        for i in bits(down[j] & ~(1 << j)):
            strictly_between = any(
                (down[j] >> k) & 1 and (down[k] >> i) & 1
                for k in bits(down[j] & ~(1 << j) & ~(1 << i)))
            if not strictly_between:
                out.append((names[i], names[j]))
    return out


def assert_tables_match(down, expected):
    """lattice_from_covers on the order of down, under names in index
    order, raises for the pair of expected or gives its tables."""
    names = [f"x{i}" for i in range(len(down))]
    covers = covers_of_down(names, down)
    if isinstance(expected[1], str):
        with pytest.raises(cf.NotALattice) as info:
            cf.lattice_from_covers(names, covers)
        (i, j), reason = expected
        assert (info.value.pair, info.value.reason) == (
            (names[i], names[j]), reason)
    else:
        lat = cf.lattice_from_covers(names, covers)
        assert lat.down == tuple(down)
        assert_meets_joins(lat, *expected)


class TestTablesAgainstDefinition:
    def test_random_families(self):
        rng = random.Random(5)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            masks = {rng.randrange(64) for _ in range(rng.randint(1, 9))}
            if rng.random() < 0.5:
                masks |= {0, 63}
            f = canonical(masks)
            expected = brute_tables(len(f), lambda a, b: f[a] & ~f[b] == 0)
            try:
                tables = family_lattice_tables(f)
            except cf.NotALattice as exc:
                outcomes[False] += 1
                (i, j), reason = expected
                assert (exc.pair, exc.reason) == ((f[i], f[j]), reason)
            else:
                outcomes[True] += 1
                assert tables == expected
        assert min(outcomes.values()) > 50

    def test_random_orders_in_any_index_order(self):
        rng = random.Random(6)
        failures = {"no unique meet": 0, "no unique join": 0}
        for _ in range(300):
            n = rng.randint(1, 7)
            down = [1 << i for i in range(n)]
            for j in range(n):
                for i in range(j):
                    if rng.random() < 0.4:
                        down[j] |= down[i]
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [0] * n
            for i, d in enumerate(down):
                shuffled[perm[i]] = sum(1 << perm[k] for k in range(n)
                                        if (d >> k) & 1)
            expected = brute_tables_of_down(shuffled)
            assert_tables_match(shuffled, expected)
            if isinstance(expected[1], str):
                failures[expected[1]] += 1
        assert min(failures.values()) > 10

    def test_all_lattices_six(self):
        lats = cf.all_lattices(6)
        assert len(lats) == 1 + 1 + 1 + 2 + 5 + 15
        for lat in lats:
            assert_meets_joins(lat, *brute_tables_of_down(lat.down))

    def test_covers_in_reverse_topological_order(self):
        for lat in cf.all_lattices(6):
            names = list(reversed(lat.elements))  # tops first
            rev = cf.lattice_from_covers(names, lat.covers())
            assert_meets_joins(rev, *brute_tables_of_down(rev.down))
            for x, y in product(lat.elements, repeat=2):
                assert rev.meet(x, y) == lat.meet(x, y)
                assert rev.join(x, y) == lat.join(x, y)

    def test_covers_match_brute(self):
        lats = cf.all_lattices(7)
        assert len(lats) == 78
        for lat in lats:
            assert lat.covers() == covers_brute(lat)
            rev = cf.lattice_from_covers(reversed(lat.elements), lat.covers())
            assert rev.covers() == covers_brute(rev)

    def test_only_the_down_masks_are_stored(self):
        assert FiniteLattice.__slots__ == ("elements", "down", "bottom",
                                           "top")

    def test_not_a_lattice_in_reverse_order_names_first_pair(self):
        names = ["b", "a", "0"]
        covers = [("0", "a"), ("0", "b")]
        with pytest.raises(cf.NotALattice) as info:
            cf.lattice_from_covers(names, covers)
        assert info.value.pair == ("b", "a")
        assert info.value.reason == "no unique join"

    def test_validate_z0_witness_and_message(self):
        rf = cf.RankedFamily.from_labels("ab", [("", 0), ("a", 0), ("b", 0)])
        with pytest.raises(cf.NotAMatroid) as info:
            cf.validate(rf)
        v = info.value.violation
        assert isinstance(v, cf.AxiomViolation)
        f = tuple(rf.entries)
        (i, j), _ = brute_tables(len(f), lambda a, b: f[a] & ~f[b] == 0)
        assert v.witness == (f[i], f[j]) == (0b01, 0b10)
        assert str(v) == ("Z0 violated: members {'a'} and {'b'} "
                          "lack a unique meet or join")
