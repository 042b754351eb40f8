import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

import cycflats as cf
from cycflats import build, lattices, matroid
from cycflats.build import (_atom_up_sets, _chain_plus_one_ok,
                            _is_least_labelling)
from cycflats.groundsets import bits, popcount
from cycflats.lattices import FiniteLattice, _check_lattice, _converse
from conftest import agrees_with_validate


def _scan_number(down):
    """The number of a naturally labelled order in the scan over all
    relations: bit p is set iff the p-th pair (i, j) of
    combinations(range(n), 2) has i < j in the order."""
    n = len(down)
    return sum(1 << (i * (2 * n - i - 1) // 2 + j - i - 1)
               for j, d in enumerate(down) for i in bits(d & ~(1 << j)))


def _strict_down_sets(down):
    """Strict down-sets S that a new element may take on top of a
    naturally labelled meet-semilattice prefix (its down-masks) so that
    the result is one too: S holds 0 and meets each down-mask in a
    down-mask of the prefix.  That makes S down-closed: for i in S,
    down[i] & S holds i and lies below i, so it is down[i]."""
    if not down:
        return [0]  # the bottom
    masks = set(down)
    return [s for s in range(1, 1 << len(down), 2)
            if all(d & s in masks for d in down)]


def _all_lattices_brute(max_size):
    """Oracle for all_lattices: scan all 2^C(n,2) relations compatible
    with the index order, keep the transitive ones that are lattices, and
    keep the first of each isomorphism class."""
    out = []
    for n in range(1, max_size + 1):
        pairs = list(combinations(range(n), 2))
        found = []
        for choice in range(1 << len(pairs)):
            rel = {pairs[i] for i in range(len(pairs)) if (choice >> i) & 1}
            if any((i, j) in rel and (j, k) in rel and (i, k) not in rel
                   for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)):
                continue
            down = [(1 << i) for i in range(n)]
            for i, j in rel:
                down[j] |= 1 << i
            try:
                _check_lattice(range(n), down)
            except cf.NotALattice:
                continue
            lat = FiniteLattice([f"v{i}" for i in range(n)], down)
            if not any(cf.poset_isomorphic(lat, seen)[0] for seen in found):
                found.append(lat)
        out += found
    return out


def _all_lattices_pairwise(max_size):
    """Oracle for all_lattices past the brute scan's reach: the same
    candidates in the same order, each built from its down-masks and
    tested with poset_isomorphic against every lattice kept in its
    bucket, keyed by the sorted (|down|, |up|) pairs."""
    out = []
    semis = [[]]
    for n in range(1, max_size + 1):
        names = [f"v{i}" for i in range(n)]
        buckets = {}
        for down in sorted((d + [(1 << n) - 1] for d in semis),
                           key=_scan_number):
            lat = FiniteLattice(names, down)
            key = tuple(sorted(zip(map(popcount, down),
                                   map(popcount, _converse(down)))))
            seen = buckets.setdefault(key, [])
            if not any(cf.poset_isomorphic(lat, other)[0] for other in seen):
                seen.append(lat)
                out.append(lat)
        if n < max_size:
            semis = [d + [s | 1 << (n - 1)] for d in semis
                     for s in _strict_down_sets(d)]
    return out


def _candidates(size):
    """The candidates all_lattices tests at one size: every naturally
    labelled lattice of that many elements, as down-masks."""
    semis = [[]]
    for n in range(1, size):
        semis = [d + [s | 1 << (n - 1)] for d in semis
                 for s in _strict_down_sets(d)]
    return [d + [(1 << size) - 1] for d in semis]


def _least_scan_brute(down):
    """Oracle for _is_least_labelling: the least _scan_number over all
    permutations of the labels that keep every down-set below."""
    n = len(down)
    best = None
    for perm in permutations(range(n)):
        if any(perm[i] > perm[j] for j in range(n) for i in bits(down[j])):
            continue
        moved = [0] * n
        for j in range(n):
            moved[perm[j]] = sum(1 << perm[i] for i in bits(down[j]))
        number = _scan_number(moved)
        best = number if best is None else min(best, number)
    return best


def _same_lattices(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.elements == b.elements
        assert a.down == b.down


def _random_cw2_matroid_brute(rng, max_elems=9):
    """Oracle for random_cw2_matroid: the same draws, made the textbook
    way (a partial Fisher-Yates shuffle of the whole index list, each
    index decoded by listing s's other elements), with validate run on
    every candidate incomparable to some chain member."""
    for _ in range(20):
        n = rng.randint(2, max_elems)
        seq = "".join(rng.choice("if") for _ in range(n))
        m = cf.nested_from_sequence(seq)
        if len(m.flats) < 3:
            continue
        base = list(zip(m.flats, m.flat_ranks))
        slots = list(range(n << (n - 1)))
        for k in range(min(400, len(slots))):
            j = rng.randrange(k, len(slots))
            slots[k], slots[j] = slots[j], slots[k]
            e, rest = divmod(slots[k], 1 << (n - 1))
            others = [x for x in range(n) if x != e]
            s = (1 << e) | sum(1 << others[b] for b in bits(rest))
            rho = 1 + sum(1 for x in bits(s) if x < e)
            if all(s & ~f == 0 or f & ~s == 0 for f in m.flats):
                continue
            try:
                return cf.validate(cf.RankedFamily(m.ground,
                                                   base + [(s, rho)]))
            except cf.NotAMatroid:
                continue
    return m


def _random_cw2_matroid_shuffled(rng, max_elems=9):
    """The earlier random_cw2_matroid: every try builds and shuffles the
    whole candidate list and scans its first 400 entries.  It has the
    same law as random_cw2_matroid but a different seed -> matroid map."""
    for _ in range(20):
        length = rng.randint(2, max_elems)
        seq = "".join(rng.choice("if") for _ in range(length))
        m = cf.nested_from_sequence(seq)
        n = len(m.ground)
        candidates = [(s, rho) for s in range(1, 1 << n)
                      for rho in range(1, popcount(s) + 1)]
        rng.shuffle(candidates)
        base = list(zip(m.flats, m.flat_ranks))
        for s, rho in candidates[:400]:
            if all(s & ~f == 0 or f & ~s == 0 for f in m.flats):
                continue
            if _chain_plus_one_ok(m.flats, m.flat_ranks, s, rho):
                return cf.validate(cf.RankedFamily(m.ground,
                                                   base + [(s, rho)]))
    return m


def _chain_plus_one_cases(m):
    """Every (s, rho) with s incomparable to some member of m's chain and
    1 <= rho <= |s|."""
    for s in range(1, 1 << len(m.ground)):
        if all(s & ~f == 0 or f & ~s == 0 for f in m.flats):
            continue
        for rho in range(1, popcount(s) + 1):
            yield s, rho


@pytest.fixture(scope="module")
def lattices_to_8():
    return cf.all_lattices(8)


@pytest.fixture(scope="module")
def lattices_to_10():
    return cf.all_lattices(10)


class _LoggedRandom(random.Random):
    """A Random that logs each try's start (randint, with its value),
    each i/f step (choice) and each randrange draw, making the same
    draws as random.Random.  randint goes to the base randrange, so it
    is logged once."""

    def __init__(self, seed, log):
        self.log = log
        super().__init__(seed)

    def randint(self, a, b):
        n = random.Random.randrange(self, a, b + 1)
        self.log.append(("try", n))
        return n

    def choice(self, seq):
        step = super().choice(seq)
        self.log.append(("step", step))
        return step

    def randrange(self, *args):
        self.log.append(("draw",))
        return super().randrange(*args)

class TestUniform:
    def test_flats(self):
        m = cf.uniform(2, 4)
        assert m.flats == (0, m.ground.full)
        assert m.flat_ranks == (0, 2)

    def test_free_and_zero(self):
        assert cf.uniform(3, 3).flats == (0,)
        m = cf.uniform(0, 3)
        assert m.flats == (m.ground.full,)

    def test_bad_params(self):
        with pytest.raises(cf.InvalidParameters):
            cf.uniform(3, 2)
        with pytest.raises(cf.InvalidParameters):
            cf.uniform(1, 2, ["only-one"])
        for r in (1.5, True):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.uniform(r, 2)
        # the type is checked before r is compared with 0 and n
        for r in ("1", None):
            with pytest.raises(cf.InvalidParameters,
                               match=f"^rank {r!r} is not an integer$"):
                cf.uniform(r, 3)
        for n in (2.5, True):
            with pytest.raises(cf.InvalidParameters,
                               match=f"^n {n!r} is not an integer$"):
                cf.uniform(1, n)

    def test_default_labels(self):
        assert cf.uniform(1, 3).ground.labels == ("e1", "e2", "e3")


class TestRealizeLattice:
    def test_all_small_lattices_plain(self):
        for lat in cf.all_lattices(5):
            real = cf.realize_lattice(lat)
            ok, _ = cf.poset_isomorphic(real.matroid.flats, lat)
            assert ok, lat.elements

    def test_all_small_lattices_sublattice(self):
        for lat in cf.all_lattices(5):
            real = cf.realize_lattice(lat, "sublattice")
            m = real.matroid
            ok, _ = cf.poset_isomorphic(m.flats, lat)
            assert ok, lat.elements
            flat_of = dict(real.witness)
            for x, y in product(lat.elements, repeat=2):
                assert flat_of[x] & flat_of[y] == flat_of[lat.meet(x, y)]

    def test_every_lattice_to_eight_is_realized(self, lattices_to_8):
        # the paper's first theorem on all 300 lattices with <= 8 elements
        for lat in lattices_to_8:
            for variant in ("plain", "sublattice"):
                real = cf.realize_lattice(lat, variant)
                m = real.matroid
                agrees_with_validate(m)
                ok, _ = cf.poset_isomorphic(m.flats, lat)
                assert ok, (variant, lat)
                if variant == "sublattice":
                    flat_of = dict(real.witness)
                    for x, y in product(lat.elements, repeat=2):
                        assert (flat_of[x] & flat_of[y]
                                == flat_of[lat.meet(x, y)]), lat

    @pytest.mark.parametrize("variant", ["plain", "sublattice"])
    def test_element_named_like_a_satellite(self, variant):
        # s:x is both an element and the plain satellite label of x, so
        # the plain variant lengthens its prefix to ss:
        lat = cf.lattice_from_covers(["x", "s:x", "top"],
                                     [("x", "s:x"), ("s:x", "top")])
        m = cf.realize_lattice(lat, variant).matroid
        agrees_with_validate(m)
        assert cf.poset_isomorphic(m.flats, lat)[0]
        if variant == "plain":
            assert m.ground.labels == ("x", "s:x", "ss:x", "ss:s:x",
                                       "ss:top")

    def test_satellites_keep_their_prefix(self):
        for lat in cf.all_lattices(5):
            names = [e for e in lat.elements if e != lat.elements[lat.top]]
            assert cf.realize_lattice(lat).matroid.ground.labels == tuple(
                names + [f"s:{e}" for e in lat.elements])

    def test_witness_lists_the_flats(self):
        lat = cf.lattice_from_covers(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        real = cf.realize_lattice(lat)
        assert {f for _, f in real.witness} == set(real.matroid.flats)
        assert [z for z, _ in real.witness] == list(lat.elements)

    def test_unknown_variant(self):
        lat = cf.lattice_from_covers(["z"], [])
        with pytest.raises(cf.InvalidParameters):
            cf.realize_lattice(lat, "fancy")

    @pytest.mark.parametrize("variant", ["plain", "sublattice"])
    def test_poset_without_a_join(self, variant):
        # b and c lie above a and below nothing: no join, found when
        # the FiniteLattice is built
        with pytest.raises(cf.NotALattice) as info:
            cf.realize_lattice(FiniteLattice(["a", "b", "c"], [1, 3, 5]),
                               variant)
        assert info.value.pair == ("b", "c")
        assert info.value.reason == "no unique join"

    @pytest.mark.parametrize("down", [
        [1, 0],        # b does not lie below itself
        [1, 3, 6],     # c holds b but not a, which b holds
        [3, 3],        # a and b lie below each other
        [1, 7],        # b holds an index past the elements
    ])
    def test_down_masks_not_an_order(self, down):
        names = ["a", "b", "c"][:len(down)]
        with pytest.raises(cf.InvalidParameters):
            cf.realize_lattice(FiniteLattice(names, down))

    def test_masks_come_in_canonical_order(self, canonical_sorts):
        # the flats go to _assemble in lattice order, which sorts them
        # at most once; the witness keeps the lattice order
        reals = []
        for lat in cf.all_lattices(7):
            for variant in ("plain", "sublattice"):
                canonical_sorts.clear()
                reals.append((lat, cf.realize_lattice(lat, variant)))
                assert len(canonical_sorts) <= 1
        assert len(reals) == 2 * 78
        for lat, real in reals:
            flats = real.matroid.flats
            assert list(flats) == sorted(flats, key=cf.subset_key)
            assert [z for z, _ in real.witness] == list(lat.elements)
            assert sorted(f for _, f in real.witness) == sorted(flats)

    def test_realize_checks_nothing(self, lattices_to_8, monkeypatch):
        # a FiniteLattice is checked when it is built, so realizing one
        # makes no lattice or order check, not even validate's Z0
        calls = []
        for module in (lattices, build, matroid):
            monkeypatch.setattr(module, "_check_lattice",
                                lambda *args: calls.append(args),
                                raising=False)
        for lat in lattices_to_8[:40]:
            cf.realize_lattice(lat)
            cf.realize_lattice(lat, "sublattice")
        assert calls == []
        assert not hasattr(build, "_check_order")


def _nested_by_fold(seq):
    """Reference nested matroid: from the empty matroid, a direct sum with
    U_{1,1} for each 'i' and a free extension for each 'f'."""
    m = cf.uniform(0, 0)
    for pos, step in enumerate(seq, start=1):
        if step == "i":
            m = cf.direct_sum(m, cf.uniform(1, 1, [f"e{pos}"]))
        else:
            m = cf.free_extension(m, f"e{pos}")
    return m


def _subsequence_minor_two_pass(seq_n, seq_m):
    """Reference for nested_subsequence_minor: record the leftmost
    embedding of seq_n in seq_m, then contract the unmatched 'i' steps
    and delete the unmatched 'f' steps."""
    positions = []
    it = 0
    for step in seq_n:
        while it < len(seq_m) and seq_m[it] != step:
            it += 1
        if it == len(seq_m):
            return False, None
        positions.append(it)
        it += 1
    contract = delete = 0
    for p, step in enumerate(seq_m):
        if p not in positions:
            if step == "i":
                contract |= 1 << p
            else:
                delete |= 1 << p
    return True, cf.MinorSpec(contract, delete)


class TestNested:
    def test_matches_sum_and_extension_fold(self):
        for n in range(11):
            for seq in product("if", repeat=n):
                seq = "".join(seq)
                assert cf.nested_from_sequence(seq) == _nested_by_fold(seq)

    def test_round_trip_all_short_sequences(self):
        for n in range(0, 6):
            for bits_ in range(1 << n):
                seq = "".join("if"[(bits_ >> i) & 1] for i in range(n))
                m = cf.nested_from_sequence(seq)
                assert cf.nested_sequence_of(m) == seq, seq

    def test_bad_sequence(self):
        with pytest.raises(cf.InvalidParameters):
            cf.nested_from_sequence("ifx")
        # the subsequence test rejects what nested_from_sequence does,
        # in either argument, before it matches anything
        for seq_n, seq_m in (("x", "x"), ("ix", "if"), ("if", "ifx"),
                             ("", "fx")):
            with pytest.raises(cf.InvalidParameters, match="'i'/'f'"):
                cf.nested_subsequence_minor(seq_n, seq_m)

    def test_not_nested(self, catalog):
        with pytest.raises(cf.NotNested):
            cf.nested_sequence_of(catalog["mk4"])

    def test_iso_classes_count(self):
        # distinct sequences of length n give non-isomorphic matroids
        for n in (1, 2, 3):
            seen = []
            for bits_ in range(1 << n):
                seq = "".join("if"[(bits_ >> i) & 1] for i in range(n))
                m = cf.nested_from_sequence(seq)
                assert not any(cf.is_isomorphic(m, s)[0] for s in seen)
                seen.append(m)
            assert len(seen) == 1 << n

    def test_subsequence_gives_minor(self):
        rng = random.Random(3)
        for _ in range(30):
            big = "".join(rng.choice("if") for _ in range(rng.randint(1, 7)))
            small = "".join(c for c in big if rng.random() < 0.6)
            found, spec = cf.nested_subsequence_minor(small, big)
            assert found
            got = cf.minor(cf.nested_from_sequence(big), spec)
            assert cf.is_isomorphic(got, cf.nested_from_sequence(small))[0]

    def test_subsequence_spec(self):
        # the exact spec, not only its minor's isomorphism class
        assert cf.nested_subsequence_minor("if", "fif") == \
            (True, cf.MinorSpec(0, 1))
        assert cf.nested_subsequence_minor("ff", "fiff") == \
            (True, cf.MinorSpec(2, 8))
        assert cf.nested_subsequence_minor("fi", "iffi") == \
            (True, cf.MinorSpec(1, 4))
        seqs = ["".join(s) for n in range(7) for s in product("if", repeat=n)]
        for sn in seqs:
            for sm in seqs:
                assert cf.nested_subsequence_minor(sn, sm) == \
                    _subsequence_minor_two_pass(sn, sm), (sn, sm)

    def test_non_subsequence(self):
        assert cf.nested_subsequence_minor("ii", "if") == (False, None)
        assert cf.nested_subsequence_minor("fff", "ffif")[0] is True

    def test_subsequence_iff_minor(self):
        # on short sequences the subsequence test agrees with minor search
        seqs = ["", "i", "f", "ii", "if", "fi", "ff", "iif", "ifi", "ffi"]
        for sn in seqs:
            for sm in seqs:
                mn = cf.nested_from_sequence(sn)
                mm = cf.nested_from_sequence(sm)
                sub, _ = cf.nested_subsequence_minor(sn, sm)
                found, _ = cf.has_minor(mm, mn)
                assert sub == found, (sn, sm)


class TestExcludedMinorPn:
    def test_matches_truncated_sum(self):
        # each truncation as a free extension followed by its contraction
        for n in range(2, 9):
            m = cf.direct_sum(
                cf.uniform(n - 1, n, [f"a{i}" for i in range(1, n + 1)]),
                cf.uniform(n - 1, n, [f"b{i}" for i in range(1, n + 1)]))
            while m.matroid_rank > n:
                m = cf.contraction(cf.free_extension(m), 1 << len(m.ground))
            assert cf.excluded_minor_pn(n) == m, n

    def test_shape(self):
        for n in (2, 3, 4):
            p = cf.excluded_minor_pn(n)
            assert len(p.ground) == 2 * n
            assert p.matroid_rank == n
            assert cf.cyclic_width(p) == 2

    def test_single_element_minors_are_nested(self):
        for n in (2, 3):
            p = cf.excluded_minor_pn(n)
            for x in range(len(p.ground)):
                for spec in (cf.MinorSpec(0, 1 << x), cf.MinorSpec(1 << x, 0)):
                    assert cf.cyclic_width(cf.minor(p, spec)) == 1, (n, x)

    def test_bad_n(self):
        with pytest.raises(cf.InvalidParameters):
            cf.excluded_minor_pn(1)
        with pytest.raises(cf.InvalidParameters,
                           match=r"^n 3\.0 is not an integer$"):
            cf.excluded_minor_pn(3.0)


class TestGimenez:
    def test_shape(self, catalog):
        for name, n in [("gimenez1:id", 1), ("gimenez2:id", 2)]:
            m = catalog[name]
            assert len(m.ground) == 4 * n + 5
            assert m.matroid_rank == 2 * n + 2
            assert len(m.flats) == 2 * n + 4
            assert cf.cyclic_width(m) == 2

    def test_bad_sigma(self):
        with pytest.raises(cf.InvalidParameters):
            cf.gimenez_family(2, [1, 1])
        with pytest.raises(cf.InvalidParameters):
            cf.gimenez_family(0, [])
        for n, sigma in ((2.0, [1, 2]), (True, [1])):
            with pytest.raises(cf.InvalidParameters,
                               match=f"^n {n!r} is not an integer$"):
                cf.gimenez_family(n, sigma)
        # [1.0, 2.0] == [1, 2], and True == 1, yet neither is a permutation
        for n, sigma in ((2, [1.0, 2.0]), (1, (True,))):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.gimenez_family(n, sigma)


class TestRuleBuilders:
    """uniform, nested_from_sequence, excluded_minor_pn and
    gimenez_family assemble their families by their rule, and
    random_cw2_matroid its sample by the exact test _chain_plus_one_ok,
    with no validate sweep: each gives exactly what validate makes of
    the same family, flats, ranks and factors."""

    def test_gimenez(self):
        for n in range(1, 6):
            for sigma in permutations(range(1, n + 1)):
                agrees_with_validate(cf.gimenez_family(n, sigma))
        rng = random.Random(42)
        for n in (8, 12, 20):
            for _ in range(3):
                sigma = rng.sample(range(1, n + 1), n)
                agrees_with_validate(cf.gimenez_family(n, sigma))

    def test_nested(self):
        for n in range(11):
            for seq in product("if", repeat=n):
                agrees_with_validate(cf.nested_from_sequence("".join(seq)))
        m = cf.nested_from_sequence("if" * 200)
        agrees_with_validate(m)
        assert len(m.flats) == 201

    def test_uniform(self):
        for n in range(13):
            for r in range(n + 1):
                agrees_with_validate(cf.uniform(r, n))

    def test_excluded_minor_pn(self):
        for n in range(2, 13):
            agrees_with_validate(cf.excluded_minor_pn(n))

    def test_random_cw2(self):
        # the sample _chain_plus_one_ok accepts, or the fallback chain
        sampled = 0
        for e in range(2, 10):
            for seed in range(300):
                m = cf.random_cw2_matroid(random.Random(seed), e)
                agrees_with_validate(m)
                sampled += not cf.is_chain(m.flats)
        assert sampled > 1000


class TestCatalogAndChainMinor:
    def test_unknown_name(self):
        with pytest.raises(cf.UnknownName):
            cf.catalog("nonesuch")

    def test_chain_minor_u24(self):
        m = cf.nested_from_sequence("ififif")
        cm = cf.uniform_minor_from_chain(m, 2)
        got = cf.minor(m, cm.trimmed)
        assert cf.is_isomorphic(got, cf.uniform(2, 4))[0]
        raw = cf.minor(m, cm.raw)
        assert raw.matroid_rank >= 2 and raw.nullity >= 2

    def test_chain_minor_specs(self):
        # the exact raw and trimmed specs
        for seq, k, raw, trimmed in (
                ("ififif", 2, cf.MinorSpec(16, 2), cf.MinorSpec(16, 2)),
                ("ffiifif", 1, cf.MinorSpec(32, 3), cf.MinorSpec(36, 3)),
                ("iffifif", 2, cf.MinorSpec(32, 6), cf.MinorSpec(32, 6))):
            cm = cf.uniform_minor_from_chain(cf.nested_from_sequence(seq), k)
            assert cm == (raw, trimmed), (seq, k)

    def test_chain_minor_k1(self):
        m = cf.nested_from_sequence("ifif")
        cm = cf.uniform_minor_from_chain(m, 1)
        assert cf.is_isomorphic(cf.minor(m, cm.trimmed), cf.uniform(1, 3))[0]

    def test_chain_minor_trims_to_uniform(self):
        # every i/f sequence of length <= 8 with every k its chain allows;
        # 174 of the 303 raw minors lose elements to deletion
        cases = trimmed_by_deletion = 0
        for n in range(9):
            for seq in map("".join, product("if", repeat=n)):
                m = cf.nested_from_sequence(seq)
                for k in range(1, len(m.flats) - 1):
                    cm = cf.uniform_minor_from_chain(m, k)
                    got = cf.minor(m, cm.trimmed)
                    assert cf.is_isomorphic(got, cf.uniform(k, k + 2))[0], \
                        (seq, k)
                    cases += 1
                    trimmed_by_deletion += cm.trimmed.delete != cm.raw.delete
        assert (cases, trimmed_by_deletion) == (303, 174)

    def test_chain_minor_errors(self, catalog):
        with pytest.raises(cf.NotNested):
            cf.uniform_minor_from_chain(catalog["mk4"], 1)
        with pytest.raises(cf.ChainTooShort):
            cf.uniform_minor_from_chain(catalog["nested:if"], 2)
        with pytest.raises(cf.InvalidParameters):
            cf.uniform_minor_from_chain(catalog["nested:ifif"], 0)
        for k in (1.5, True, "1"):
            with pytest.raises(cf.InvalidParameters, match="not an integer"):
                cf.uniform_minor_from_chain(catalog["nested:ifif"], k)


class TestAllLattices:
    def test_counts_match_oeis(self, lattices_to_8):
        sizes = {}
        for lat in lattices_to_8:
            sizes[len(lat)] = sizes.get(len(lat), 0) + 1
        # OEIS A006966
        assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}

    @pytest.mark.parametrize("size, count", [(9, 1078), (10, 5994)])
    def test_counts_past_eight_match_oeis(self, lattices_to_10, size, count):
        # OEIS A006966.  Each is a lattice and no two are isomorphic
        # (poset_isomorphic within buckets of equal (|down|, |up|)
        # profiles), so with this count every lattice is listed once
        listed = [lat for lat in lattices_to_10 if len(lat) == size]
        assert len(listed) == count
        buckets = {}
        for lat in listed:
            _check_lattice(range(size), lat.down)
            key = tuple(sorted(zip(map(popcount, lat.down),
                                   map(popcount, _converse(lat.down)))))
            seen = buckets.setdefault(key, [])
            assert not any(cf.poset_isomorphic(lat, other)[0]
                           for other in seen)
            seen.append(lat)

    def test_ten_extends_eight(self, lattices_to_10, lattices_to_8):
        _same_lattices(lattices_to_10[:len(lattices_to_8)], lattices_to_8)

    def test_atom_up_sets_match_brute(self):
        # every set of non-bottom elements that a new atom may lie below,
        # kept iff the poset with the atom passes the lattice check
        for lat in cf.all_lattices(7)[1:]:
            n = len(lat)
            want = []
            for s in range(2, 1 << n, 2):
                down = [d | (s >> j & 1) << n for j, d in enumerate(lat.down)]
                try:
                    _check_lattice(range(n + 1), down + [1 | 1 << n])
                except cf.NotALattice:
                    continue
                want.append(s)
            assert sorted(_atom_up_sets(_converse(lat.down))) == want, \
                lat.down

    @pytest.mark.parametrize("max_size", range(1, 7))
    def test_matches_brute_scan(self, max_size):
        _same_lattices(cf.all_lattices(max_size),
                       _all_lattices_brute(max_size))

    def test_matches_pairwise_dedup_at_seven(self):
        _same_lattices(cf.all_lattices(7), _all_lattices_pairwise(7))

    def test_matches_pairwise_dedup_at_eight(self, lattices_to_8):
        _same_lattices(lattices_to_8, _all_lattices_pairwise(8))

    def test_one_labelling_test_per_candidate(self, monkeypatch):
        # 694 children of kept lattices with 3 to 8 elements, 298 of them
        # kept (the chains of 1 and 2 are seeded); no lattice check,
        # signature refinement or isomorphism search
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(build, "_is_least_labelling")
        counted(lattices, "_check_lattice")
        counted(lattices, "_refine_signatures")
        counted(lattices, "_order_isomorphism")
        assert len(cf.all_lattices(8)) == 300
        assert calls == {"_is_least_labelling": 694}
        assert not hasattr(lattices, "_tables_from_down")
        assert not hasattr(build, "_refine_signatures")
        assert not hasattr(build, "_order_isomorphism")

    def test_least_labelling_matches_brute(self):
        checked = kept = 0
        for size in range(1, 7):
            for down in _candidates(size):
                least = _scan_number(down) == _least_scan_brute(down)
                assert _is_least_labelling(down, _converse(down)) == least, \
                    down
                checked += 1
                kept += least
        assert (checked, kept) == (51, 25)
        rng = random.Random(7)
        kept = 0
        for down in rng.sample(_candidates(7), 40):
            least = _scan_number(down) == _least_scan_brute(down)
            assert _is_least_labelling(down, _converse(down)) == least, down
            kept += least
        assert 0 < kept < 40

    @staticmethod
    def _search_nodes(down, monkeypatch):
        nodes = 0
        search = build._least_search

        def counting(*args):
            nonlocal nodes
            nodes += 1
            return search(*args)

        monkeypatch.setattr(build, "_least_search", counting)
        return _is_least_labelling(down, _converse(down)), nodes

    def test_twins_searched_once(self, monkeypatch):
        # M_6: bottom, six atoms, top.  The atoms are twins, so one path
        # of 7 nodes (labels 6..0) decides it, not one per order of atoms
        m6 = [1] + [1 | 1 << i for i in range(1, 7)] + [255]
        assert self._search_nodes(m6, monkeypatch) == (True, 7)

    def test_boolean_lattice_search_is_small(self, monkeypatch):
        # B_3 has no twins: each of its 6 automorphisms is one path of
        # rows equal to its least labelling's, 1 + 3 + 6 * 5 = 34 nodes
        least = [1, 3, 5, 9, 29, 43, 71, 255]
        assert least in [list(lat.down) for lat in cf.all_lattices(8)]
        found, nodes = self._search_nodes(least, monkeypatch)
        assert found and nodes <= 40
        # coatoms 4, 5, 6 over atoms {1, 2}, {1, 3}, {2, 3}: atom 3 lies
        # below labels 5 and 6, where the least labelling's atom 3 lies
        # below 4 and 5, a smaller row
        other = [1, 3, 5, 9, 23, 43, 77, 255]
        assert _scan_number(other) > _scan_number(least)
        assert self._search_nodes(other, monkeypatch)[0] is False

    def test_sizes_zero_and_negative(self):
        assert cf.all_lattices(0) == []
        with pytest.raises(cf.InvalidParameters) as info:
            cf.all_lattices(-1)
        assert "got -1" in str(info.value)

    @pytest.mark.parametrize("value", [6.0, "6", None, True])
    def test_size_not_an_int(self, value):
        with pytest.raises(cf.InvalidParameters) as info:
            cf.all_lattices(value)
        assert repr(value) in str(info.value)

    def test_cap(self):
        with pytest.raises(cf.TooLarge) as info:
            cf.all_lattices(11)
        message = str(info.value)
        assert "cap 10 (LATTICE_CAP)" in message
        assert "asked for 11" in message
        assert "lattice_from_covers" in message

    def test_pairwise_non_isomorphic(self):
        lats = cf.all_lattices(5)
        for i, a in enumerate(lats):
            for b in lats[i + 1:]:
                if len(a) == len(b):
                    assert not cf.poset_isomorphic(a, b)[0]


class TestRandomGenerators:
    def test_random_matroid_valid_and_deterministic(self):
        out1 = [cf.random_matroid(random.Random(s)) for s in range(25)]
        out2 = [cf.random_matroid(random.Random(s)) for s in range(25)]
        assert out1 == out2
        for m in out1:
            assert isinstance(m, cf.Matroid)
            assert len(m.ground) <= 10

    def test_random_matroid_size_edges(self):
        # max_elems = 1 gives one-element matroids; less is an error
        for s in range(30):
            assert len(cf.random_matroid(random.Random(s), 1).ground) == 1
        for bad in (0, -1):
            with pytest.raises(cf.InvalidParameters, match=">= 1"):
                cf.random_matroid(random.Random(0), bad)
        for bad in (3.5, True):
            with pytest.raises(cf.InvalidParameters,
                               match=f"^max_elems {bad!r} is not an integer$"):
                cf.random_matroid(random.Random(0), bad)

    def test_random_cw2_size_edges(self):
        for s in range(30):
            m = cf.random_cw2_matroid(random.Random(s), 2)
            assert len(m.ground) == 2
        for bad in (1, 0):
            with pytest.raises(cf.InvalidParameters, match=">= 2"):
                cf.random_cw2_matroid(random.Random(0), bad)
        for bad in (3.5, True):
            with pytest.raises(cf.InvalidParameters,
                               match=f"^max_elems {bad!r} is not an integer$"):
                cf.random_cw2_matroid(random.Random(0), bad)

    def test_random_cw2(self):
        for s in range(25):
            m = cf.random_cw2_matroid(random.Random(s))
            assert cf.cyclic_width(m) <= 2
        widths = {cf.cyclic_width(cf.random_cw2_matroid(random.Random(s)))
                  for s in range(25)}
        assert 2 in widths  # the extra flat is usually found

    @pytest.mark.parametrize("max_elems", [8, 9])
    def test_random_cw2_matches_validating_every_candidate(self, max_elems):
        for s in range(200):
            got = cf.random_cw2_matroid(random.Random(s), max_elems)
            want = _random_cw2_matroid_brute(random.Random(s), max_elems)
            assert (got.ground, got.flats, got.flat_ranks) \
                == (want.ground, want.flats, want.flat_ranks), s


    def test_random_cw2_has_the_shuffled_law(self):
        # the lazy draw changed the seed -> matroid map, not the law: the
        # (|E|, |Z|, rank) histograms of seeds 0-999 agree with the
        # shuffling sampler's.  Two independent 1,000-samples of this
        # law (39 classes) differ by a total-variation distance of 0.097
        # in the median and 0.137 at the 99.9th percentile (2,000 pairs
        # resampled from 4,000 draws), so the bound is 0.15; today's
        # distance is 0.091.
        def histogram(sample):
            return Counter((len(m.ground), len(m.flats), m.matroid_rank)
                           for m in (sample(random.Random(s))
                                     for s in range(1000)))

        new = histogram(cf.random_cw2_matroid)
        old = histogram(_random_cw2_matroid_shuffled)
        tv = sum(abs(new[k] - old[k]) for k in new.keys() | old.keys()) / 2000
        assert tv <= 0.15

    def test_candidate_decode_is_a_bijection(self):
        for n in range(1, 11):
            got = [build._candidate(i, n) for i in range(n << (n - 1))]
            assert sorted(got) == [(s, rho) for s in range(1, 1 << n)
                                   for rho in range(1, popcount(s) + 1)]

    def test_draw_indices_is_a_uniform_ordered_sample(self):
        # every ordering of range(4) appears about 100 times in 2,400
        # full draws, each one randrange call per index
        seen = Counter()
        for seed in range(2400):
            log = []
            got = list(build._draw_indices(_LoggedRandom(seed, log), 4, 4))
            assert sorted(got) == [0, 1, 2, 3] and len(log) == 4
            seen[tuple(got)] += 1
        assert len(seen) == 24 and all(60 < c < 140 for c in seen.values())
        part = list(build._draw_indices(random.Random(0), 10 ** 6, 400))
        assert len(set(part)) == 400

    @pytest.mark.parametrize("max_elems", [4, 6, 9])
    def test_random_cw2_draws(self, monkeypatch, max_elems):
        # per try: a chain of fewer than 3 members makes no draw and no
        # candidate; any other makes one draw per candidate, never the
        # same candidate twice, at most min(400, N) of the N candidates,
        # and all of them unless one passes.  Per call: one gate, _assemble
        # of the sampled candidate, or nested_from_sequence (which
        # assembles its chain by its rule) only when every try failed.
        log = []
        nested = build.nested_from_sequence

        def logged(name, fn):
            def wrapper(*args):
                log.append((name, *args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(build, "_chain_plus_one_ok",
                            logged("cand", build._chain_plus_one_ok))
        monkeypatch.setattr(build, "_assemble", logged("assemble",
                                                       build._assemble))
        monkeypatch.setattr(build, "nested_from_sequence",
                            logged("nested", nested))
        short = drawn = 0
        for seed in range(100):
            want = cf.random_cw2_matroid(random.Random(seed), max_elems)
            log.clear()
            got = cf.random_cw2_matroid(_LoggedRandom(seed, log), max_elems)
            assert (got.ground, got.flats, got.flat_ranks) \
                == (want.ground, want.flats, want.flat_ranks)
            tries, gates = [], []
            for name, *args in log:
                if name == "try":
                    tries.append([args[0], "", 0, []])
                elif name == "step":
                    tries[-1][1] += args[0]
                elif name == "draw":
                    tries[-1][2] += 1
                elif name == "cand":
                    tries[-1][3].append(tuple(args[2:]))
                else:
                    gates.append(name)
            fallback = gates[:1] == ["nested"]
            assert gates == (["nested", "assemble"] if fallback
                             else ["assemble"])
            assert not fallback or len(tries) == 20
            for pos, (n, seq, draws, cands) in enumerate(tries):
                assert len(seq) == n
                total = n << (n - 1)
                if len(build._nested_chain(seq)) < 3:
                    assert draws == 0 and not cands
                    short += 1
                    continue
                assert draws == len(cands) <= min(400, total)
                assert len(set(cands)) == len(cands)
                if fallback or pos < len(tries) - 1:
                    assert draws == min(400, total)
                drawn += draws
        assert short > 50 and drawn > 0

class TestChainPlusOne:
    @staticmethod
    def agrees_with_validate(m):
        base = list(zip(m.flats, m.flat_ranks))
        accepted = 0
        for s, rho in _chain_plus_one_cases(m):
            try:
                cf.validate(cf.RankedFamily(m.ground, base + [(s, rho)]))
                valid = True
            except cf.NotAMatroid:
                valid = False
            assert _chain_plus_one_ok(m.flats, m.flat_ranks, s, rho) \
                == valid, (m, s, rho)
            accepted += valid
        return accepted

    def test_comparable_sets_never_pass(self):
        # a member, or a set comparable to every member, is not a cyclic
        # flat random_cw2_matroid may add, whatever its rank
        checked = 0
        for length in range(1, 6):
            for seq in product("if", repeat=length):
                m = cf.nested_from_sequence("".join(seq))
                for s in range(1 << length):
                    if any(s & ~f and f & ~s for f in m.flats):
                        continue
                    for rho in range(popcount(s) + 1):
                        assert not _chain_plus_one_ok(m.flats, m.flat_ranks,
                                                      s, rho), (seq, s, rho)
                        checked += 1
        assert checked == 2462

    def test_short_chains_have_no_passing_candidate(self):
        # on a chain of fewer than 3 members no (s, rho) passes: an s
        # incomparable to a member misses the bottom or leaves the top,
        # which breaks Z0, and validate rejects it (checked to length 6)
        short = incomparable = 0
        for length in range(1, 9):
            for seq in product("if", repeat=length):
                m = cf.nested_from_sequence("".join(seq))
                if len(m.flats) >= 3:
                    continue
                short += 1
                bottom, top = m.flats[0], m.flats[-1]
                for s in range(1, 1 << length):
                    for rho in range(1, popcount(s) + 1):
                        assert not _chain_plus_one_ok(m.flats, m.flat_ranks,
                                                      s, rho)
                for s, rho in _chain_plus_one_cases(m):
                    assert bottom & ~s or s & ~top
                    incomparable += 1
                if length <= 6:
                    assert self.agrees_with_validate(m) == 0
        assert (short, incomparable) == (254, 91588)

    def test_every_short_chain(self):
        accepted = 0
        for length in range(1, 6):
            for seq in product("if", repeat=length):
                m = cf.nested_from_sequence("".join(seq))
                accepted += self.agrees_with_validate(m)
        assert accepted == 13  # of 1,475 cases

    def test_seeded_chains_of_length_8(self):
        rng = random.Random(8)
        accepted = 0
        for _ in range(40):
            seq = "".join(rng.choice("if") for _ in range(8))
            accepted += self.agrees_with_validate(cf.nested_from_sequence(seq))
        assert accepted == 511  # of 35,028 cases
