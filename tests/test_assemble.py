"""Operations whose result is a matroid by theorem build it with no
validate sweep, through matroid._assemble or, like dual, from their
operands' factors.  Each must give exactly what validate makes of the
same family, none may call validate, and those whose rule fixes the
order of their output sort nothing.  The free products and
realizations of the corpus are in test_freeprod and test_build."""

import random

import pytest

import cycflats as cf
from cycflats.groundsets import GroundSet, subset_key
from cycflats.matroid import _assemble
from conftest import agrees_with_validate, summands


def _relaxable(m):
    """The cyclic flats of m that relax accepts."""
    inner = [f for f in m.flats if f not in (m.bottom, m.top)]
    return [f for f in inner
            if all(f & ~g and g & ~f for g in inner if g != f)]


def _random_minors(rng, m, count):
    """count random (contract, delete) pairs on m's ground set."""
    specs = []
    for _ in range(count):
        c = d = 0
        for x in range(len(m.ground)):
            side = rng.randrange(3)
            if side == 1:
                c |= 1 << x
            elif side == 2:
                d |= 1 << x
        specs.append(cf.MinorSpec(c, d))
    return specs


def _unary_results(rng, m):
    """m taken through every one-operand trusted builder that applies:
    dual, truncate, higgs_lift, free_extension, free_coextension, ten
    random minors, restriction, contraction and every relaxation."""
    out = [cf.dual(m), cf.free_extension(m, "new"),
           cf.free_coextension(m, "new")]
    if m.matroid_rank:
        out.append(cf.truncate(m))
    if m.nullity:
        out.append(cf.higgs_lift(m))
    out += [cf.minor(m, spec) for spec in _random_minors(rng, m, 10)]
    half = rng.randrange(m.ground.full + 1)
    out += [cf.restriction(m, half), cf.contraction(m, half)]
    out += [cf.relax(m, f) for f in _relaxable(m)]
    return out


class TestDifferentialCorpus:
    def test_unary_builders(self):
        # 300 seeds of each random generator, every result checked: about
        # 10,600 results, 573 of them relaxations
        rng = random.Random(2026)
        checked = 0
        for seed in range(300):
            for gen in (cf.random_matroid, cf.random_cw2_matroid):
                m = gen(random.Random(seed), 8)
                for got in _unary_results(rng, m):
                    agrees_with_validate(got)
                    checked += 1
        assert checked > 9_000

    def test_dual_of_sums(self):
        # dual maps each factor of its operand; sums give it several
        fixed, rand = summands()
        several = 0
        for m in fixed + rand:
            for n in fixed:
                got = cf.dual(cf.direct_sum(m, cf.relabel(n, "n:")))
                agrees_with_validate(got)
                several += len(got.factors) > 1
        assert several > 200


def _k4_sum():
    """The direct sum of three relabelled copies of M(K4): 216 flats."""
    k4 = cf.catalog("mk4")
    return cf.direct_sum(cf.direct_sum(cf.relabel(k4, "a:"),
                                       cf.relabel(k4, "b:")),
                         cf.relabel(k4, "c:"))


class TestNoSort:
    """Builders whose rule fixes the canonical order of their output
    emit it in that order, so no family is sorted: subset_key is never
    called."""

    def test_builders(self, catalog, subset_key_calls):
        other = cf.relabel(catalog["u24+u12"], "o:")
        operands = [*catalog.values(), cf.gimenez_family(3, [2, 3, 1]),
                    _k4_sum()]
        results = []
        for m in operands:
            results += [cf.dual(m), cf.free_product(m, other),
                        cf.free_product(other, m), cf.free_extension(m),
                        cf.free_coextension(m), cf.direct_sum(m, other),
                        cf.direct_sum(other, m)]
            if m.matroid_rank:
                results.append(cf.truncate(m))
            if m.nullity:
                results.append(cf.higgs_lift(m))
            results += [cf.relax(m, f) for f in _relaxable(m)]
        results += [cf.gimenez_family(4, [3, 1, 4, 2]),
                    cf.nested_from_sequence("ffiifif"),
                    cf.random_cw2_matroid(random.Random(5))]
        assert subset_key_calls == []
        assert len(results) > 300
        for got in results:
            assert list(got.flats) == sorted(got.flats, key=subset_key)

    def test_parse_canonical_document(self, tmp_path, subset_key_calls):
        path = tmp_path / "k4sum.json"
        path.write_text(cf.io.emit_matroid(_k4_sum()))
        subset_key_calls.clear()
        family = cf.io.parse_matroid(path)
        assert subset_key_calls == []
        assert len(family.entries) == 216


class TestNoValidate:
    def test_trusted_builders(self, catalog, validate_calls):
        m, n = catalog["p3"], cf.relabel(catalog["mk4"], "b:")
        lat = cf.lattice_from_covers(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        results = [cf.dual(m), cf.truncate(m), cf.higgs_lift(m),
                   cf.minor(m, cf.MinorSpec(1, 2)), cf.restriction(m, 7),
                   cf.contraction(m, 7), cf.relax(m, _relaxable(m)[0]),
                   cf.free_product(m, n), cf.free_extension(m),
                   cf.free_coextension(m), cf.relabel(m, "q:"),
                   cf.direct_sum(m, n)]
        for variant in ("plain", "sublattice"):
            results.append(cf.realize_lattice(lat, variant).matroid)
        results += [cf.gimenez_family(4, [3, 1, 4, 2]),
                    cf.nested_from_sequence("ffiifif"), cf.uniform(2, 5),
                    cf.excluded_minor_pn(4)]
        # two samples that _chain_plus_one_ok accepts
        results += [cf.random_cw2_matroid(random.Random(s)) for s in (3, 5)]
        assert validate_calls == []
        for got in results:
            agrees_with_validate(got)

    def test_boundary_still_validates(self, validate_calls):
        cf.Matroid.from_labels(["a", "b"], [([], 0), (["a", "b"], 1)])
        assert len(validate_calls) == 1
        cf.catalog("mk4")  # hand-entered data
        assert len(validate_calls) == 2
        cf.catalog("u24")  # uniform, built by its rule
        assert len(validate_calls) == 2
        with pytest.raises(cf.NotAMatroid):
            cf.Matroid.from_labels(["a", "b"], [([], 0), (["a", "b"], 2)])


class TestAssemble:
    def test_broken_rule_raises_with_witness(self):
        # {a, b} and {c, d} have no join in the family, so not every
        # member lies below the last: _factors gives None, and validate
        # names the pair
        with pytest.raises(cf.NotAMatroid) as info:
            _assemble(GroundSet("abcd"), [(0, 0), (3, 1), (12, 1)])
        assert info.value.violation.which == "Z0"
