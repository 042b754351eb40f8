"""Operations whose result is a matroid by theorem build it through
matroid._assemble, with no validate sweep.  Each must give exactly what
validate makes of the same family, and none may call validate.  The
free products and realizations of the corpus are in test_freeprod and
test_build."""

import random

import pytest

import cycflats as cf
from cycflats.groundsets import GroundSet
from cycflats.matroid import _assemble
from conftest import agrees_with_validate


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
        assert validate_calls == []
        for got in results:
            agrees_with_validate(got)

    def test_boundary_still_validates(self, validate_calls):
        cf.Matroid.from_labels(["a", "b"], [([], 0), (["a", "b"], 1)])
        assert len(validate_calls) == 1
        cf.random_cw2_matroid(random.Random(3))
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
