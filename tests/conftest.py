"""Shared fixtures: the desk-scale matroid catalog and small helpers."""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

import cycflats as cf

# The package runs a module on its first attribute access and looks up
# each public name on its first use.  Do both for every module and name
# now, so that no module first runs, and no name is first looked up,
# while a spy fixture below has replaced a function.
for _name, _module in list(sys.modules.items()):
    if _name.startswith("cycflats."):
        vars(_module)
for _name in cf.__all__:
    getattr(cf, _name)


def build_catalog():
    """A named catalog of >= 30 valid matroids used across the suite."""
    entries = {}

    def put(name, m):
        entries[name] = m

    put("empty", cf.uniform(0, 0))
    put("u01", cf.uniform(0, 1))
    put("u11", cf.uniform(1, 1))
    put("u12", cf.uniform(1, 2))
    put("u13", cf.uniform(1, 3))
    put("u23", cf.uniform(2, 3))
    put("u24", cf.uniform(2, 4))
    put("u33", cf.uniform(3, 3))
    put("u03", cf.uniform(0, 3))
    put("u25", cf.uniform(2, 5))
    put("u36", cf.uniform(3, 6))
    put("u12+u12", cf.direct_sum(cf.uniform(1, 2, ["a1", "a2"]),
                                 cf.uniform(1, 2, ["b1", "b2"])))
    put("u23+u11", cf.direct_sum(cf.uniform(2, 3, ["a1", "a2", "a3"]),
                                 cf.uniform(1, 1, ["b1"])))
    put("u01+u11", cf.direct_sum(cf.uniform(0, 1, ["a1"]),
                                 cf.uniform(1, 1, ["b1"])))
    put("u24+u12", cf.direct_sum(cf.uniform(2, 4, ["a1", "a2", "a3", "a4"]),
                                 cf.uniform(1, 2, ["b1", "b2"])))
    for seq in ["if", "fi", "ifif", "iff", "fif", "ififif", "iiff", "ffii"]:
        put(f"nested:{seq}", cf.nested_from_sequence(seq))
    put("p2", cf.excluded_minor_pn(2))
    put("p3", cf.excluded_minor_pn(3))
    put("p4", cf.excluded_minor_pn(4))
    put("mk4", cf.catalog("mk4"))
    put("gimenez1:id", cf.gimenez_family(1, [1]))
    put("gimenez2:id", cf.gimenez_family(2, [1, 2]))
    put("gimenez2:swap", cf.gimenez_family(2, [2, 1]))
    for i, lat in enumerate(cf.all_lattices(5)):
        put(f"lattice{i}", cf.realize_lattice(lat).matroid)
    return entries


_CATALOG = build_catalog()


def rank_support_scan(m, a):
    """Oracle for Matroid.rank_support: r(A) = min over every cyclic flat
    F of r(F) + |A - F|, with the intersection and the union of the F
    that attain it, from one scan of the whole family."""
    best = inter = union = None
    for f, r in zip(m.flats, m.flat_ranks):
        v = r + (a & ~f).bit_count()
        if best is None or v < best:
            best, inter, union = v, f, f
        elif v == best:
            inter &= f
            union |= f
    return best, inter, union


def _grid_ranks_outer(radices, flats):
    """min over flats F of r(F) + sum of t_c over the axes c outside F,
    at every profile t of a mixed-radix grid, flattened.

    Axis c takes t_c = 0..radices[c], axis 0 varying fastest, and flats
    are (mask of the axes inside F, r(F)).  Each flat's high part is
    built axis by axis from np.add.outer, folded per low part, then one
    (high x low) outer sum per distinct low part is taken, in the
    smallest unsigned dtype that holds the largest candidate value.
    With every radix 1 a profile is a subset, its index its mask, and
    this is the oracle for dense._grid_ranks; with the sizes of
    classes of elements it is the class grid of test_tutte's oracle."""
    flats = list(flats)
    h = len(radices) // 2
    low_mask = (1 << h) - 1
    top = max(r + sum(k for c, k in enumerate(radices) if not inside >> c & 1)
              for inside, r in flats)
    dtype = np.min_scalar_type(top)

    def part(axes, inside, base):
        v = np.full(1, base, dtype=dtype)
        for c in reversed(range(len(axes))):
            k = axes[c] + 1
            step = (np.zeros(k, dtype) if inside >> c & 1
                    else np.arange(k, dtype=dtype))
            v = np.add.outer(v, step).ravel()
        return v

    high_of = {}
    for inside, r in flats:
        b = part(radices[h:], inside >> h, r)
        low = inside & low_mask
        if low in high_of:
            np.minimum(high_of[low], b, out=high_of[low])
        else:
            high_of[low] = b
    best = None
    for low, b in high_of.items():
        cell = np.add.outer(b, part(radices[:h], low, 0))
        best = cell if best is None else np.minimum(best, cell)
    return best.ravel()


def same_matroid(got, want):
    """got and want agree on every stored field, factors included."""
    assert got.ground == want.ground
    assert got.flats == want.flats
    assert got.flat_ranks == want.flat_ranks
    assert got.factors == want.factors
    assert (got.bottom, got.top, got.matroid_rank) == (
        want.bottom, want.top, want.matroid_rank)


def reordered(m, labels):
    """m rebuilt by Matroid.from_labels with its ground set in the given
    order, so that validate finds its factors in their new places."""
    return cf.Matroid.from_labels(labels, [
        (m.ground.names(f), r) for f, r in zip(m.flats, m.flat_ranks)])


def agrees_with_validate(m):
    """m, built with no sweep, is what validate makes of its family."""
    same_matroid(m, cf.validate(m.ranked_family()))


def summands():
    """U_{0,0}, the loops U_{0,2}, the isthmuses U_{2,2}, U_{1,3}, M(K4),
    two of their sums, and 40 seeds each of the two random generators."""
    fixed = [cf.uniform(0, 0), cf.uniform(0, 2), cf.uniform(2, 2),
             cf.uniform(1, 3), cf.catalog("mk4")]
    fixed += [cf.direct_sum(cf.relabel(fixed[1], "s"), fixed[3]),
              cf.direct_sum(cf.relabel(fixed[4], "s"), fixed[2])]
    rand = [gen(random.Random(seed)) for seed in range(40)
            for gen in (cf.random_matroid, cf.random_cw2_matroid)]
    return fixed, rand


@pytest.fixture
def validate_calls(monkeypatch):
    """The families validate is called on from inside the library while
    the test runs: every cycflats module that holds validate gets a spy
    that logs the family and passes it on.  cf.validate, the package's
    name, is left alone, so a test's own oracle calls are not logged."""
    calls = []
    real = cf.matroid.validate

    def spy(family):
        calls.append(family)
        return real(family)

    for name, module in list(sys.modules.items()):
        if name.startswith("cycflats.") and hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", spy)
    return calls


@pytest.fixture
def canonical_sorts(monkeypatch):
    """The families groundsets.canonical sorts while the test runs, each
    logged as its masks in the order given: a spy on
    groundsets._sort_canonical, which only canonical calls."""
    calls = []
    real = cf.groundsets._sort_canonical

    def spy(pairs):
        calls.append([mask for mask, _ in pairs])
        real(pairs)

    monkeypatch.setattr(cf.groundsets, "_sort_canonical", spy)
    return calls


@pytest.fixture
def refine_calls(monkeypatch):
    """One entry per lattices._refine_signatures call while the test
    runs: each node of the isomorphism search refines once."""
    calls = []
    real = cf.lattices._refine_signatures

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cf.lattices, "_refine_signatures", spy)
    return calls


@pytest.fixture(scope="session")
def catalog():
    return _CATALOG


@pytest.fixture(scope="session")
def small_catalog():
    """Catalog members with at most 6 elements (for pairwise products)."""
    return {k: m for k, m in _CATALOG.items() if len(m.ground) <= 6}
