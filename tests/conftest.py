"""Shared fixtures: the desk-scale matroid catalog and small helpers."""

from __future__ import annotations

import pytest

import cycflats as cf


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


@pytest.fixture(scope="session")
def catalog():
    return _CATALOG


@pytest.fixture(scope="session")
def small_catalog():
    """Catalog members with at most 6 elements (for pairwise products)."""
    return {k: m for k, m in _CATALOG.items() if len(m.ground) <= 6}
