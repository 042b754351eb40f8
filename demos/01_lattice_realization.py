"""Every finite lattice appears as a lattice of cyclic flats.
=============================================================

This walk-through builds a few small lattices, realizes each one as a
matroid whose cyclic flats reproduce the lattice order, and verifies the
correspondence with the poset-isomorphism checker.

Run with:  python demos/01_lattice_realization.py
"""

import cycflats as cf

# ----------------------------------------------------------------------
# The diamond lattice B_2: bottom, two incomparable atoms, top.
# ----------------------------------------------------------------------

b2 = cf.lattice_from_covers(
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])

real = cf.realize_lattice(b2)
m = real.matroid
print("realizing B_2 (the diamond):")
print(f"  ground set ({len(m.ground)} elements): {list(m.ground.labels)}")
for z, flat in real.witness:
    names = sorted(m.ground.names(flat))
    print(f"  lattice element {z!r:6} -> flat {names}")

ok, pairs = cf.poset_isomorphic(m.flats, b2)
print(f"  poset-isomorphic to B_2: {ok}")

# ----------------------------------------------------------------------
# The sublattice variant additionally makes intersections of flats agree
# with lattice meets: F_x n F_y = F_{x ^ y} for every pair.
# ----------------------------------------------------------------------

sub = cf.realize_lattice(b2, "sublattice")
flat_of = dict(sub.witness)
fa, fb = flat_of["a"], flat_of["b"]
print("\nsublattice variant:")
print(f"  ground set size: {len(sub.matroid.ground)}")
print(f"  F_a n F_b == F_bot: {fa & fb == flat_of['bot']}")

# ----------------------------------------------------------------------
# Exhaustively: every lattice with at most 5 elements is realizable.
# ----------------------------------------------------------------------

print("\nexhaustive sweep over all lattices with <= 5 elements:")
for lat in cf.all_lattices(5):
    r = cf.realize_lattice(lat)
    ok, _ = cf.poset_isomorphic(r.matroid.flats, lat)
    print(f"  {len(lat)} elements, {len(lat.covers())} covers -> "
          f"matroid on {len(r.matroid.ground)} elements, isomorphic: {ok}")
