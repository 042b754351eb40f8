"""Generators: uniform matroids, lattice realizations, nested matroids,
the P_n excluded minors, the superexponential permutation family, a
small catalog, and the uniform-minor extraction from long chains.

Also houses the exhaustive small-lattice enumerator and the seeded
random-matroid generators used by the test suite.

A generator whose family is a matroid by its rule or by an exact test
builds the (mask, rank) pairs in canonical order and assembles them
(matroid._assemble) with no validate sweep: uniform, realize_lattice,
nested_from_sequence, excluded_minor_pn, gimenez_family and the
sample of random_cw2_matroid, which _chain_plus_one_ok accepts.  That
makes each O(k) in its k flats instead of O(k^2) (per call, best of 5
runs of 200 calls on a shared 2-vCPU host: gimenez_family n = 7 0.152
-> 0.031 ms, n = 32 1.59 -> 0.10 ms; nested_from_sequence("if" * 200),
201 flats, 13.8 -> 0.36 ms).  _assemble still finds the factors, so a
broken rule would fall through to validate and raise NotAMatroid with
a witness.  Only catalog("mk4"), hand-entered, is validated.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import freeprod, lattices, ops
from .errors import (ChainTooShort, InvalidParameters, NotNested, TooLarge,
                     UnknownName)
from .groundsets import (GroundSet, _converse, bits, first_difference,
                         is_chain, popcount, precedes)
from .matroid import Matroid, _assemble


def _check_int(value, name: str) -> None:
    """Raise InvalidParameters unless value is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameters(f"{name} {value!r} is not an integer")


def uniform(r: int, n: int, labels=None) -> Matroid:
    """The uniform matroid U_{r,n}."""
    _check_int(n, "n")
    if not 0 <= r <= n:
        raise InvalidParameters(f"need 0 <= r <= n, got r={r}, n={n}")
    if labels is None:
        labels = [f"e{i}" for i in range(1, n + 1)]
    labels = list(labels)
    if len(labels) != n:
        raise InvalidParameters(f"expected {n} labels, got {len(labels)}")
    _check_int(r, "rank")
    ground = GroundSet(labels)
    if r == n:
        pairs = [(0, 0)]
    elif r == 0:
        pairs = [(ground.full, 0)]
    else:
        pairs = [(0, 0), (ground.full, r)]
    return _assemble(ground, pairs)


# -- lattice realization ------------------------------------------------

class Realization(NamedTuple):
    matroid: Matroid
    witness: tuple  # pairs (lattice element name, flat mask)


def realize_lattice(lat: lattices.FiniteLattice,
                    variant: str = "plain") -> Realization:
    """A matroid whose lattice of cyclic flats is isomorphic to lat.

    plain: ground is B u {satellites}, where B is the lattice minus its
    top; the flat for z is V_z u {s_x : x <= z} with rank |V_z|, where
    V_z = {y : y not >= z}.  sublattice: each z gets its own block S_z of
    |V_z| + 1 fresh points and the flat for z is the union of the blocks
    below z; this variant additionally satisfies F_x n F_y = F_{x ^ y}.

    Either family is the lattice of cyclic flats of a matroid whenever
    lat is a lattice (the source paper's realization of every lattice),
    and a FiniteLattice is checked when it is built, so the matroid is
    assembled with no check or validation of its own.
    """
    if variant not in ("plain", "sublattice"):
        raise InvalidParameters(f"unknown variant {variant!r}")
    k = len(lat)
    v = [((1 << k) - 1) & ~u for u in _converse(lat.down)]  # V_z
    if variant == "plain":
        names = [e for i, e in enumerate(lat.elements) if i != lat.top]
        prefix = "s:"  # lengthened while a satellite takes a name of B
        labels = names + [prefix + e for e in lat.elements]
        while len(set(labels)) < len(labels):
            prefix = "s" + prefix
            labels = names + [prefix + e for e in lat.elements]
        # B's positions are the lattice indices with the top's taken
        # out: no V_z holds the top, so the bits above it move down one
        low = (1 << lat.top) - 1
        masks = [vz & low | (vz >> 1 & ~low) | d << len(names)
                 for vz, d in zip(v, lat.down)]
    else:
        labels, block = [], []
        for name, vz in zip(lat.elements, v):
            size = popcount(vz) + 1
            block.append(((1 << size) - 1) << len(labels))
            labels += [f"{name}:{t}" for t in range(size)]
        masks = [sum(block[y] for y in bits(d)) for d in lat.down]
    # canonical order: by size, then first difference, which falls at the
    # lowest lattice index where the keys differ: the V_z for plain (B
    # keeps the lattice order, and no V_z holds the top or equals
    # another), the down-sets for sublattice (the blocks keep it)
    keys = v if variant == "plain" else lat.down
    order = first_difference(zip(keys, zip(masks, map(popcount, v))), k)
    order.sort(key=lambda item: item[1][0].bit_count())
    m = _assemble(GroundSet(labels), [pair for _, pair in order])
    return Realization(m, tuple(zip(lat.elements, masks)))


# -- nested matroids ----------------------------------------------------

def nested_from_sequence(seq: str) -> Matroid:
    """The nested matroid of an i/f sequence, as its chain of cyclic flats.

    'i' adds a fresh isthmus (cyclic flats unchanged); 'f' adds a fresh
    element freely, M box U_{0,1}, whose cyclic flats are M's without
    E(M), and E(M) + e at rank r(M).  Elements are e1, e2, ... in order.
    """
    _check_sequence(seq)
    return _assemble(_nested_ground(len(seq)), _nested_chain(seq))


def _check_sequence(seq: str) -> None:
    """Raise InvalidParameters unless seq is over 'i'/'f'."""
    if any(c not in "if" for c in seq):
        raise InvalidParameters(f"sequence must be over 'i'/'f': {seq!r}")


def _nested_ground(n: int) -> GroundSet:
    return GroundSet(f"e{pos}" for pos in range(1, n + 1))


def _nested_chain(seq: str) -> list[tuple[int, int]]:
    """The chain of cyclic flats of nested_from_sequence(seq) as (mask,
    rank) pairs, bottom first, for a sequence over 'i'/'f'."""
    chain = [(0, 0)]  # the empty matroid
    rank = 0
    for pos, step in enumerate(seq):
        if step == "i":
            rank += 1
            continue
        if chain[-1][0] == (1 << pos) - 1:
            chain.pop()  # E(M) is no longer closed
        chain.append(((2 << pos) - 1, rank))
    return chain


def nested_sequence_of(m: Matroid) -> str:
    """Recover an i/f sequence from a nested matroid's chain.

    Loops come out as leading 'f' steps, each chain step X_{j-1} -> X_j
    as r-difference many 'i' steps followed by the remaining 'f' steps,
    and outside isthmuses as trailing 'i' steps.
    """
    if not is_chain(m.flats):
        raise NotNested("lattice of cyclic flats is not a chain")
    steps = ["f"] * popcount(m.flats[0])
    for prev, prev_r, cur, cur_r in zip(m.flats, m.flat_ranks,
                                        m.flats[1:], m.flat_ranks[1:]):
        ni = cur_r - prev_r
        nf = popcount(cur & ~prev) - ni
        steps += ["i"] * ni + ["f"] * nf
    steps += ["i"] * popcount(m.ground.full & ~m.top)
    return "".join(steps)


def nested_subsequence_minor(seq_n: str, seq_m: str):
    """Subsequence test with the induced minor embedding.

    Returns (True, spec) where spec is the MinorSpec on
    nested_from_sequence(seq_m) that deletes unmatched free steps and
    contracts unmatched isthmus steps, or (False, None).  The match is
    the leftmost embedding.  Raises InvalidParameters unless both
    sequences are over 'i'/'f', as nested_from_sequence does.
    """
    _check_sequence(seq_n)
    _check_sequence(seq_m)
    positions = []
    it = 0
    for step in seq_n:
        while it < len(seq_m) and seq_m[it] != step:
            it += 1
        if it == len(seq_m):
            return False, None
        positions.append(it)
        it += 1
    matched = set(positions)
    contract = delete = 0
    for p, step in enumerate(seq_m):
        if p not in matched:
            if step == "i":
                contract |= 1 << p
            else:
                delete |= 1 << p
    return True, ops.MinorSpec(contract, delete)


# -- excluded minors and the permutation family --------------------------

def excluded_minor_pn(n: int) -> Matroid:
    """P_n: the truncation to rank n of U_{n-1,n} + U_{n-1,n}, so
    Z(P_n) = {{}: 0, A: n-1, B: n-1, A u B: n} with A = {a1..an} and
    B = {b1..bn}: truncation keeps the flats of rank below n."""
    _check_int(n, "n")
    if n < 2:
        raise InvalidParameters(f"need n >= 2, got {n}")
    ground = GroundSet([f"a{i}" for i in range(1, n + 1)]
                       + [f"b{i}" for i in range(1, n + 1)])
    a = (1 << n) - 1
    return _assemble(ground, [(0, 0), (a, n - 1), (a << n, n - 1),
                              (ground.full, n)])


def gimenez_family(n: int, sigma) -> Matroid:
    """One member of the n! family on 4n+5 elements with cyclic width 2.

    sigma is a permutation of 1..n (sequence of images).  Two chains
    share bottom and top: A_i grows by {z_i, w_i}, B_i by {z_i,
    w_{sigma(i)}}; ranks are n+1+i on both chains and 2n+2 overall.
    |B_i| = n+2+2i is one less than |A_i|, so the masks are listed in
    canonical order, B_i before A_i, and _assemble takes them in one
    pass: the family is the paper's, a matroid by its rule, so no
    validate sweep runs.
    """
    _check_int(n, "n")
    if n < 1:
        raise InvalidParameters(f"need n >= 1, got {n}")
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise InvalidParameters(f"not a permutation of 1..{n}: {sigma}")
    labels = (["a", "a'", "a''", "b", "b'"]
              + [f"x{i}" for i in range(1, n + 1)]
              + [f"y{i}" for i in range(1, n + 1)]
              + [f"z{i}" for i in range(1, n + 1)]
              + [f"w{i}" for i in range(1, n + 1)])
    ground = GroundSet(labels)
    # x_i, y_i, z_i and w_i are elements 4+i, 4+n+i, 4+2n+i and 4+3n+i
    run = (1 << n) - 1
    a, b = 0b111 | run << 5, 0b11000 | run << (5 + n)
    entries = [(0, 0), (b, n + 1), (a, n + 1)]
    for i in range(1, n + 1):
        z = 1 << (4 + 2 * n + i)
        a |= z | 1 << (4 + 3 * n + i)
        b |= z | 1 << (4 + 3 * n + sigma[i - 1])
        entries += [(b, n + 1 + i), (a, n + 1 + i)]
    entries.append((ground.full, 2 * n + 2))
    return _assemble(ground, entries)


def catalog(name: str) -> Matroid:
    """Named matroids.  mk4 is the cycle matroid of K_4 on its six edge
    labels, given by the empty flat, the four triangles at rank 2, and
    the full edge set at rank 3."""
    if name == "mk4":
        edges = ["12", "13", "14", "23", "24", "34"]
        triangles = [["12", "13", "23"], ["12", "14", "24"],
                     ["13", "14", "34"], ["23", "24", "34"]]
        sets = [([], 0)] + [(t, 2) for t in triangles] + [(edges, 3)]
        return Matroid.from_labels(edges, sets)
    if name == "u24":
        return uniform(2, 4)
    if name == "p2":
        return excluded_minor_pn(2)
    if name == "p3":
        return excluded_minor_pn(3)
    raise UnknownName(f"unknown catalog entry {name!r}")


# -- uniform minors from chains ------------------------------------------

class ChainMinor(NamedTuple):
    """Minor specs extracted from a chain of k+2 cyclic flats: raw is the
    restriction/contraction/deletion from the constructive proof (a
    uniform minor of rank >= k and nullity >= 2); trimmed reduces it to
    exactly U_{k,k+2}."""

    raw: ops.MinorSpec
    trimmed: ops.MinorSpec


def uniform_minor_from_chain(m: Matroid, k: int) -> ChainMinor:
    """Extract a U_{k,k+2} minor from a matroid whose cyclic flats form a
    chain with at least k+2 members.

    Uses the first k+2 chain members X_0 c ... c X_{k+1}: restrict to
    X_{k+1}, contract I_{k+1}, and delete X_0 u F_1 u ... u F_{k-1},
    where each X_j - X_{j-1} splits into I_j (rank increase) and F_j
    (free part); the split is determined only in cardinality, so the
    lexicographically least choice is taken.  Raises InvalidParameters
    unless k is an int (not a bool) of at least 1.
    """
    _check_int(k, "k")
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got {k}")
    if not is_chain(m.flats):
        raise NotNested("lattice of cyclic flats is not a chain")
    if len(m.flats) < k + 2:
        raise ChainTooShort(
            f"chain has {len(m.flats)} members, need at least {k + 2}")
    chain = m.flats[:k + 2]
    ranks = m.flat_ranks[:k + 2]
    isets, fsets = [0], [chain[0]]  # j = 0: X_0 is all loops (free part)
    for j in range(1, k + 2):
        diff = chain[j] & ~chain[j - 1]
        iset = _lowest(diff, ranks[j] - ranks[j - 1])
        isets.append(iset)
        fsets.append(diff & ~iset)
    delete = m.ground.full & ~chain[k + 1]  # restrict to X_{k+1}
    delete |= chain[0]
    for j in range(1, k):
        delete |= fsets[j]
    raw = ops.MinorSpec(isets[k + 1], delete)
    rank = m.rank(m.ground.full & ~delete) - m.rank(raw.contract)
    kept = m.ground.full & ~(raw.contract | delete)
    extra_contract = _lowest(kept, rank - k)
    extra_delete = _lowest(kept & ~extra_contract, popcount(kept) - rank - 2)
    trimmed = ops.MinorSpec(raw.contract | extra_contract,
                            raw.delete | extra_delete)
    return ChainMinor(raw, trimmed)


def _lowest(mask: int, t: int) -> int:
    """The t lowest elements of mask (all of them if it has fewer)."""
    out = 0
    for _ in range(t):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


# -- exhaustive small lattices -------------------------------------------

LATTICE_CAP = 10  # OEIS A006966: 5,994 lattices of 10 elements, 37,622 of 11


def all_lattices(max_size: int) -> list[lattices.FiniteLattice]:
    """Every lattice with 1..max_size elements, up to isomorphism.

    Each lattice is listed once, in its least natural labelling: i <= j
    in the order implies i <= j as labels, and of all such labellings it
    has the least rows up[i] >> (i + 1) (the larger labels above label
    i), read as integers from i = n - 2 down to 0.  This is the first
    labelling a scan over all 2^C(n,2) relations would meet.  Element
    names are v0, v1, ...; each size is listed in that scan order.

    The lattices of 1 and 2 elements are the chains.  Those of n >= 3
    elements are generated from the least labellings of n - 1 elements
    (orderly generation, McKay 1998): a child inserts a new atom at
    label 1, moves the old labels >= 1 up by one, and puts the atom
    below exactly the old elements of a set S (_atom_up_sets).  S is
    up-closed, holds the top, and meets each principal up-set of a
    non-bottom element in a principal up-set, the up-set of that
    element's join with the atom; these are exactly the S for which the
    child is a lattice.  A child is kept iff _is_least_labelling says it
    is least.

    Complete and free of duplicates: in a least labelling of n >= 3
    elements label 1 is an atom (only label 0 can lie below it), and it
    is in no row but the bottom's, which is the same in every labelling.
    Deleting it leaves a lattice of n - 1 elements (an atom that is not
    the top is no other pair's meet or join, and pairs it was the meet of
    now meet in the bottom) whose rows are the remaining ones, and that
    labelling is least too: a smaller one, with the atom put back at
    label 1, would make the child smaller.  So every lattice of n
    elements is the child of exactly one kept parent with exactly one S,
    and only its least labelling is kept.  Raises
    InvalidParameters for a max_size that is not a nonnegative int and
    TooLarge past LATTICE_CAP = 10 elements.
    """
    _check_int(max_size, "max_size")
    if max_size < 0:
        raise InvalidParameters(f"need max_size >= 0, got {max_size}")
    if max_size > LATTICE_CAP:
        raise TooLarge(
            f"all_lattices was asked for {max_size} elements, over cap "
            f"{LATTICE_CAP} (LATTICE_CAP); build a larger lattice with "
            f"lattice_from_covers and realize it with realize_lattice")
    out: list[lattices.FiniteLattice] = []
    # the least labellings of n elements, as (down-masks, up-masks)
    level: list[tuple[list[int], list[int]]] = []
    for n in range(1, max_size + 1):
        if n == 1:
            level = [([1], [1])]
        elif n == 2:
            level = [([1, 3], [3, 2])]
        else:
            level = [child for down, up in level
                     for child in _atom_children(down, up)]
            # up[i] is row i << (i + 1) | 1 << i, so the up-masks from
            # label n - 1 down compare as the rows
            level.sort(key=lambda lat: lat[1][::-1])
        out += lattices._least_lattices([f"v{i}" for i in range(n)],
                                        (down for down, _ in level))
    return out


def _atom_children(down: list[int], up: list[int]):
    """The children of a least-labelled lattice (down- and up-masks) that
    are least labellings: for each S of _atom_up_sets, the new atom at
    label 1 below the elements of S, the old labels >= 1 moved up by
    one."""
    full = (1 << (len(down) + 1)) - 1
    moved_down = [(d & ~1) << 1 | 1 for d in down[1:]]
    moved_up = [u << 1 for u in up[1:]]
    for s in _atom_up_sets(up):
        child_down = [1, 3] + [d | 2 if s >> j & 1 else d
                               for j, d in enumerate(moved_down, 1)]
        child_up = [full, s << 1 | 2] + moved_up
        if _is_least_labelling(child_down, child_up):
            yield child_down, child_up


def _atom_up_sets(up: list[int]) -> list[int]:
    """The strict up-sets S a new atom may take in a naturally labelled
    lattice (its up-masks) so that the result is a lattice: S is
    up-closed, holds the top, and for each non-bottom y, S & up[y] is
    some up[z] (z is the join of y and the atom).  The elements are
    decided from the top down, so all above x are decided before x; x
    may join S only if everything above it has, and an x left out needs
    S & up[x] to be principal.  An S meeting this for every y also gives
    meets: two members of S whose meet m is not the bottom have S &
    up[m] principal, generated below both, so m is in S."""
    n = len(up)
    principal = set(up)
    sets = [1 << (n - 1)]
    for x in range(n - 2, 0, -1):
        above = up[x] ^ 1 << x
        grown = []
        for s in sets:
            if s & up[x] in principal:
                grown.append(s)
            if above & ~s == 0:
                grown.append(s | 1 << x)
        sets = grown
    return sets


def _is_least_labelling(down: list[int], up: list[int]) -> bool:
    """Whether a naturally labelled lattice, given by its down- and
    up-masks, comes first in scan order of all its natural labellings.

    A scan over all relations numbers a labelling by bit p for the p-th
    pair (i, j) of combinations(range(n), 2), set iff i < j in the order,
    so the pairs of one i take consecutive bits, those of larger i the
    higher ones.
    Two labellings therefore compare as their rows, row i = up[i] >>
    (i + 1) with bit j - i - 1 for each label j above label i, read as
    integers from i = n - 2 down to 0.  The top takes label n - 1 in
    every labelling, and _least_search places the rest.
    """
    n = len(down)
    target = [u >> (i + 1) for i, u in enumerate(up)]
    return _least_search(down, up, target, [1 << (n - 1)] * n, n - 2,
                         (1 << (n - 1)) - 1)


def _least_search(down: list[int], up: list[int], target: list[int],
                  above: list[int], i: int, left: int) -> bool:
    """False iff labels i, i - 1, ..., 0 can go to the unplaced elements
    (mask left) so that the rows, compared from row i down, are less
    than the candidate's (target); above[x] has bit j set for each
    placed label j above element x.

    Label i goes to an element with nothing unplaced above it, so its
    row is complete.  One whose row is less decides it, one whose row is
    greater is pruned, and the ties take label i in turn.  Tied elements
    have the same up-set, and of those with the same strict down-set as
    well (twins) only one is tried: swapping two twins is an
    automorphism that fixes every placed element, since none lies below
    an unplaced one.  Label 0 is the bottom's, the same in every
    labelling.
    """
    if i <= 0:
        return True
    ties = {}
    for x, u in enumerate(up):
        if u & left == 1 << x:  # x unplaced, nothing unplaced above it
            row = above[x] >> (i + 1)
            if row < target[i]:
                return False
            if row == target[i]:
                ties.setdefault(down[x] ^ 1 << x, x)
    for x in ties.values():
        placed = above[:]
        for z in bits(down[x] ^ 1 << x):
            placed[z] |= 1 << i
        if not _least_search(down, up, target, placed, i - 1,
                             left ^ 1 << x):
            return False
    return True


# -- seeded random generators --------------------------------------------

def random_matroid(rng: random.Random, max_elems: int = 10) -> Matroid:
    """A random valid matroid of at most max_elems >= 1 elements, built
    by composing constructions."""
    _check_int(max_elems, "max_elems")
    if max_elems < 1:
        raise InvalidParameters(f"need max_elems >= 1, got {max_elems}")
    n = rng.randint(1, min(max_elems, max(2, max_elems // 2)))
    r = rng.randint(0, n)
    m = uniform(r, n, [f"g{i}" for i in range(1, n + 1)])
    serial = n
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(["dual", "truncate", "free_ext", "sum", "freeprod"])
        if op == "dual":
            m = ops.dual(m)
        elif op == "truncate" and m.matroid_rank >= 1:
            m = ops.truncate(m)
        elif op == "free_ext" and len(m.ground) < max_elems:
            serial += 1
            m = freeprod.free_extension(m, f"g{serial}")
        elif op in ("sum", "freeprod"):
            extra = rng.randint(1, 3)
            if len(m.ground) + extra > max_elems:
                continue
            labels = [f"g{serial + i}" for i in range(1, extra + 1)]
            serial += extra
            other = uniform(rng.randint(0, extra), extra, labels)
            m = (ops.direct_sum(m, other) if op == "sum"
                 else freeprod.free_product(m, other))
    return m


def random_cw2_matroid(rng: random.Random, max_elems: int = 9) -> Matroid:
    """A random valid matroid of cyclic width at most 2: a random chain
    plus, when possible, one extra incomparable cyclic flat.

    Each of up to 20 tries draws the chain f_0 c ... c f_t (ranks r_i) of
    the nested matroid of a random i/f sequence on n elements.  A chain
    of fewer than 3 members is skipped with no further draws: every s
    with f_0 c s c f_t is comparable to both members.  Otherwise up to
    400 of the n * 2^(n-1) candidates (s, rho), 1 <= rho <= |s|, are
    drawn one at a time, uniformly without replacement (_draw_indices),
    and the first that passes _chain_plus_one_ok, an exact test of
    Z0-Z3 for the chain plus one member, is assembled with no validate
    sweep (matroid._assemble).  The draws are an ordered uniform
    sample of the candidates, as a shuffle of all of them would give, so
    the law of the result does not depend on how they are drawn, though
    a shuffling sampler maps each seed to another matroid.  The chain is
    in canonical order, and (s, rho) goes in at its place there.  After
    20 failed tries the last chain is returned (cyclic width 1).  Needs
    max_elems >= 2.
    """
    _check_int(max_elems, "max_elems")
    if max_elems < 2:
        raise InvalidParameters(f"need max_elems >= 2, got {max_elems}")
    for _ in range(20):
        n = rng.randint(2, max_elems)
        seq = "".join(rng.choice("if") for _ in range(n))
        chain = _nested_chain(seq)
        if len(chain) < 3:
            continue  # no candidate is incomparable to a member
        flats, ranks = zip(*chain)
        total = n << (n - 1)
        for i in _draw_indices(rng, total, min(400, total)):
            s, rho = _candidate(i, n)
            if _chain_plus_one_ok(flats, ranks, s, rho):
                at = next((k for k, f in enumerate(flats)
                           if precedes(s, f)), len(flats))
                chain.insert(at, (s, rho))
                return _assemble(_nested_ground(n), chain)
    return nested_from_sequence(seq)  # fallback: the last chain


def _draw_indices(rng: random.Random, total: int, count: int):
    """count distinct indices of range(total), an ordered uniform sample
    without replacement, one rng.randrange call each: a partial
    Fisher-Yates shuffle (Durstenfeld 1964) of range(total) whose moved
    slots are kept in a dict, so nothing of size total is built."""
    moved: dict[int, int] = {}
    for k in range(count):
        j = rng.randrange(k, total)
        pick = moved.get(j, j)
        moved[j] = moved.get(k, k)
        yield pick


def _candidate(i: int, n: int) -> tuple[int, int]:
    """The i-th (s, rho), 0 <= i < n * 2^(n-1), of the pairs of a nonempty
    s of n elements and 1 <= rho <= |s|: each is one element e of s, so
    i gives e = i >> (n-1) and the rest of s in its low n-1 bits, and
    rho = 1 + |{x in s : x < e}|."""
    e = i >> (n - 1)
    rest = i & ((1 << (n - 1)) - 1)
    low = rest & ((1 << e) - 1)
    return low | (1 << e) | ((rest ^ low) << 1), 1 + low.bit_count()


def _chain_plus_one_ok(chain, ranks, s: int, rho: int) -> bool:
    """Whether a valid chain of cyclic flats with their ranks, plus
    (s, rho), satisfies Z0-Z3 with s incomparable to some member, in
    O(k):
      Z0: f_0 c s c f_t;
      Z2: 0 < rho - r_i < |s - f_i| for each f_i c s, and
          0 < r_i - rho < |f_i - s| for each s c f_i;
      Z3: with lo the last member inside s and hi the first containing
          s (the meet and join of s with every incomparable f_i),
          rho + r_i >= r(hi) + r(lo) + |(s n f_i) - lo| for each f_i
          strictly between them; comparable pairs meet Z3 with equality.
    An s comparable to every member (a member among them) gives False.
    """
    if chain[0] & ~s or s & ~chain[-1]:
        return False  # no meet with the bottom or no join with the top
    lo = hi = None
    between = []
    for f, r in zip(chain, ranks):
        if f & ~s == 0:
            if not 0 < rho - r < popcount(s & ~f):
                return False
            lo = (f, r)
        elif s & ~f == 0:
            if not 0 < r - rho < popcount(f & ~s):
                return False
            if hi is None:
                hi = (f, r)
        else:
            between.append((f, r))
    if not between:
        return False  # s is comparable to every member
    (lo_f, lo_r), (_, hi_r) = lo, hi
    return all(rho + r >= hi_r + lo_r + popcount(s & f & ~lo_f)
               for f, r in between)
