"""Generators: uniform matroids, lattice realizations, nested matroids,
the P_n excluded minors, the superexponential permutation family, a
small catalog, and the uniform-minor extraction from long chains.

Also houses the exhaustive small-lattice enumerator and the seeded
random-matroid generators used by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (ChainTooShort, InvalidParameters, NotNested, TooLarge,
                     UnknownName)
from .groundsets import GroundSet, bits, popcount
from .lattices import FiniteLattice, _converse, is_chain
from .matroid import Matroid, RankedFamily, validate
from .ops import MinorSpec, direct_sum, dual, minor, truncate
from .freeprod import free_extension, free_product


def uniform(r: int, n: int, labels=None) -> Matroid:
    """The uniform matroid U_{r,n}."""
    if not 0 <= r <= n:
        raise InvalidParameters(f"need 0 <= r <= n, got r={r}, n={n}")
    if labels is None:
        labels = [f"e{i}" for i in range(1, n + 1)]
    labels = list(labels)
    if len(labels) != n:
        raise InvalidParameters(f"expected {n} labels, got {len(labels)}")
    if r == n:
        sets = [([], 0)]
    elif r == 0:
        sets = [(labels, 0)]
    else:
        sets = [([], 0), (labels, r)]
    return Matroid.from_labels(labels, sets)


# -- lattice realization ------------------------------------------------

@dataclass(frozen=True)
class Realization:
    matroid: Matroid
    witness: tuple  # pairs (lattice element name, flat mask)


def realize_lattice(lat: FiniteLattice, variant: str = "plain") -> Realization:
    """A matroid whose lattice of cyclic flats is isomorphic to lat.

    plain: ground is B u {satellites}, where B is the lattice minus its
    top; the flat for z is V_z u {s_x : x <= z} with rank |V_z|, where
    V_z = {y : y not >= z}.  sublattice: each z gets its own block S_z of
    |V_z| + 1 fresh points and the flat for z is the union of the blocks
    below z; this variant additionally satisfies F_x n F_y = F_{x ^ y}.
    """
    if variant not in ("plain", "sublattice"):
        raise InvalidParameters(f"unknown variant {variant!r}")
    k = len(lat)
    up = _converse(lat.down)
    v = [((1 << k) - 1) & ~u for u in up]  # V_z as lattice-index mask

    if variant == "plain":
        base = [i for i in range(k) if i != lat.top]
        labels = [lat.elements[i] for i in base] \
            + [f"s:{lat.elements[i]}" for i in range(k)]
        pos = {i: p for p, i in enumerate(base)}
        entries = []
        witness = []
        for z in range(k):
            mask = 0
            for y in bits(v[z]):
                mask |= 1 << pos[y]
            for x in bits(lat.down[z]):
                mask |= 1 << (len(base) + x)
            entries.append((mask, popcount(v[z])))
            witness.append((lat.elements[z], mask))
    else:
        labels = []
        block = []
        for z in range(k):
            start = len(labels)
            size = popcount(v[z]) + 1
            labels += [f"{lat.elements[z]}:{t}" for t in range(size)]
            block.append(((1 << size) - 1) << start)
        entries = []
        witness = []
        for z in range(k):
            mask = 0
            for y in bits(lat.down[z]):
                mask |= block[y]
            entries.append((mask, popcount(v[z])))
            witness.append((lat.elements[z], mask))
    m = validate(RankedFamily(GroundSet(labels), entries))
    return Realization(m, tuple(witness))


# -- nested matroids ----------------------------------------------------

def nested_from_sequence(seq: str) -> Matroid:
    """The nested matroid of an i/f sequence, as its chain of cyclic flats.

    'i' adds a fresh isthmus (cyclic flats unchanged); 'f' adds a fresh
    element freely, M box U_{0,1}, whose cyclic flats are M's without
    E(M), and E(M) + e at rank r(M).  Elements are e1, e2, ... in order.
    """
    if any(c not in "if" for c in seq):
        raise InvalidParameters(f"sequence must be over 'i'/'f': {seq!r}")
    chain = [(0, 0)]  # the empty matroid
    rank = 0
    for pos, step in enumerate(seq):
        if step == "i":
            rank += 1
            continue
        if chain[-1][0] == (1 << pos) - 1:
            chain.pop()  # E(M) is no longer closed
        chain.append(((2 << pos) - 1, rank))
    labels = [f"e{pos}" for pos in range(1, len(seq) + 1)]
    return validate(RankedFamily(GroundSet(labels), chain))


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
    the leftmost embedding.
    """
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
    return True, MinorSpec(contract, delete)


# -- excluded minors and the permutation family --------------------------

def excluded_minor_pn(n: int) -> Matroid:
    """P_n: the truncation to rank n of U_{n-1,n} + U_{n-1,n}, so
    Z(P_n) = {{}: 0, A: n-1, B: n-1, A u B: n} with A = {a1..an} and
    B = {b1..bn}: truncation keeps the flats of rank below n."""
    if n < 2:
        raise InvalidParameters(f"need n >= 2, got {n}")
    a = [f"a{i}" for i in range(1, n + 1)]
    b = [f"b{i}" for i in range(1, n + 1)]
    return Matroid.from_labels(
        a + b, [([], 0), (a, n - 1), (b, n - 1), (a + b, n)])


def gimenez_family(n: int, sigma) -> Matroid:
    """One member of the n! family on 4n+5 elements with cyclic width 2.

    sigma is a permutation of 1..n (sequence of images).  Two chains
    share bottom and top: A_i grows by {z_i, w_i}, B_i by {z_i,
    w_{sigma(i)}}; ranks are n+1+i on both chains and 2n+2 overall.
    """
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
    a = ["a", "a'", "a''"] + [f"x{i}" for i in range(1, n + 1)]
    b = ["b", "b'"] + [f"y{i}" for i in range(1, n + 1)]
    sets = [([], 0), (list(a), n + 1), (list(b), n + 1)]
    for i in range(1, n + 1):
        a = a + [f"z{i}", f"w{i}"]
        b = b + [f"z{i}", f"w{sigma[i - 1]}"]
        sets.append((list(a), n + 1 + i))
        sets.append((list(b), n + 1 + i))
    sets.append((labels, 2 * n + 2))
    return Matroid.from_labels(labels, sets)


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

@dataclass(frozen=True)
class ChainMinor:
    """Minor specs extracted from a chain of k+2 cyclic flats: raw is the
    restriction/contraction/deletion from the constructive proof (a
    uniform minor of rank >= k and nullity >= 2); trimmed reduces it to
    exactly U_{k,k+2}."""

    raw: MinorSpec
    trimmed: MinorSpec


def uniform_minor_from_chain(m: Matroid, k: int) -> ChainMinor:
    """Extract a U_{k,k+2} minor from a matroid whose cyclic flats form a
    chain with at least k+2 members.

    Uses the first k+2 chain members X_0 c ... c X_{k+1}: restrict to
    X_{k+1}, contract I_{k+1}, and delete X_0 u F_1 u ... u F_{k-1},
    where each X_j - X_{j-1} splits into I_j (rank increase) and F_j
    (free part); the split is determined only in cardinality, so the
    lexicographically least choice is taken.
    """
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
        ni = ranks[j] - ranks[j - 1]
        iset = 0
        for x in bits(diff):
            if ni == 0:
                break
            iset |= 1 << x
            ni -= 1
        isets.append(iset)
        fsets.append(diff & ~iset)
    delete = m.ground.full & ~chain[k + 1]  # restrict to X_{k+1}
    delete |= chain[0]
    for j in range(1, k):
        delete |= fsets[j]
    raw = MinorSpec(isets[k + 1], delete)
    raw_minor = minor(m, raw)
    extra_contract_n = raw_minor.matroid_rank - k
    extra_delete_n = raw_minor.nullity - 2
    extra_contract = extra_delete = 0
    taken = 0
    for lab in raw_minor.ground.labels:
        bit = 1 << m.ground.index[lab]
        if taken < extra_contract_n:
            extra_contract |= bit
        elif taken < extra_contract_n + extra_delete_n:
            extra_delete |= bit
        else:
            break
        taken += 1
    trimmed = MinorSpec(raw.contract | extra_contract,
                        raw.delete | extra_delete)
    return ChainMinor(raw, trimmed)


# -- exhaustive small lattices -------------------------------------------

LATTICE_CAP = 8  # OEIS A006966: 222 lattices of 8 elements, 1,078 of 9


def all_lattices(max_size: int) -> list[FiniteLattice]:
    """Every lattice with 1..max_size elements, up to isomorphism.

    Only naturally labelled lattices are built: i <= j in the order
    implies i <= j as indices (every lattice has such a labelling).  Each
    prefix {0..j} of one is a down-set, hence a meet-semilattice with
    bottom 0, so candidates grow one element at a time: the strict
    down-set S of element j holds 0 and meets every earlier down-mask in
    an earlier down-mask (so S is down-closed); the top comes last, with
    S the whole prefix.  The candidates of each size are every natural
    labelling of every lattice of that size, each once.

    A candidate is kept iff it is the least natural labelling of its
    lattice in the order of _scan_number, so the representatives are
    those a scan over all 2^C(n,2) relations would keep first, and no
    two candidates are compared.  Two labellings compare as their rows
    up[i] >> (i + 1), the larger labels above label i, read from
    i = n - 2 down to 0.  _is_least_labelling places labels in that
    order, each on a maximal unplaced element, and compares each row as
    it completes; of twins (same strict down- and up-sets) it tries only
    one.  Kept lattices are listed in scan order, each built from its
    down-masks alone.  Element names are v0, v1, ...  Raises
    InvalidParameters for a max_size that is not a nonnegative int and
    TooLarge past LATTICE_CAP = 8 elements.
    """
    if not isinstance(max_size, int) or isinstance(max_size, bool):
        raise InvalidParameters(f"max_size {max_size!r} is not an integer")
    if max_size < 0:
        raise InvalidParameters(f"need max_size >= 0, got {max_size}")
    if max_size > LATTICE_CAP:
        raise TooLarge(
            f"all_lattices was asked for {max_size} elements, over cap "
            f"{LATTICE_CAP} (LATTICE_CAP); build a larger lattice with "
            f"lattice_from_covers and realize it with realize_lattice")
    out: list[FiniteLattice] = []
    # naturally labelled meet-semilattices with bottom 0, of size n - 1,
    # as (down-masks, up-masks)
    semis: list[tuple[list[int], list[int]]] = [([], [])]
    for n in range(1, max_size + 1):
        names = [f"v{i}" for i in range(n)]
        top = 1 << (n - 1)
        kept = []
        for prefix, up in semis:
            down = prefix + [(1 << n) - 1]
            if _is_least_labelling(down, [u | top for u in up] + [top]):
                kept.append(down)
        for down in sorted(kept, key=_scan_number):
            out.append(FiniteLattice(names, down))
        if n < max_size:
            # element n - 1 with strict down-set s is above each i in s
            semis = [(prefix + [s | top],
                      [u | top if s >> i & 1 else u
                       for i, u in enumerate(up)] + [top])
                     for prefix, up in semis
                     for s in _strict_down_sets(prefix)]
    return out


def _scan_number(down: list[int]) -> int:
    """The number of a naturally labelled order in the scan over all
    relations: bit p is set iff the p-th pair (i, j) of
    combinations(range(n), 2) has i < j in the order."""
    n = len(down)
    return sum(1 << (i * (2 * n - i - 1) // 2 + j - i - 1)
               for j, d in enumerate(down) for i in bits(d & ~(1 << j)))


def _is_least_labelling(down: list[int], up: list[int]) -> bool:
    """Whether a naturally labelled lattice, given by its down- and
    up-masks, has the least _scan_number of all its natural labellings.

    Bit p of a scan number stands for the p-th pair (i, j), so the pairs
    of one i take consecutive bits, those of larger i the higher ones.
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


def _strict_down_sets(down: list[int]) -> list[int]:
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


# -- seeded random generators --------------------------------------------

def random_matroid(rng: random.Random, max_elems: int = 10) -> Matroid:
    """A random valid matroid built by composing constructions."""
    n = rng.randint(1, max(2, max_elems // 2))
    r = rng.randint(0, n)
    m = uniform(r, n, [f"g{i}" for i in range(1, n + 1)])
    serial = n
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(["dual", "truncate", "free_ext", "sum", "freeprod"])
        if op == "dual":
            m = dual(m)
        elif op == "truncate" and m.matroid_rank >= 1:
            m = truncate(m)
        elif op == "free_ext" and len(m.ground) < max_elems:
            serial += 1
            m = free_extension(m, f"g{serial}")
        elif op in ("sum", "freeprod"):
            extra = rng.randint(1, 3)
            if len(m.ground) + extra > max_elems:
                continue
            labels = [f"g{serial + i}" for i in range(1, extra + 1)]
            serial += extra
            other = uniform(rng.randint(0, extra), extra, labels)
            m = direct_sum(m, other) if op == "sum" else free_product(m, other)
    return m


def random_cw2_matroid(rng: random.Random, max_elems: int = 9) -> Matroid:
    """A random valid matroid of cyclic width at most 2: a random chain
    plus, when possible, one extra incomparable cyclic flat.

    The chain f_0 c ... c f_t (ranks r_i) is the nested matroid of a
    random i/f sequence, and up to 400 of its shuffled (s, rho)
    candidates are tried in turn.  One incomparable to some f_i is
    decided from the chain in O(k) (Z0-Z3 of chain u {(s, rho)}):
      Z0: f_0 c s c f_t;
      Z2: 0 < rho - r_i < |s - f_i| for each f_i c s, and
          0 < r_i - rho < |f_i - s| for each s c f_i;
      Z3: with lo the last member inside s and hi the first containing
          s (the meet and join of s with every incomparable f_i),
          rho + r_i >= r(hi) + r(lo) + |(s n f_i) - lo| for each f_i
          strictly between them; comparable pairs meet Z3 with equality.
    The first candidate that passes is returned through validate, which
    stays the gate: the rule agrees with validate, so each seed gives the
    matroid that validating every candidate would, and a disagreement
    raises NotAMatroid.
    """
    for _ in range(20):
        length = rng.randint(2, max_elems)
        seq = "".join(rng.choice("if") for _ in range(length))
        m = nested_from_sequence(seq)
        n = len(m.ground)
        candidates = [(s, rho) for s in range(1, 1 << n)
                      for rho in range(1, popcount(s) + 1)]
        rng.shuffle(candidates)
        base = list(zip(m.flats, m.flat_ranks))
        for s, rho in candidates[:400]:
            if all(s & ~f == 0 or f & ~s == 0 for f in m.flats):
                continue  # a member, or comparable to every member
            if _chain_plus_one_ok(m.flats, m.flat_ranks, s, rho):
                return validate(RankedFamily(m.ground, base + [(s, rho)]))
    return m  # fallback: the chain itself (cyclic width 1)


def _chain_plus_one_ok(chain, ranks, s: int, rho: int) -> bool:
    """Whether a valid chain of cyclic flats with their ranks, plus
    (s, rho) for an s incomparable to some member, satisfies Z0-Z3: the
    O(k) rule of random_cw2_matroid."""
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
    (lo_f, lo_r), (_, hi_r) = lo, hi
    return all(rho + r >= hi_r + lo_r + popcount(s & f & ~lo_f)
               for f, r in between)
