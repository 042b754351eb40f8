"""Duality, minors, relaxation, direct sums, truncation, isomorphism.

Everything operates on the cyclic-flats representation.  Minors,
truncation and the Higgs lift each follow one rule on the cyclic flats,
so they never enumerate subsets and work past ENUM_CAP.  Isomorphism
is a search over the lattices of cyclic flats, not the ground sets (see
is_isomorphic), so it has no element cap.

No operation here validates its result a second time: its operand
was validated, and the result is a matroid by the rule it follows.
relabel keeps every mask, and direct_sum puts together the factors of
its two summands, each checked when its summand was validated.  dual
reads its factors off its operand's, one per factor.  minor carries
over the factors it does not touch and finds the factors of each one it
does from that factor's minor alone.  relax, truncate and higgs_lift
each build a new family of cyclic flats by the standard rule for that
operation (cited in each docstring) and pass it to matroid._assemble,
which finds its factors with no sweep over pairs.  validate stays the
gate for families from outside.

dual, relabel, direct_sum and minor build only the loops and the factors
of their result, never its cyclic flats, which the Matroid's view of Z
lists (matroid module docstring).  Canonical order is decided and sorted
into by groundsets.canonical alone (groundsets module docstring).  Each
factor's pairs stay in that order: dual reverses each factor's
complements, since complementing reverses canonical order; relabel and
direct_sum keep or shift every mask, and minor packs those of the
factors it carries over onto the kept elements, which keeps their order.
Only minor may sort, through canonical, one changed factor's family at a
time: the minor of a factor can take more elements from one flat than
from another.  relax, truncate and higgs_lift emit canonical order to
_assemble: they keep a subsequence of the operand's flats, truncate with
E last, and higgs_lift puts the empty set first.
"""

from __future__ import annotations

from collections import namedtuple

from . import lattices
from .errors import (InvalidParameters, NotRelaxable, RankZero, TooLarge,
                     _check_int)
from .groundsets import (GroundSet, _down_masks, atoms, bits, canonical,
                         class_profile, popcount, set_text)
from .matroid import (Matroid, RankedFamily, _assemble, _factors, _product,
                      _support, validate)

MINOR_SEARCH_CAP = 131_072  # most (C, D) profile pairs has_minor visits


def dual(m: Matroid) -> Matroid:
    """The dual matroid: cyclic flats are the complements of m's.

    r*(E - X) = |E - X| - r(M) + r(X).  An involution.  A set is a
    cyclic flat of M* iff its complement is one of M (flats and cyclic
    sets swap under complement), so the family is a matroid's with no
    second validation.

    The dual of a direct sum is the sum of the duals, so each factor
    (E_i, pairs) of m gives the factor E_i of the dual, with the
    reversed complements E_i - Y at |E_i - Y| - r_i(E_i) + r_i(Y), in
    canonical order as complementing reverses it.  The loops of the
    dual are m's isthmuses, E - 1_Z.
    """
    return Matroid(m.ground, m.ground.full & ~m.top, tuple(
        (e, tuple((e & ~y, popcount(e & ~y) - pairs[-1][1] + r)
                  for y, r in reversed(pairs)))
        for e, pairs in m.factors))


class MinorSpec(namedtuple("MinorSpec", "contract delete")):
    """A (contract, delete) pair of disjoint subset masks."""

    __slots__ = ()

    def __new__(cls, contract: int, delete: int):
        _check_int(contract, "contract mask")
        _check_int(delete, "delete mask")
        if contract & delete:
            raise InvalidParameters("contract and delete sets overlap")
        return super().__new__(cls, contract, delete)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)


def minor(m: Matroid, spec: MinorSpec) -> Matroid:
    """The minor m \\ D / C, with C = spec.contract, D = spec.delete.

    Its rank oracle is r'(A) = r(A u C) - r(C).  A minor of a direct
    sum is the sum of the summands' minors (_minor_flats), so a factor
    that C u D misses is carried over, its masks packed onto the kept
    elements, and one that C u D meets gets the cyclic flats of
    _factor_minor_flats, put in canonical order by groundsets.canonical
    and split into factors (_factors) on their own; the least of them,
    its new loops, joins the loops.  The factors go in order of least
    element.  No family is validated again; one that fails _factors
    breaks the rule, and validate, given that family with the loops,
    then raises NotAMatroid with a witness.
    """
    c, d = spec.contract, spec.delete
    removed = c | d
    if removed & ~m.ground.full:
        raise InvalidParameters("minor spec outside ground set")
    keep = m.ground.full & ~removed
    runs = _runs(keep)

    def pack(x):
        y = 0
        for run, shift in runs:
            y |= (x & run) >> shift
        return y

    ground = GroundSet(m.ground.names(keep))
    bottom, factors = pack(m.bottom & ~removed), []
    for e, pairs in m.factors:
        if not e & removed:
            factors.append((pack(e), tuple((pack(y), r) for y, r in pairs)))
            continue
        found = _factor_minor_flats(pairs, c & e, d & e)
        pairs = canonical((pack(x), r) for x, r in found.items())
        split = _factors(dict(pairs))
        if split is None:  # the rule is broken: validate names how
            validate(RankedFamily(ground, [(bottom | x, r)
                                           for x, r in pairs]))
        bottom |= pairs[0][0]  # the factor's new loops
        factors.extend(split)
    factors.sort(key=lambda factor: factor[0] & -factor[0])
    return Matroid(ground, bottom, tuple(factors))


def _runs(keep: int) -> list[tuple[int, int]]:
    """keep's runs of consecutive set bits, as (run mask, shift) pairs:
    the bits of x in keep, packed down to the low bits in order, are the
    union of (x & run) >> shift over the runs."""
    runs = []
    packed = 0  # the kept bits below the current run
    while keep:
        low = keep & -keep
        run = keep & ~(keep + low)  # the carry clears the run
        runs.append((run, low.bit_length() - 1 - packed))
        packed += run.bit_count()
        keep ^= run
    return runs


def _minor_flats(m: Matroid, c: int, d: int) -> dict[int, int]:
    """Z(m \\ D / C) as {mask: rank}, masks over m's ground set, for
    disjoint C = c and D = d.

    A minor of a direct sum is the sum of the summands' minors, so Z of
    the minor is the product of the minors' Z over m's factors, with the
    loops 0_Z - (C u D) in every member; isthmuses lie in no cyclic flat.
    A factor that C u D misses keeps its pairs, and one it meets gets the
    rule of _factor_minor_flats.
    """
    removed = c | d
    return _product(m.bottom & ~removed, [
        _factor_minor_flats(pairs, c & e, d & e).items() if e & removed
        else pairs for e, pairs in m.factors])


def _factor_minor_flats(pairs, c: int, d: int) -> dict[int, int]:
    """The cyclic flats {mask: rank} of the minor \\ D / C of one factor,
    given by its pairs (Y, r(Y)), for disjoint C = c and D = d inside it.

    For Y in the factor's Z let G = Y - D; then G - C is a cyclic flat
    of the minor, of rank r(G u C) - r(C), iff G is cyclic and G u C is
    closed once D is deleted.  Every cyclic flat of the minor arises so.
    A Y that avoids D is G itself, cyclic, and closed once D is deleted;
    with C empty it is kept at rank r(Y) with no rank computed.  With C
    empty, G u C is G, so the support of G serves both tests.
    """
    rc = _support(pairs, c)[0]
    found = {}
    for y, ry in pairs:
        g = y & ~d
        if g != y:
            support = _support(pairs, g)
            if g & ~support[1]:
                continue  # G has an isthmus
        elif not c:
            found[y] = ry
            continue
        if c:
            support = _support(pairs, g | c)
        r, _, union = support
        if union & ~(g | c | d):
            continue  # cl(G u C) gains an element outside D
        found[g & ~c] = r - rc
    return found


def restriction(m: Matroid, keep: int) -> Matroid:
    """m restricted to the subset keep (delete everything else)."""
    _check_int(keep, "keep mask")
    if keep & ~m.ground.full:
        raise InvalidParameters("restriction outside ground set")
    return minor(m, MinorSpec(0, m.ground.full & ~keep))


def contraction(m: Matroid, away: int) -> Matroid:
    """m contracted by the subset away."""
    return minor(m, MinorSpec(away, 0))


def relax(m: Matroid, f: int) -> Matroid:
    """Drop a cyclic flat comparable only to the least and greatest ones.

    Generalizes circuit-hyperplane relaxation.  Such a flat is the meet
    or join of no other pair, so the rest is still a lattice with the
    same meets, joins and ranks, and meets Z0-Z3 as m's family does; it
    is assembled with no second validation.
    """
    if f not in m.flats:
        raise NotRelaxable("not a cyclic flat")
    if f == m.bottom or f == m.top:
        raise NotRelaxable("cannot relax the least or greatest cyclic flat")
    for g in m.flats:
        if g in (f, m.bottom, m.top):
            continue
        if f & ~g == 0 or g & ~f == 0:
            raise NotRelaxable(
                f"flat is comparable to {set_text(m.ground.names(g))}")
    entries = [(g, r) for g, r in zip(m.flats, m.flat_ranks) if g != f]
    return _assemble(m.ground, entries)


def relabel(m: Matroid, prefix: str) -> Matroid:
    """Prefix every ground-set label; structure unchanged.

    Every mask keeps its index, so m's loops and factors carry over as
    they are, with no second validation.
    """
    ground = GroundSet(prefix + lab for lab in m.ground.labels)
    return Matroid(ground, m.bottom, m.factors)


def direct_sum(m: Matroid, n: Matroid) -> Matroid:
    """Direct sum; the lattice of cyclic flats is the product of the two.

    Its factors are m's followed by n's (moved past m's elements), and
    its loops are both summands' loops, so its cyclic flats are the
    X u Y, X in Z(m) and Y in Z(n), at rank r(X) + r(Y).  validate would
    decide the product factor by factor (matroid module docstring), and
    each of these factors passed that check when m or n was validated,
    so the sum is built with no second validation.
    """
    shift = len(m.ground)
    return Matroid(m.ground.concat(n.ground), m.bottom | n.bottom << shift,
                   m.factors + tuple(
                       (e << shift, tuple((y << shift, r) for y, r in pairs))
                       for e, pairs in n.factors))


def truncate(m: Matroid) -> Matroid:
    """Truncation: the cyclic flats F with r(F) < r(M) - 1, and E at rank
    r(M) - 1, as the rank min(r(A), r(M) - 1) keeps sets below r(M) - 1
    and makes E the only flat above, with no isthmus.  That rank is a
    matroid's, so the family is assembled with no second validation."""
    rank = m.matroid_rank - 1
    if rank < 0:
        raise RankZero("cannot truncate a rank-0 matroid")
    entries = [(f, r) for f, r in zip(m.flats, m.flat_ranks) if r < rank]
    return _assemble(m.ground, entries + [(m.ground.full, rank)])


def higgs_lift(m: Matroid) -> Matroid:
    """The Higgs lift: the cyclic flats F with |F| - r(F) >= 2 at rank
    r(F) + 1, and the empty set at rank 0, as the dual of truncate's
    rule on M* (E - F is kept iff r*(E - F) < r(M*) - 1).  The lift is
    the dual of a truncation, a matroid, so the family is assembled with
    no second validation.  The empty set is no such F, and goes first."""
    if m.nullity == 0:
        raise RankZero("cannot lift a matroid of full rank r(M) = |E|")
    entries = [(f, r + 1) for f, r in zip(m.flats, m.flat_ranks)
               if popcount(f) - r >= 2]
    return _assemble(m.ground, [(0, 0)] + entries)


# -- isomorphism ---------------------------------------------------------

def is_isomorphic(m: Matroid, n: Matroid):
    """Isomorphism of matroids, with a label bijection witness.

    A matroid is determined by its cyclic flats and their ranks, so m
    and n are isomorphic iff some lattice isomorphism of Z(m) onto Z(n)
    keeps |F| and r(F) and sends each element class (the elements lying
    in the same cyclic flats) to a class of the same size.  Each matroid
    becomes one coloured poset of its cyclic flats and its classes
    (_class_poset), and an order isomorphism of the two posets is
    exactly such a lattice isomorphism.  Returns (bool, witness) where
    witness maps the labels of each class of m, in order, to those of
    the class its node goes to.
    """
    if (len(m.ground), m.matroid_rank, len(m.flats)) \
            != (len(n.ground), n.matroid_rank, len(n.flats)):
        return False, None
    classes_m, inside_m = class_profile(m.flats, m.ground.full)
    classes_n, inside_n = class_profile(n.flats, n.ground.full)
    if sorted(map(popcount, classes_m)) != sorted(map(popcount, classes_n)):
        return False, None
    down_m, colours_m = _class_poset(m, classes_m, inside_m)
    down_n, colours_n = _class_poset(n, classes_n, inside_n)
    phi = lattices._order_isomorphism(down_m, down_n, colours_m, colours_n)
    if phi is None:
        return False, None
    k = len(m.flats)
    return True, {x: y for c, elems in enumerate(classes_m)
                  for x, y in zip(m.ground.names(elems),
                                  n.ground.names(classes_n[phi[k + c] - k]))}


def _class_poset(m: Matroid, classes, inside) -> tuple[list[int], list]:
    """(down-masks, colours) of m's poset for is_isomorphic, from the
    class_profile of its cyclic flats: node i < k = |Z(m)| is flat i,
    coloured (|F|, r(F)), and node k + c is class c, coloured (-1, |c|),
    below the flats that hold it.  No flat colour has a negative size."""
    k = len(m.flats)
    down = [d | c << k for d, c in zip(_down_masks(m.flats), inside)]
    down += [1 << (k + c) for c in range(len(classes))]
    colours = [(popcount(f), r) for f, r in zip(m.flats, m.flat_ranks)]
    return down, colours + [(-1, popcount(c)) for c in classes]


def has_minor(m: Matroid, n: Matroid):
    """Search for a minor of m isomorphic to n, over element-class orbits.

    Returns (bool, MinorSpec | None); the witness is the canonically
    least (contract, delete) pair: contract sets by size, then
    lexicographically by sorted index tuple, and for each, delete sets
    likewise.

    Invariants of the cyclic flats that never rise under a minor answer
    "no" before any search, in this order:

    1. size, rank and nullity;
    2. the number of cyclic flats |Z|, in O(1).  A single deletion or
       contraction maps Z(N) into Z(M) injectively and keeping order:
       for N = M \\ e, Y goes to cl_M(Y), and Y is that image minus e;
       for N = M / e with e not a loop, Y goes to the union of the
       circuits of M inside Y u e, which is Y or Y u e and a cyclic
       flat of M (contracting a loop deletes it);
    3. the cap (below), so a call it refuses stays as cheap as it was;
    4. the cyclic width, the width of Z, which never rises under a
       minor (the matroids of width at most k are minor-closed).  It
       is computed only when n's width is at least 2, so a nested
       pattern (width 1) pays for one small width computation.

    Those checks only ever answer "no", so every witness is still the
    least one _minor_search finds.

    Raises TooLarge when the profile pairs (_profile_pairs) are more
    than MINOR_SEARCH_CAP.
    """
    if len(n.ground) > len(m.ground) or n.matroid_rank > m.matroid_rank \
            or n.nullity > m.nullity or len(n.flats) > len(m.flats):
        return False, None
    classes = atoms(m.ground.full, m.flats)
    pairs = _profile_pairs([popcount(k) for k in classes],
                           len(m.ground) - len(n.ground))
    if pairs > MINOR_SEARCH_CAP:
        raise TooLarge(
            f"has_minor would visit {pairs} (contract, delete) class-count "
            f"profile pairs, over cap {MINOR_SEARCH_CAP} (MINOR_SEARCH_CAP); "
            f"for nested matroids, nested_sequence_of and "
            f"nested_subsequence_minor decide it without a search")
    width_n = lattices.width_of_family(n.flats)
    if width_n >= 2 and width_n > lattices.width_of_family(m.flats):
        return False, None
    return _minor_search(m, n)


def _minor_search(m: Matroid, n: Matroid):
    """has_minor's search, with no gate and no cap: the least minor spec
    of m isomorphic to n, as (True, spec), or (False, None).

    Elements of one class (groundsets.atoms of the cyclic flats: they
    lie in the same cyclic flats) are exchanged by automorphisms of m,
    so only the orbit-minimal pairs are tried, one per pair of
    class-count profiles: for each size of C, the contract sets C of
    _orbit_sets(classes, 0, |C|), and for each C the delete sets D of
    _orbit_sets(classes, C, |m| - |n| - |C|).  Moving an element of C
    (then of D) to a lower unused one of its class never raises a pair's
    place in the order, and both walks follow it, so the first pair
    found is the least witness.

    A C with r(C) > r(m) - r(n) or |C| - r(C) > nullity(m) - nullity(n)
    is skipped before any D, as m / C \\ D has rank at most r(m) - r(C)
    and nullity at most nullity(m) - |C| + r(C).  Each pair is tested on
    its rank r(E - D) - r(C), loops cl(C) - C - D and coloops
    (E - D) - inter(E - D) - C, inter(E - D) being the intersection of
    the flats attaining r(E - D); then on the count and sorted (|F|, r)
    list of the cyclic flats of _minor_flats.  Only a pair that passes
    is built by minor and tested by is_isomorphic.
    """
    full = m.ground.full
    classes = atoms(full, m.flats)
    removed = len(m.ground) - len(n.ground)
    loops_n, coloops_n = popcount(n.loops()), popcount(n.isthmuses())
    profile_n = sorted(zip(map(popcount, n.flats), n.flat_ranks))
    for size in range(removed + 1):
        for c in _orbit_sets(classes, 0, size):
            rc, _, union = m.rank_support(c)
            if rc > m.matroid_rank - n.matroid_rank \
                    or size - rc > m.nullity - n.nullity:
                continue
            for d in _orbit_sets(classes, c, removed - size):
                r, inter, _ = m.rank_support(full & ~d)
                if r - rc != n.matroid_rank \
                        or popcount(union & ~(c | d)) != loops_n \
                        or popcount(full & ~(d | inter | c)) != coloops_n:
                    continue
                flats = _minor_flats(m, c, d)
                if len(flats) != len(profile_n) or profile_n != sorted(
                        zip(map(popcount, flats), flats.values())):
                    continue
                if is_isomorphic(minor(m, MinorSpec(c, d)), n)[0]:
                    return True, MinorSpec(c, d)
    return False, None


def _profile_pairs(sizes, removed: int) -> int:
    """The number of class-count profile pairs (c, d) with sum
    removed, for classes of the given sizes: the coefficient of
    x^removed in the product over classes K of sum_{t <= |K|} (t + 1) x^t,
    as t = c_K + d_K elements of K go in t + 1 ways."""
    poly = [1] + [0] * removed
    for k in sizes:
        poly = [sum((t + 1) * poly[i - t] for t in range(min(k, i) + 1))
                for i in range(removed + 1)]
    return poly[removed]


def _orbit_sets(classes, avoid: int, size: int) -> list[int]:
    """The sets of size elements outside avoid that take, from each class
    K, the lowest-indexed elements of K - avoid, in canonical order.

    A walk over the elements outside avoid, in index order, that tries
    each element in before out, and takes an element only after the one
    of its class just below it.  room counts the elements still
    takeable: once one is left out, no later one of its class is.  The
    walk follows the in branch and stacks the out branch, so it needs no
    recursion however many elements a set takes.
    """
    below = {}  # element -> the element of its class just below it, or -1
    tail = {}   # element -> the elements of its class from it upward
    for k in classes:
        k &= ~avoid
        prev, left = -1, popcount(k)
        for i in bits(k):
            below[i], tail[i] = prev, left
            prev, left = i, left - 1
    order = sorted(below)
    found = []
    stack = [(0, 0, size, len(order))]
    while stack:
        j, taken, left, room = stack.pop()
        while left and room >= left:
            i, j = order[j], j + 1
            if below[i] < 0 or (taken >> below[i]) & 1:
                stack.append((j, taken, left, room - tail[i]))
                taken, left, room = taken | 1 << i, left - 1, room - 1
        if not left:
            found.append(taken)
    return found
