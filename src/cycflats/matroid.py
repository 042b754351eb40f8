"""The canonical matroid representation: cyclic flats with ranks.

A candidate (family of subsets, rank for each member) is validated against
four conditions:

  Z0: the family is a lattice under inclusion;
  Z1: the least member has rank 0;
  Z2: 0 < r(Y) - r(X) < |Y - X| whenever X is properly contained in Y;
  Z3: r(X) + r(Y) >= r(X v Y) + r(X ^ Y) + |(X n Y) - (X ^ Y)|.

validate decides Z0 by groundsets._check_lattice, the lattice test that
a FiniteLattice runs too, and Z1-Z3 in one sweep over the pairs of
members: a comparable pair gets Z2 only (its meet and join are its own
members, so Z3 holds with equality), an incomparable pair Z3, its meet
and join read from that test's lookups.  It returns a Matroid or raises
NotAMatroid naming the first violation; all_violations lists them all.

A product is found from Z alone and decided one factor at a time.  Let
0 and 1 be the least and greatest members and N = 1 - 0.  A member F
whose complement G = (1 - F) u 0 is a member too, with r(F) + r(G) =
r(1), has F - 0 a separator of M|N; every separator S of M|N arises so,
from F = S u 0, and the connected components of M|N are the atoms of
the partition of N that these separators generate (_factors: one
lookup per member that cuts N, then groundsets.atoms, the rule that
also gives the element classes).  Let E_1, ..., E_p be those atoms,
Z_i = {X n E_i : X in Z} and r_i(A) = r(A u 0).  If every member lies
between 0 and 1, Z = Z_1 x ... x Z_p (that is, |Z| = |Z_1| ... |Z_p|,
as X -> (X n E_i) is then injective) and r(X) = sum of r_i(X n E_i)
for every member X, then inclusion, meet and join go componentwise, so
Z is a lattice iff every Z_i is, and the slacks r(Y) - r(X), |Y - X|
of Z2 and r(X) + r(Y) - r(XvY) - r(X^Y) - |(X n Y) - (X^Y)| of Z3 are
sums over the factors, where a factor with equal or comparable
components adds 0 to the Z3 slack.  Hence Z meets Z0-Z3 iff every
(Z_i, r_i) does (Z1 included, as r_i of the empty set is r(0)): a
failing pair of Z_i is a failing pair of Z once the empty set fills in
the other components.  So the direct sum of m factors of k flats each
costs m k^2 pair checks, not k^(2m).  Any failure is reported by the
whole sweep, with its witnesses.

A valid family always passes that check, so a Matroid stores Z as 0
and its factors, and nothing else of it: each E_i with the pairs
(Y, r_i(Y)) for Y in Z_i, one factor when M|N is connected and none
when 1 = 0.  The rank of an arbitrary
subset A is then

  r(A) = |A - 1| + sum over i of min over Y in Z_i of
         r_i(Y) + |(A n E_i) - Y|,

the formula min over members F of r(F) + |A - F| taken factor by
factor, so it costs sum |Z_i| steps, not prod |Z_i|.  Independence,
circuits and closure all derive from that oracle, and the Tutte
polynomial works factor by factor too.

Z itself is the product of the factors' pairs with 0 in every member
(_product), and a view: Matroid.flats and flat_ranks are built the first
time either is read, and kept (validate and _assemble, which hold Z in
canonical order already, set it from that, _viewed).  The product of at
most one factor keeps its order, which is canonical (a fixed disjoint
set added to each member keeps it); that of two or more goes through
groundsets.canonical, which sorts it.  A Z of more than 2^ENUM_CAP
members raises TooLarge before anything is built; repr then shows the
count alone, and pickle and copy carry only the loops and the factors.
Duals, direct sums, relabellings, minors, rank tables and rank_gen work
from the factors and never read Z: ops.minor splits only the factors
that the contracted and deleted sets meet, and rank_table takes one grid
per piece of factors and adds them as outer sums.

This module holds the rules on the cyclic flats only.  The 2^n kernels
behind its two table oracles, Matroid.rank_table and
cyclic_flats_recompute, are in the dense module, which each calls once
after its own checks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod
from typing import Iterable, NamedTuple

from . import dense
from .errors import (InvalidParameters, NotALattice, NotAMatroid, TooLarge,
                     _check_int)
from .groundsets import (GroundSet, _check_lattice, _down_masks, atoms, bits,
                         canonical, outside, popcount, set_text)

ENUM_CAP = 22  # largest ground set given a 2^n rank table
# candidate subsets circuits() may test; on a uniform matroid every
# candidate is a circuit, so this also bounds the length of its result
CIRCUIT_CAP = 10_000


class RankedFamily:
    """A candidate collection of subsets with integer ranks."""

    __slots__ = ("ground", "entries")

    def __init__(self, ground: GroundSet, entries):
        """entries: mapping mask -> rank, or iterable of (mask, rank)."""
        items = list(entries.items() if hasattr(entries, "items") else entries)
        for m, _ in items:
            _check_int(m, "subset mask")
        given = dict(items)
        self.ground = ground
        self.entries = dict(canonical(given.items()))
        if not given:
            raise InvalidParameters("ranked family must be nonempty")
        if len(given) != len(items):
            raise InvalidParameters("duplicate subsets in ranked family")
        for m, r in self.entries.items():
            if m >> len(ground):
                raise InvalidParameters(
                    f"subset {m:#x} outside ground set {ground.labels}")
            _check_int(r, "rank")

    @classmethod
    def from_labels(cls, labels: Iterable[str],
                    sets: Iterable[tuple[Iterable[str], int]]) -> "RankedFamily":
        ground = GroundSet(labels)
        return cls(ground, [(ground.mask(names), r) for names, r in sets])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankedFamily)
                and self.ground == other.ground and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ground, tuple(self.entries.items())))

    def __repr__(self) -> str:
        shown = {self.ground.names(m): r for m, r in self.entries.items()}
        return f"RankedFamily({list(self.ground.labels)!r}, {shown!r})"


class AxiomViolation(NamedTuple):
    """A failed validation: which condition, and a witness to re-check it."""

    which: str              # one of "Z0", "Z1", "Z2", "Z3"
    witness: tuple          # offending member mask(s)
    detail: str

    def __str__(self) -> str:
        return f"{self.which} violated: {self.detail}"


class Matroid:
    """A validated cyclic-flats-with-ranks representation.

    Immutable.  One rule says how one is built: a constructor whose
    result is a matroid by a rule or an exact test assembles it, and
    validate gates everything else.  validate sees parsed documents,
    Matroid.from_labels (so hand-entered data such as catalog("mk4")),
    and the broken-rule fallbacks of _assemble and ops.minor.  The
    constructor itself checks nothing: ops.relabel, ops.dual,
    ops.direct_sum and ops.minor call it on data read off operands that
    are matroids already (minor splits only the factors it changes),
    and the other results (the ops and freeprod modules, and every
    generator of the build module but catalog("mk4"), the sample of
    random_cw2_matroid included) go through _assemble, which finds the
    factors with no sweep.
    It stores ground, bottom (0_Z, the loops) and factors, which holds,
    for each connected component E_i of the elements between the least
    and greatest flats, (E_i, ((Y, r_i(Y)), ...)) over Y in Z_i in
    canonical order (module docstring), in order of least element; top
    and matroid_rank follow from them.  Two matroids are equal iff these
    three are, as the factors are a canonical function of Z.  flats and
    flat_ranks, parallel tuples in canonical subset order, are the view
    of Z that __getattr__ builds on the first read.  The oracles rank,
    rank_support, closure and is_independent raise InvalidParameters for
    a mask that is not an int (a bool included), and UnknownLabel for one
    outside the ground set: one that is negative or has a bit at or past
    |E|.
    """

    __slots__ = ("ground", "bottom", "factors", "top", "matroid_rank",
                 "flats", "flat_ranks", "_table")

    def __init__(self, ground, bottom, factors):
        # bottom is 0_Z, the least cyclic flat: the loops
        self.ground, self.bottom, self.factors = ground, bottom, factors
        # 1_Z, the union of all circuits: 0_Z and the disjoint E_i
        self.top = bottom | sum([e for e, _ in factors])
        # r(E): the r_i(E_i), plus one for each isthmus outside 1_Z
        self.matroid_rank = sum([pairs[-1][1] for _, pairs in factors]) \
            + popcount(ground.full & ~self.top)
        self._table = None

    def __getattr__(self, name):
        """flats and flat_ranks, the view of Z, set on the first read
        (module docstring).  Raises TooLarge past 2^ENUM_CAP members,
        before allocating."""
        if name not in ("flats", "flat_ranks"):
            raise AttributeError(name)
        families = [pairs for _, pairs in self.factors]
        size = prod(map(len, families))
        if size > 1 << ENUM_CAP:
            raise TooLarge(
                f"Z would hold {size} cyclic flats, over cap 2^{ENUM_CAP} "
                f"(ENUM_CAP); rank, dual, minor and rank_gen work from "
                f"the factors without Z")
        pairs = _product(self.bottom, families).items()
        if len(families) > 1:
            pairs = canonical(pairs)
        self.flats, self.flat_ranks = zip(*pairs)
        return getattr(self, name)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_labels(cls, labels, sets) -> "Matroid":
        """Validate (labels, [(names, rank), ...]); raise on violation."""
        return validate(RankedFamily.from_labels(labels, sets))

    def ranked_family(self) -> RankedFamily:
        return RankedFamily(self.ground, dict(zip(self.flats, self.flat_ranks)))

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matroid)
                and self.ground == other.ground
                and self.bottom == other.bottom
                and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash((self.ground, self.bottom, self.factors))

    def __reduce__(self):
        """Pickle and copy the stored fields alone, not the view of Z or
        the rank table (past the cap, reading the view would raise)."""
        return Matroid, (self.ground, self.bottom, self.factors)

    def __repr__(self) -> str:
        try:
            shown = ", ".join(f"({set_text(self.ground.names(f))}, {r})"
                              for f, r in zip(self.flats, self.flat_ranks))
        except TooLarge:
            shown = f"<{prod(len(p) for _, p in self.factors)} cyclic flats>"
        return (f"Matroid(E={list(self.ground.labels)!r}, "
                f"rank={self.matroid_rank}, Z=[{shown}])")

    # -- structure shortcuts ---------------------------------------------

    @property
    def nullity(self) -> int:
        return len(self.ground) - self.matroid_rank

    # -- rank oracle -----------------------------------------------------

    def rank(self, a: int) -> int:
        """Rank of an arbitrary subset, factor by factor (module
        docstring)."""
        if type(a) is not int:
            _check_int(a, "subset mask")
        if a & ~self.ground.full:
            raise outside(a)
        rank = (a & ~self.top).bit_count()
        for e, pairs in self.factors:
            ae, best = a & e, e.bit_count()  # Y = {} gives at most |E_i|
            for y, r in pairs:
                v = r + (ae & ~y).bit_count()
                if v < best:
                    best = v
            rank += best
        return rank

    def rank_table(self):
        """Ranks of all 2^n subsets, indexed by mask (cached, read-only,
        uint8): dense.rank_table, built once per matroid.  Raises
        TooLarge past ENUM_CAP elements, before allocating."""
        if self._table is None:
            n = len(self.ground)
            if n > ENUM_CAP:
                raise TooLarge(
                    f"rank_table would tabulate all subsets of {n} elements, "
                    f"over cap {ENUM_CAP} (ENUM_CAP); rank, closure, minor "
                    f"and dual need no table")
            self._table = dense.rank_table(self)
        return self._table

    def is_independent(self, i: int) -> bool:
        """True iff r(I) = |I| (module docstring)."""
        return self.rank(i) == i.bit_count()

    def rank_support(self, a: int) -> tuple[int, int, int]:
        """r(A), with the intersection and the union of the cyclic flats F
        that attain r(A) = r(F) + |A - F|.

        A is cyclic iff it lies inside the intersection (an element of A
        outside some attaining F is an isthmus of A), and cl(A) is A
        together with the union (x joins A at no cost iff some attaining
        F contains x).  The attaining flats are the unions of 0_Z and
        one attaining Y of each factor, so the intersection and union are
        0_Z with those of each factor (_support).
        """
        if type(a) is not int:
            _check_int(a, "subset mask")
        if a & ~self.ground.full:
            raise outside(a)
        rank = (a & ~self.top).bit_count()
        inter = union = self.bottom
        for e, pairs in self.factors:
            r, i, u = _support(pairs, a & e)
            rank += r
            inter |= i
            union |= u
        return rank, inter, union

    def closure(self, a: int) -> int:
        """A together with every x whose addition leaves the rank fixed."""
        return a | self.rank_support(a)[2]

    def circuits(self) -> list[int]:
        """All minimal C among the loops and the (r_i(Y) + 1)-subsets of
        each Y of each factor.

        Such a C is dependent, and a circuit iff C - x is independent for
        every x in C.  A circuit that is not a loop lies in one component
        E_i, and C is such a subset of Y = cl(C) n E_i.
        """
        ys = [(y, r + 1) for _, pairs in self.factors for y, r in pairs]
        count = popcount(self.bottom) + sum(comb(popcount(y), k)
                                            for y, k in ys)
        if count > CIRCUIT_CAP:
            raise TooLarge(f"circuits would enumerate {count} candidate "
                           f"subsets, over cap {CIRCUIT_CAP} (CIRCUIT_CAP); "
                           f"is_independent tests one subset directly")
        found = {1 << x for x in bits(self.bottom)}
        found.update(sum(1 << i for i in c)
                     for y, k in ys for c in combinations(bits(y), k))
        return [c for c, _ in canonical((c, None) for c in found)
                if all(self.is_independent(c & ~(1 << x)) for x in bits(c))]

    def loops(self) -> int:
        return self.bottom

    def isthmuses(self) -> int:
        """Elements x with rank(E - x) = r(M) - 1, i.e. those outside 1_Z."""
        return self.ground.full & ~self.top


def validate(candidate: RankedFamily) -> Matroid:
    """The Matroid of a candidate that meets Z0-Z3; otherwise raise
    NotAMatroid, whose .violation is the first item of all_violations.

    Ground-set elements outside the greatest member are isthmuses and
    elements inside the least member are loops; both are permitted.  A
    candidate that is the product of two or more factors (_factors) is
    decided one factor at a time; every other candidate, and every
    product that fails, is swept whole.  A valid candidate always passes
    _factors, so the Matroid keeps the factors found either way.
    """
    entries = candidate.entries
    factors = _factors(entries)
    if factors is None or len(factors) < 2 or any(
            _sweep(candidate.ground, [y for y, _ in pairs],
                   [r for _, r in pairs]) for _, pairs in factors):
        violations = all_violations(candidate)
        if violations:
            raise NotAMatroid(violations[0])
    return _viewed(candidate.ground, entries, factors)


def _assemble(ground: GroundSet, entries) -> Matroid:
    """The Matroid of (mask, rank) pairs that meet Z0-Z3 by theorem or
    by an exact test: the result of an operation on validated operands,
    or of a generator (build module), by its rule or, for the sample of
    random_cw2_matroid, by _chain_plus_one_ok.

    The masks are distinct and inside ground.  A rule that fixes the
    order of its output gives them in canonical order, which
    groundsets.canonical passes through in one pass; a family in any
    other order is sorted there.  Its factors are then found (_factors),
    with no sweep and no RankedFamily checks.  A valid family always
    passes _factors, so a None there means the rule was broken: the
    family then goes to validate, which raises NotAMatroid with a
    witness.
    """
    ordered = dict(canonical(entries))
    factors = _factors(ordered)
    if factors is None:
        return validate(RankedFamily(ground, ordered))
    return _viewed(ground, ordered, factors)


def _viewed(ground: GroundSet, entries, factors) -> Matroid:
    """The Matroid of a valid family {mask: rank} in canonical order and
    its factors, with its view of Z set from the family, which is the
    view the factors would build."""
    m = Matroid(ground, next(iter(entries)), factors)
    m.flats, m.flat_ranks = tuple(entries), tuple(entries.values())
    return m


def all_violations(candidate: RankedFamily) -> list[AxiomViolation]:
    """Every axiom violation of the candidate, from one sweep over the
    pairs i < j of members in canonical order (see _sweep)."""
    return _sweep(candidate.ground, tuple(candidate.entries),
                  tuple(candidate.entries.values()))


def _sweep(ground, masks, ranks) -> list[AxiomViolation]:
    """The violations of the members masks (in an order that puts a
    proper subset before its supersets) with ranks, by the rule of the
    module docstring.

    Z0 is decided first (groundsets._check_lattice): the first pair
    without a unique meet or join is then the only violation.  Otherwise
    Z1 comes first, then the Z2s, then the Z3s, each in pair order.
    """
    down = _down_masks(masks)

    def show(m):
        return set_text(ground.names(m))

    try:
        up, glb, lub = _check_lattice(masks, down)
    except NotALattice as exc:
        x, y = exc.pair
        return [AxiomViolation(
            "Z0", (x, y),
            f"members {show(x)} and {show(y)} lack a unique meet or join")]
    z1 = [] if ranks[0] == 0 else [AxiomViolation(
        "Z1", (masks[0],),
        f"least member {show(masks[0])} has rank {ranks[0]}, not 0")]
    z2, z3 = [], []
    n = len(masks)
    for i in range(n):
        x, rx, dx, ux = masks[i], ranks[i], down[i], up[i]
        for j in range(i + 1, n):
            y, ry = masks[j], ranks[j]
            if down[j] >> i & 1:  # X proper subset of Y
                if not 0 < ry - rx < popcount(y & ~x):
                    z2.append(AxiomViolation(
                        "Z2", (x, y),
                        f"r(Y)-r(X) = {ry - rx} not strictly between 0 and "
                        f"|Y-X| = {popcount(y & ~x)} for X={show(x)}, "
                        f"Y={show(y)}"))
                continue
            mt, jn = glb[dx & down[j]], lub[ux & up[j]]
            rhs = ranks[jn] + ranks[mt] + popcount(x & y & ~masks[mt])
            if rx + ry < rhs:
                z3.append(AxiomViolation(
                    "Z3", (x, y),
                    f"r(X)+r(Y) = {rx + ry} < {rhs} = "
                    f"r(XvY)+r(X^Y)+|(XnY)-(X^Y)| for X={show(x)}, "
                    f"Y={show(y)}"))
    return z1 + z2 + z3


def _factors(entries):
    """The factors (E_i, ((Y, r_i(Y)), ...)) of a ranked family {mask:
    rank}, each Z_i in canonical order when the family is (Y first
    appears in Y u 0, and sizes are sorted); None unless every member
    lies between 0 and 1, Z = Z_1 x ... x Z_p and the ranks add (module
    docstring).  The parts E_i are the atoms (groundsets.atoms) that
    the separators F - 0 generate in 1 - 0: a member F that cuts 1 - 0
    costs one lookup, of its complement (1 - F) u 0.  A family that
    passes is a product, but its factors are not yet checked against
    Z0-Z3.
    """
    base, top = next(iter(entries)), next(reversed(entries))
    whole, support = entries[top], top & ~base
    if any(x & ~support != base for x in entries):
        return None
    split = atoms(support, [
        f for f, rf in entries.items()
        if 0 < f & support < support
        and entries.get((top & ~f) | base) == whole - rf])
    projs, size = [], 1
    for e in split:
        proj = sorted({x & e: None for x in entries}, key=int.bit_count)
        projs.append(proj)
        size *= len(proj)
    if size != len(entries):  # X -> (X n E_i)_i is one to one, so onto
        return None
    # r_i(Y) = r(Y u 0): the product holds that member
    ranks = [{y: entries[y | base] for y in proj} for proj in projs]
    if len(split) > 1 and any(
            r != sum(ri[x & e] for e, ri in zip(split, ranks))
            for x, r in entries.items()):
        return None
    return tuple((e, tuple(ri.items())) for e, ri in zip(split, ranks))


def _product(base: int, families) -> dict[int, int]:
    """{base u X_1 u ... u X_p: r_1 + ... + r_p} over one pair (X_i, r_i)
    of each family, the families being pairs on disjoint elements
    outside base: the cyclic flats of a direct sum (module docstring).
    The last family varies fastest, so when only one family has more
    than one pair the product keeps its order, canonical order included
    (adding a fixed disjoint set keeps it).
    """
    found = {base: 0}
    for pairs in families:
        found = {x | y: rx + ry for x, rx in found.items() for y, ry in pairs}
    return found


def _support(pairs, a: int) -> tuple[int, int, int]:
    """min over pairs (Y, r) of r + |A - Y|, with the intersection and
    the union of the Y that attain it."""
    best = inter = union = None
    for y, r in pairs:
        v = r + (a & ~y).bit_count()
        if best is None or v < best:
            best, inter, union = v, y, y
        elif v == best:
            inter &= y
            union |= y
    return best, inter, union


def cyclic_flats_recompute(m: Matroid) -> RankedFamily:
    """Re-derive the cyclic flats of m from its rank table.

    Keeps every subset F that is closed (adding any outside element
    raises the rank) and isthmus-free in restriction (removing any
    inside element keeps the rank), by the fixpoint sweep of
    dense.cyclic_flats.  Must reproduce m's family exactly.  Raises
    TooLarge past ENUM_CAP elements, before allocating.
    """
    return RankedFamily(m.ground, dense.cyclic_flats(m.rank_table(),
                                                     len(m.ground)))
