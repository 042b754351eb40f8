"""Correctness checks computed independently of the library.

Each check works from the raw flat data (ground labels, flat masks and
ranks) with its own formulas, or from closed forms and published counts,
so that a wrong library answer cannot also be the expected answer.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from harness import check

# T(M(K4)) = x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3
TUTTE_K4 = {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
            (0, 1): 2, (0, 2): 3, (0, 3): 1}

# Lattices on 1..6 elements up to isomorphism (OEIS A006966).
LATTICE_COUNTS = [1, 1, 1, 2, 5, 15]


# -- flat data -------------------------------------------------------------

class FlatData:
    """Ground labels and cyclic flats with ranks, read off a Matroid or a
    parsed document; the only thing the checks look at."""

    __slots__ = ("labels", "flats", "full")

    def __init__(self, labels, flats: dict):
        self.labels = tuple(labels)
        self.flats = flats
        self.full = (1 << len(self.labels)) - 1

    @classmethod
    def of(cls, m) -> "FlatData":
        if isinstance(m, cls):
            return m
        return cls(m.ground.labels, dict(zip(m.flats, m.flat_ranks)))

    @classmethod
    def from_doc(cls, doc: dict) -> "FlatData":
        labels = doc["ground"]
        index = {lab: i for i, lab in enumerate(labels)}
        flats = {}
        for item in doc["cyclic_flats"]:
            mask = 0
            for lab in item["set"]:
                mask |= 1 << index[lab]
            flats[mask] = item["rank"]
        return cls(labels, flats)

    @property
    def rank(self) -> int:
        return rank_of(self.flats, self.full)

    @property
    def bottom(self) -> int:
        return min(self.flats, key=int.bit_count)

    @property
    def top(self) -> int:
        return max(self.flats, key=int.bit_count)


def rank_of(flats: dict, a: int) -> int:
    """min over cyclic flats F of r(F) + |A - F|."""
    return min(r + (a & ~f).bit_count() for f, r in flats.items())


def relabel_mask(mask: int, src_labels, dst_index) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << dst_index[src_labels[i]]
        mask >>= 1
        i += 1
    return out


def sample_masks(rng: random.Random, n: int, k: int):
    full = (1 << n) - 1
    return [rng.getrandbits(n) & full for _ in range(k)] + [0, full]


# -- ranks -------------------------------------------------------------------

def check_minor_ranks(parent, child, contract: int, rng, samples: int = 24):
    """r_minor(A) == r(A u C) - r(C), both sides from flat data."""
    p, c = FlatData.of(parent), FlatData.of(child)
    p_index = {lab: i for i, lab in enumerate(p.labels)}
    rc = rank_of(p.flats, contract)
    for a in sample_masks(rng, len(c.labels), samples):
        lifted = relabel_mask(a, c.labels, p_index)
        check(rank_of(c.flats, a) == rank_of(p.flats, lifted | contract) - rc,
              f"minor rank of {a:#x}")


def check_truncation(m, t, rng, samples: int = 24):
    """r_T(A) = min(r(A), r(M) - 1)."""
    m, t = FlatData.of(m), FlatData.of(t)
    check(t.labels == m.labels, "truncation keeps the ground set")
    for a in sample_masks(rng, len(m.labels), samples):
        check(rank_of(t.flats, a) == min(rank_of(m.flats, a), m.rank - 1),
              f"truncation rank of {a:#x}")


def check_higgs_lift(m, lifted, rng, samples: int = 24):
    """r_L(A) = min(|A|, r(A) + 1) for a matroid of rank below |E|."""
    m, lifted = FlatData.of(m), FlatData.of(lifted)
    check(lifted.labels == m.labels, "lift keeps the ground set")
    for a in sample_masks(rng, len(m.labels), samples):
        check(rank_of(lifted.flats, a)
              == min(a.bit_count(), rank_of(m.flats, a) + 1),
              f"lift rank of {a:#x}")


def check_fixpoint(m, recomputed):
    """The cyclic flats re-derived from the rank oracle are m's own."""
    check(dict(recomputed.entries) == FlatData.of(m).flats,
          "cyclic-flat fixpoint")


# -- whole-family constructions ---------------------------------------------

def named_flats(m) -> set:
    """Cyclic flats as (frozenset of labels, rank)."""
    d = FlatData.of(m)
    return {(frozenset(lab for i, lab in enumerate(d.labels) if f >> i & 1), r)
            for f, r in d.flats.items()}


def check_direct_sum(parts, total):
    """Z(M + N) is the product of the factor lattices, ranks added."""
    expected = {(frozenset(), 0)}
    for p in parts:
        expected = {(x | y, rx + ry) for x, rx in expected
                    for y, ry in named_flats(p)}
    got = named_flats(total)
    check(len(got) == len(expected), "direct sum flat count")
    check(got == expected, "direct sum flats")


def check_free_product(m, n, product):
    """Z(M box N): proper cyclic flats of M, E(M) u Y for nonempty cyclic
    flats Y of N at rank r(M) + r_N(Y), and E(M) itself exactly when M has
    no isthmuses and N no loops (Bonin and de Mier)."""
    m = FlatData.of(m)
    em = frozenset(m.labels)
    zm, zn = named_flats(m), named_flats(n)
    expected = {(x, r) for x, r in zm if x != em}
    expected |= {(em | y, m.rank + r) for y, r in zn if y}
    isthmus_free = any(x == em for x, _ in zm)
    loopless = any(not y for y, _ in zn)
    if isthmus_free and loopless:
        expected.add((em, m.rank))
    got = named_flats(product)
    check(len(got) == len(expected), "free product flat count")
    check(got == expected, "free product flats")


def check_dual(m, d):
    """Z(M*) = {E - F}, r*(E - F) = |E - F| - r(M) + r(F)."""
    m, d = FlatData.of(m), FlatData.of(d)
    expected = {m.full & ~f: (m.full & ~f).bit_count() - m.rank + r
                for f, r in m.flats.items()}
    check(d.labels == m.labels, "dual keeps the ground set")
    check(d.flats == expected, "dual flats")


def check_order_mirrors(down, masks, what: str):
    """masks[x] is contained in masks[y] exactly when x <= y, read from
    the lattice's down masks, and the masks are distinct."""
    k = len(masks)
    check(len(set(masks)) == k, f"{what}: flats distinct")
    for x in range(k):
        for y in range(k):
            check((masks[x] & ~masks[y] == 0) == bool(down[y] >> x & 1),
                  f"{what}: order at ({x}, {y})")


def check_realization(lat, flats_by_element, matroid, sublattice: bool):
    """The realizing flats are exactly the witness masks, ordered as the
    lattice; with sublattice, also F_x n F_y = F_{x ^ y}."""
    k = len(lat.elements)
    masks = [flats_by_element[e] for e in lat.elements]
    check(set(FlatData.of(matroid).flats) == set(masks), "realization flat set")
    check_order_mirrors(lat.down, masks, "realization")
    if sublattice:
        for x in range(k):
            for y in range(k):
                # in a lattice, down(x) n down(y) = down(x ^ y)
                low = lat.down[x] & lat.down[y]
                meet = next(z for z in range(k) if lat.down[z] == low)
                check(masks[x] & masks[y] == masks[meet],
                      f"realization meet at ({x}, {y})")


def check_lattice_counts(lattices):
    sizes = [0] * len(LATTICE_COUNTS)
    for lat in lattices:
        sizes[len(lat.elements) - 1] += 1
    check(sizes == LATTICE_COUNTS, f"lattice counts {sizes}")


# -- width and antichains ----------------------------------------------------

def is_antichain(masks) -> bool:
    return all(a & ~b and b & ~a for a, b in combinations(masks, 2))


def brute_width(masks) -> int:
    """Largest antichain by exhaustive search, for small families."""
    masks = list(masks)
    best = 1 if masks else 0
    while best < len(masks) and any(
            is_antichain(c) for c in combinations(masks, best + 1)):
        best += 1
    return best


def check_ingleton_witness(m, ok: bool, witness):
    """A reported violation is an antichain of cyclic flats whose
    inclusion-exclusion inequality fails under the flat-data rank."""
    if ok:
        check(witness is None, "no witness on success")
        return
    flats = FlatData.of(m).flats
    check(all(f in flats for f in witness), "witness members are cyclic flats")
    check(len(witness) >= 3 and is_antichain(witness), "witness is an antichain")
    inter = witness[0]
    for f in witness[1:]:
        inter &= f
    rhs = 0
    for j in range(1, len(witness) + 1):
        for sub in combinations(witness, j):
            union = 0
            for f in sub:
                union |= f
            rhs += (1 if j % 2 else -1) * rank_of(flats, union)
    check(rank_of(flats, inter) > rhs, "witness violates the inequality")


def check_iso_witness(m, n, witness):
    """The label map sends each cyclic flat of m onto one of n, same rank."""
    m, n = FlatData.of(m), FlatData.of(n)
    check(witness is not None, "isomorphism witness present")
    check(sorted(witness) == sorted(m.labels)
          and sorted(witness.values()) == sorted(n.labels),
          "witness is a bijection of the ground sets")
    image = {(frozenset(witness[x] for x in f), r) for f, r in named_flats(m)}
    check(image == named_flats(n), "witness maps flats onto flats")


# -- rank-generating and Tutte polynomials ------------------------------------

def uniform_rank_gen(r: int, n: int) -> dict:
    """R(U_{r,n}): C(n, k) subsets of size k at (r - min(k, r), k - min(k, r))."""
    out = {}
    for k in range(n + 1):
        key = (r - min(k, r), k - min(k, r))
        out[key] = out.get(key, 0) + comb(n, k)
    return out


def rank_gen_terms(rgm) -> dict:
    return {(i, j): c for i, row in enumerate(rgm.coeffs)
            for j, c in enumerate(row) if c}


def tutte_of_rank_gen(terms: dict) -> dict:
    """T(x, y) = R(x - 1, y - 1), expanded."""
    out = {}
    for (i, j), c in terms.items():
        for p in range(i + 1):
            for q in range(j + 1):
                v = c * comb(i, p) * comb(j, q) * (-1) ** (i - p + j - q)
                out[(p, q)] = out.get((p, q), 0) + v
    return {k: v for k, v in out.items() if v}


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            out[(a + d, b + e)] = out.get((a + d, b + e), 0) + c * f
    return {k: v for k, v in out.items() if v}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def shift(p: dict, dx: int, dy: int) -> dict:
    return {(a + dx, b + dy): c for (a, b), c in p.items()}


def swap(p: dict) -> dict:
    return {(b, a): c for (a, b), c in p.items()}


def check_rank_gen(rgm, n: int, dual_rgm):
    """The coefficients of R sum to 2^n; R(M*; x, y) = R(M; y, x)."""
    terms = rank_gen_terms(rgm)
    check(sum(terms.values()) == 2 ** n, "R coefficients sum to 2^n")
    check(rank_gen_terms(dual_rgm) == swap(terms), "R(M*; x, y) = R(M; y, x)")


def check_deletion_contraction(m, e: int, t_m: dict, t_del: dict, t_con: dict):
    """T(M) = T(M\\e) + T(M/e); x T(M/e) for an isthmus, y T(M\\e) for a loop."""
    d = FlatData.of(m)
    bit = 1 << e
    if d.bottom & bit:
        check(t_m == shift(t_del, 0, 1), "deletion-contraction at a loop")
    elif not d.top & bit:
        check(t_m == shift(t_con, 1, 0), "deletion-contraction at an isthmus")
    else:
        check(t_m == poly_add(t_del, t_con), "deletion-contraction")
