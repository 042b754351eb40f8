"""enumerate: the dense 2^n path on 15-18 element matroids.

One job touches both regimes: large n with few flats (a uniform matroid
and a nested matroid) and mid n with many flats (a direct sum of two
copies of M(K4) with a uniform factor, and a direct sum of two lattice
realizations).  It runs rank_table, minor, truncate, higgs_lift, the
cyclic_flats_recompute fixpoint and brute-force Tutte, so a Tutte or minor
method that helps one regime and hurts the other shows up here.
"""

from __future__ import annotations

import random

import cycflats as cf
from cycflats import build

import checks
from checks import check
from harness import timed
from w_construct import mk4

NOMINAL_JOBS_PER_S = 4.0
OPS_PER_JOB = 15


def _nested_seq(rng: random.Random, length: int) -> str:
    """A random i/f sequence with at least one of each step, so the nested
    matroid has rank >= 1 (truncatable) and rank < |E| (liftable)."""
    seq = [rng.choice("if") for _ in range(length - 2)] + ["i", "f"]
    rng.shuffle(seq)
    return "".join(seq)


def _spec(rng: random.Random, n: int, k_contract: int, k_delete: int):
    picked = rng.sample(range(n), k_contract + k_delete)
    c = sum(1 << i for i in picked[:k_contract])
    d = sum(1 << i for i in picked[k_contract:])
    return c, d


def shared_inputs():
    lattices = build.all_lattices(5)
    return ([lat for lat in lattices if len(lat.elements) == 4],
            [lat for lat in lattices if len(lat.elements) == 5])


def make_input(seed: int, j: int, lattices):
    # Sizes are fixed and only the structure is drawn, so that job times
    # form one narrow distribution.
    four, five = lattices
    rng = random.Random(f"enumerate:{seed}:{j}")
    r_u = rng.randint(3, 15)
    r_x = rng.randint(1, 2)
    real = cf.direct_sum(
        cf.relabel(cf.realize_lattice(rng.choice(five)).matroid, "p"),
        cf.relabel(cf.realize_lattice(rng.choice(four)).matroid, "q"))
    k4sum = cf.direct_sum(cf.direct_sum(mk4(rng, "a"), mk4(rng, "b")),
                          cf.uniform(r_x, 3))
    return {
        "uniform": (r_u, 18, cf.uniform(r_u, 18)),
        "uniform_spec": _spec(rng, 18, 2, 2),
        "nested": cf.nested_from_sequence(_nested_seq(rng, 16)),
        "k4sum": (r_x, 3, k4sum),
        "k4sum_elem": rng.randrange(len(k4sum.ground)),
        "real": real,
        "real_spec": _spec(rng, len(real.ground), 1, 1),
        "check_seed": rng.getrandbits(32),
    }


def _job(inp):
    out = {}
    _, _, u = inp["uniform"]
    out["u_rg"] = cf.rank_gen_brute(u)
    out["u_minor"] = cf.minor(u, cf.MinorSpec(*inp["uniform_spec"]))

    nm = inp["nested"]
    out["n_trunc"] = cf.truncate(nm)
    out["n_lift"] = cf.higgs_lift(nm)
    out["n_rg"] = cf.rank_gen_brute(nm)
    out["n_dual_rg"] = cf.rank_gen_brute(cf.dual(nm))

    _, _, s = inp["k4sum"]
    e = inp["k4sum_elem"]
    out["s_fix"] = cf.cyclic_flats_recompute(s)
    out["s_tutte"] = cf.tutte_polynomial(s)
    out["s_del"] = cf.tutte_polynomial(cf.minor(s, cf.MinorSpec(0, 1 << e)))
    out["s_con"] = cf.tutte_polynomial(cf.minor(s, cf.MinorSpec(1 << e, 0)))

    real = inp["real"]
    out["r_fix"] = cf.cyclic_flats_recompute(real)
    out["r_minor"] = cf.minor(real, cf.MinorSpec(*inp["real_spec"]))
    return out


def run_job(inp, tracer=None):
    return timed(_job, inp)


def check_job(inp, out) -> int:
    rng = random.Random(inp["check_seed"])
    r_u, n_u, u = inp["uniform"]
    check(checks.rank_gen_terms(out["u_rg"]) == checks.uniform_rank_gen(r_u, n_u),
          "R(U_{r,n}) closed form")
    checks.check_minor_ranks(u, out["u_minor"], inp["uniform_spec"][0], rng)

    nm = inp["nested"]
    checks.check_truncation(nm, out["n_trunc"], rng)
    checks.check_higgs_lift(nm, out["n_lift"], rng)
    checks.check_rank_gen(out["n_rg"], len(nm.ground), out["n_dual_rg"])

    r_x, n_x, s = inp["k4sum"]
    checks.check_fixpoint(s, out["s_fix"])
    t_x = checks.tutte_of_rank_gen(checks.uniform_rank_gen(r_x, n_x))
    check(out["s_tutte"] == checks.poly_mul(
        checks.poly_mul(checks.TUTTE_K4, checks.TUTTE_K4), t_x),
        "T(M(K4) + M(K4) + U) is the product of the factors' polynomials")
    checks.check_deletion_contraction(s, inp["k4sum_elem"], out["s_tutte"],
                                      out["s_del"], out["s_con"])

    real = inp["real"]
    checks.check_fixpoint(real, out["r_fix"])
    checks.check_minor_ranks(real, out["r_minor"], inp["real_spec"][0], rng)
    return 0
