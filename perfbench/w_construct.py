"""construct: large cyclic-flat families built without any 2^n table.

One job: the direct sum of three relabelled copies of M(K4) (216 flats),
a Gimenez member beyond ENUM_CAP with its dual and free extension, a free
product of two random matroids, both realizations of three random
lattices on at most 5 elements, and one random_cw2_matroid rejection
sample.  validate and the lattice tables do most of the work.
"""

from __future__ import annotations

import random

import cycflats as cf
from cycflats import build

import checks
from checks import check
from harness import timed

NOMINAL_JOBS_PER_S = 3.5
OPS_PER_JOB = 13

K4_EDGES = ["12", "13", "14", "23", "24", "34"]
K4_TRIANGLES = [["12", "13", "23"], ["12", "14", "24"],
                ["13", "14", "34"], ["23", "24", "34"]]


def mk4(rng: random.Random, prefix: str):
    """M(K4) on prefixed edge labels, in a shuffled ground order."""
    labels = [prefix + e for e in K4_EDGES]
    rng.shuffle(labels)
    sets = ([([], 0)] + [([prefix + e for e in t], 2) for t in K4_TRIANGLES]
            + [(labels, 3)])
    return cf.Matroid.from_labels(labels, sets)


def shared_inputs():
    return build.all_lattices(5)


def make_input(seed: int, j: int, lattices):
    rng = random.Random(f"construct:{seed}:{j}")
    return {
        "k4": [mk4(rng, p) for p in ("a", "b", "c")],
        "gimenez": (7, rng.sample(range(1, 8), 7)),
        "fp": (cf.relabel(build.random_matroid(rng, 8), "p"),
               cf.relabel(build.random_matroid(rng, 8), "q")),
        "lattices": rng.sample(lattices, 3),
        "cw2_seed": rng.getrandbits(32),
    }


def _job(inp):
    a, b, c = inp["k4"]
    out = {"sum": cf.direct_sum(cf.direct_sum(a, b), c)}
    g = build.gimenez_family(*inp["gimenez"])
    out["gimenez"] = g
    out["gimenez_dual"] = cf.dual(g)
    out["gimenez_ext"] = cf.free_extension(g)
    out["fp"] = cf.free_product(*inp["fp"])
    out["real"] = [(lat, variant, cf.realize_lattice(lat, variant))
                   for lat in inp["lattices"]
                   for variant in ("plain", "sublattice")]
    out["cw2"] = cf.random_cw2_matroid(random.Random(inp["cw2_seed"]))
    return out


def run_job(inp, tracer=None):
    return timed(_job, inp)


def check_job(inp, out) -> int:
    checks.check_direct_sum(inp["k4"], out["sum"])
    check(len(out["sum"].flats) == 216, "3 x M(K4) has 216 cyclic flats")

    n_g, _ = inp["gimenez"]
    g = out["gimenez"]
    check(len(g.ground) == 4 * n_g + 5 > cf.matroid.ENUM_CAP,
          "Gimenez member beyond the enumeration cap")
    check(len(g.flats) == 2 * n_g + 4, "Gimenez flat count")
    check(checks.FlatData.of(g).rank == 2 * n_g + 2, "Gimenez rank")
    checks.check_dual(g, out["gimenez_dual"])
    ext = out["gimenez_ext"]
    point = checks.FlatData((ext.ground.labels[-1],), {1: 0})
    checks.check_free_product(g, point, ext)

    checks.check_free_product(*inp["fp"], out["fp"])

    for lat, variant, real in out["real"]:
        checks.check_realization(lat, dict(real.witness), real.matroid,
                                 variant == "sublattice")

    cw2 = out["cw2"]
    check(checks.brute_width(list(cw2.flats)) <= 2, "random_cw2 width <= 2")
    return 0
