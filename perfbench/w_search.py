"""search: minor, isomorphism and antichain searches on matroids of at
most 12 elements.

One job: a random_cw2_matroid host with its cyclic width, transversality
test and bitransversal certificate; an isomorphism test against a
shuffled relabelling of the host; has_minor on an 8-element nested host
for P_2 (absent: width is minor-monotone) and for a nested pattern whose
sequence is a subsequence of the host's (present); and the deduplicating
all_lattices(6).  Thousands of small minors and rank-oracle calls, where
cost per call matters more than table size.
"""

from __future__ import annotations

import random

import cycflats as cf

import checks
from checks import check
from harness import timed

NOMINAL_JOBS_PER_S = 2.5
OPS_PER_JOB = 14


def _subsequence(rng: random.Random, seq: str, length: int) -> str:
    keep = sorted(rng.sample(range(len(seq)), length))
    return "".join(seq[i] for i in keep)


def shared_inputs():
    return None


def make_input(seed: int, j: int, _shared):
    rng = random.Random(f"search:{seed}:{j}")
    seq_m = "".join(rng.choice("if") for _ in range(8))
    seq_n = _subsequence(rng, seq_m, rng.randint(3, 4))
    return {
        "cw2_seed": rng.getrandbits(32),
        "perm_seed": rng.getrandbits(32),
        "seq_m": seq_m,
        "seq_n": seq_n,
        "host": cf.nested_from_sequence(seq_m),
        "pattern": cf.nested_from_sequence(seq_n),
        "p2": cf.excluded_minor_pn(2),
    }


def shuffled_copy(m, rng: random.Random):
    """m on fresh labels, listed in a shuffled ground order."""
    labels = list(m.ground.labels)
    fresh = {lab: f"s{i}" for i, lab in enumerate(labels)}
    order = [fresh[lab] for lab in labels]
    rng.shuffle(order)
    sets = [([fresh[lab] for lab in m.ground.names(f)], r)
            for f, r in zip(m.flats, m.flat_ranks)]
    return cf.Matroid.from_labels(order, sets)


def _job(inp):
    out = {}
    host = cf.random_cw2_matroid(random.Random(inp["cw2_seed"]), max_elems=8)
    out["cw2"] = host
    out["width"] = cf.cyclic_width(host)
    out["ingleton"] = cf.ingleton_transversal(host)
    out["bitransversal"] = cf.bitransversal_cert(host)
    copy = shuffled_copy(host, random.Random(inp["perm_seed"]))
    out["copy"] = copy
    out["iso"] = cf.is_isomorphic(host, copy)

    out["has_p2"] = cf.has_minor(inp["host"], inp["p2"])
    found, spec = cf.has_minor(inp["host"], inp["pattern"])
    out["has_pattern"] = found
    out["found"] = cf.minor(inp["host"], spec)
    out["found_iso"] = cf.is_isomorphic(out["found"], inp["pattern"])
    _, sub_spec = cf.nested_subsequence_minor(inp["seq_n"], inp["seq_m"])
    sub = cf.minor(inp["host"], sub_spec)
    out["sub"] = sub
    out["sub_iso"] = cf.is_isomorphic(sub, inp["pattern"])

    out["lattices"] = cf.all_lattices(6)
    return out


def run_job(inp, tracer=None):
    return timed(_job, inp)


def check_job(inp, out) -> int:
    host = out["cw2"]
    width = checks.brute_width(host.flats)
    check(out["width"] == width <= 2, "cyclic width against brute force")
    ok, witness = out["ingleton"]
    checks.check_ingleton_witness(host, ok, witness)
    if width == 1:
        check(ok and out["bitransversal"], "nested matroids are transversal")
    check(out["bitransversal"] in (True, False), "bitransversal answer")
    iso_ok, iso_witness = out["iso"]
    check(iso_ok, "a relabelled copy is isomorphic")
    checks.check_iso_witness(host, out["copy"], iso_witness)

    check(out["has_p2"] == (False, None), "nested host has no P_2 minor")
    check(out["has_pattern"], "subsequence pattern is a minor")
    found_ok, found_witness = out["found_iso"]
    check(found_ok, "has_minor witness yields the pattern")
    checks.check_iso_witness(out["found"], inp["pattern"], found_witness)
    sub_ok, sub_witness = out["sub_iso"]
    check(sub_ok, "subsequence embedding yields the pattern")
    checks.check_iso_witness(out["sub"], inp["pattern"], sub_witness)

    checks.check_lattice_counts(out["lattices"])
    return 0
