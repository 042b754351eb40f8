"""cli: whole `python -m cycflats.cli` commands, one child at a time.

A job is one round: validate, dual, freeprod, tutte, width, minor, iso
and realize on that round's generated documents, each large enough that
the work is more than interpreter start, then a fixed set of malformed
documents.  The only workload that measures interpreter start, the numpy
import, io parse and emit, and exit codes.  A closed loop with one client.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import cycflats as cf
from cycflats import build, io

import checks
from checks import FlatData, check
from harness import RESULTS, Timing, run_child, timed
from w_construct import mk4
from w_search import shuffled_copy

NOMINAL_JOBS_PER_S = 0.25
OPS_PER_JOB = 14

CLI = [sys.executable, "-m", "cycflats.cli"]
TRACED_CLI = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
WORK = RESULTS / "cli-work"  # generated documents, removed after the run

# Malformed documents: (name, subcommand, text).  Each must end with
# exit 2, a one-line message on stderr and no traceback.
MALFORMED = [
    ("flats_not_array", "validate", '{"ground": ["a"], "cyclic_flats": 5}'),
    ("cover_member_list", "realize",
     '{"elements": ["a", "b"], "covers": [["a", ["b"]]]}'),
    ("set_is_string", "validate",
     '{"ground": ["a", "b"], "cyclic_flats": [{"set": [], "rank": 0}, '
     '{"set": "ab", "rank": 1}]}'),
    ("set_repeats_label", "validate",
     '{"ground": ["a", "b"], "cyclic_flats": [{"set": [], "rank": 0}, '
     '{"set": ["a", "a", "b"], "rank": 1}]}'),
    ("missing_field", "validate", '{"ground": ["a"]}'),
    ("not_json", "validate", '{"ground": ['),
]
# The ones that do not today: the first two end in a TypeError traceback,
# the other two are accepted with exit 0.
FAILING_TODAY = ("flats_not_array", "cover_member_list", "set_is_string",
                 "set_repeats_label")


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _product_lattice(p, q):
    """Elements, covers and down masks of the product order of two
    lattices, built here from their cover lists."""
    elems = [(x, y) for x in p.elements for y in q.elements]
    index = {e: i for i, e in enumerate(elems)}
    cov_p, cov_q = p.covers(), q.covers()
    covers = ([[f"{a}.{y}", f"{b}.{y}"] for a, b in cov_p for y in q.elements]
              + [[f"{x}.{a}", f"{x}.{b}"] for x in p.elements for a, b in cov_q])
    pi = {e: i for i, e in enumerate(p.elements)}
    qi = {e: i for i, e in enumerate(q.elements)}
    down = []
    for x, y in elems:
        mask = 0
        for x2, y2 in elems:
            if p.down[pi[x]] >> pi[x2] & 1 and q.down[qi[y]] >> qi[y2] & 1:
                mask |= 1 << index[(x2, y2)]
        down.append(mask)
    return [f"{x}.{y}" for x, y in elems], covers, down


def shared_inputs():
    """The work directory, the malformed documents and the lattices."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    malformed = [(name, sub, _write(WORK / f"bad-{name}.json", text))
                 for name, sub, text in MALFORMED]
    lattices = [lat for lat in build.all_lattices(5) if len(lat.elements) >= 4]
    return malformed, lattices


def make_input(seed: int, j: int, shared):
    """Round j: its documents, written under WORK, and its commands."""
    malformed, lattices = shared
    rng = random.Random(f"cli:{seed}:{j}")
    d = WORK / f"round-{j}"
    d.mkdir(exist_ok=True)
    cmds = []

    big = cf.direct_sum(cf.direct_sum(mk4(rng, "a"), mk4(rng, "b")),
                        mk4(rng, "c"))
    cmds.append(("validate", ["validate", _write(d / "big.json",
                                                 io.emit_matroid(big))],
                 big.matroid_rank))

    r_x = rng.randint(1, 3)
    src = cf.direct_sum(cf.direct_sum(mk4(rng, "a"), mk4(rng, "b")),
                        cf.uniform(r_x, r_x + rng.randint(1, 2)))
    cmds.append(("dual", ["dual", _write(d / "dual.json",
                                         io.emit_matroid(src))],
                 FlatData.of(src)))

    n_g = rng.randint(3, 4)
    left = cf.relabel(build.gimenez_family(n_g, rng.sample(range(1, n_g + 1),
                                                           n_g)), "l")
    right = cf.relabel(cf.nested_from_sequence(
        "".join(rng.choice("if") for _ in range(rng.randint(6, 8)))), "r")
    cmds.append(("freeprod",
                 ["freeprod", _write(d / "fp-left.json", io.emit_matroid(left)),
                  _write(d / "fp-right.json", io.emit_matroid(right))],
                 (FlatData.of(left), FlatData.of(right))))

    r_u = rng.randint(4, 14)
    cmds.append(("tutte", ["tutte", _write(d / "uniform.json",
                                           io.emit_matroid(cf.uniform(r_u, 18)))],
                 (r_u, 18)))

    n_w = rng.randint(6, 8)
    wide = build.gimenez_family(n_w, rng.sample(range(1, n_w + 1), n_w))
    cmds.append(("width", ["width", _write(d / "wide.json",
                                           io.emit_matroid(wide))],
                 FlatData.of(wide)))

    nested = cf.nested_from_sequence(
        "".join(rng.choice("if") for _ in range(19)))
    picked = rng.sample(nested.ground.labels, 4)
    contract = nested.ground.mask(picked[:2])
    cmds.append(("minor", ["minor", _write(d / "nested.json",
                                           io.emit_matroid(nested)),
                           "--contract", ",".join(picked[:2]),
                           "--delete", ",".join(picked[2:])],
                 (FlatData.of(nested), contract, rng.getrandbits(32))))

    host = build.random_cw2_matroid(random.Random(rng.getrandbits(32)))
    copy = shuffled_copy(host, rng)
    cmds.append(("iso", ["iso", _write(d / "iso-a.json", io.emit_matroid(host)),
                         _write(d / "iso-b.json", io.emit_matroid(copy))],
                 (FlatData.of(host), FlatData.of(copy))))

    elements, covers, down = _product_lattice(*rng.sample(lattices, 2))
    lat_doc = json.dumps({"elements": elements, "covers": covers})
    cmds.append(("realize", ["realize", _write(d / "lattice.json", lat_doc)],
                 (elements, down)))

    if j == 0:
        # round 0 is the warm-up: one command loads cycflats.cli's
        # bytecode and the documents' pages
        return cmds[:1]
    return cmds + [("malformed", [sub, path], name)
                   for name, sub, path in malformed]


def cleanup() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def run_job(cmds, tracer=None):
    outs, raw, norm = [], 0.0, 0.0
    for i, (_, args, _) in enumerate(cmds):
        if tracer is None:
            proc, t = timed(run_child, CLI + args)
        else:
            part = WORK / f"trace-{i}.json"
            proc, t = timed(run_child, TRACED_CLI + [str(part)] + args)
            tracer.merge(json.loads(part.read_text()), t.norm / t.raw,
                         tracer.trace_id)
            part.unlink()
        outs.append(proc)
        raw += t.raw
        norm += t.norm
    return outs, Timing(raw, norm)


def _ok(proc, what: str) -> str:
    check(proc.returncode == 0 and not proc.stderr,
          f"{what}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
    return proc.stdout


def check_job(cmds, outs) -> int:
    failed = 0
    for (kind, args, expect), proc in zip(cmds, outs):
        if kind == "malformed":
            lines = proc.stderr.strip().splitlines()
            if not (proc.returncode == 2 and len(lines) == 1
                    and "Traceback" not in proc.stderr and not proc.stdout):
                failed += 1
            continue
        out = _ok(proc, kind)
        if kind == "validate":
            check(out == f"valid, rank {expect}\n", "validate output")
        elif kind == "dual":
            checks.check_dual(expect, FlatData.from_doc(json.loads(out)))
        elif kind == "freeprod":
            checks.check_free_product(*expect, FlatData.from_doc(json.loads(out)))
        elif kind == "tutte":
            got = {(t["x"], t["y"]): t["c"] for t in json.loads(out)["terms"]}
            check(got == checks.tutte_of_rank_gen(checks.uniform_rank_gen(*expect)),
                  "T(U_{r,n}) closed form")
        elif kind == "width":
            check(int(out) == checks.brute_width(expect.flats) == 2,
                  "Gimenez width against brute force")
        elif kind == "minor":
            parent, contract, seed = expect
            checks.check_minor_ranks(parent, FlatData.from_doc(json.loads(out)),
                                     contract, random.Random(seed))
        elif kind == "iso":
            head, _, body = out.partition("\n")
            check(head == "isomorphic: true", "iso answer")
            checks.check_iso_witness(*expect, json.loads(body)["witness"])
        elif kind == "realize":
            elements, down = expect
            got = FlatData.from_doc(json.loads(out))
            by_sat = {}
            for f in got.flats:
                sats = frozenset(lab[2:] for i, lab in enumerate(got.labels)
                                 if f >> i & 1 and lab.startswith("s:"))
                by_sat[sats] = f
            masks = []
            for z in range(len(elements)):
                below = frozenset(elements[x] for x in range(len(elements))
                                  if down[z] >> x & 1)
                check(below in by_sat, f"realize: no flat for {elements[z]}")
                masks.append(by_sat[below])
            check(len(got.flats) == len(elements), "realize flat count")
            checks.check_order_mirrors(down, masks, "realize")
    return failed
