"""Timing, memory and result plumbing shared by every workload.

Wall times on a shared machine drift with the load of other tenants: the
same fixed batch ran anywhere between 1.0x and 1.9x of its fastest speed
within a minute on the 2-core host this benchmark was written on.  Every
timed interval is therefore bracketed by a fixed reference kernel (the
library's three styles of work: integer arithmetic, a numpy bit count
and nested loops over bitmasks) and scaled by REF_NOMINAL_S over the
kernel's measured time.  Reported times are "seconds at reference speed": wall seconds on
a machine where the kernel takes REF_NOMINAL_S.  The raw wall times are
printed alongside on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

REF_NOMINAL_S = 0.0006  # the kernel's time on this host when unloaded
_REF_ARRAY = np.arange(1 << 15, dtype=np.uint64)
_REF_FAMILY = [(i * 0x9E3779B1) & 0xFFFFFF for i in range(1, 49)]


class CheckFailed(Exception):
    """A program output disagrees with an independent computation."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _ref_kernel() -> int:
    """Fixed work in the library's three styles: integer arithmetic, a
    numpy bit count, and nested loops building down masks of a family."""
    s = 0
    for i in range(3000):
        s += (i * 2654435761) & 0xFFFF
    for j in range(3):
        s += int(np.bitwise_count(_REF_ARRAY & np.uint64(0x5555 + j)).sum())
    down = [0] * len(_REF_FAMILY)
    for i, a in enumerate(_REF_FAMILY):
        for j, b in enumerate(_REF_FAMILY):
            if b & ~a == 0:
                down[i] |= 1 << j
    keyed = sorted((m.bit_count(), m) for m in _REF_FAMILY)
    return s + sum(down) + len(keyed)


def ref_time() -> float:
    """Median of three runs of the reference kernel, in seconds."""
    xs = []
    for _ in range(3):
        t0 = time.perf_counter()
        _ref_kernel()
        xs.append(time.perf_counter() - t0)
    return statistics.median(xs)


class Timing(NamedTuple):
    """A timed interval: raw wall seconds and seconds at reference speed."""

    raw: float
    norm: float


def timed(fn, *args):
    """Run fn(*args) between two reference kernels; return (result, Timing)."""
    r0 = ref_time()
    t0 = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - t0
    r1 = ref_time()
    return result, Timing(raw, raw * REF_NOMINAL_S / ((r0 + r1) / 2))


def timed_each(fn, items):
    """[fn(x) for x in items], with one reference kernel between calls;
    each call is scaled by the kernels on either side.  Returns
    (results, total Timing)."""
    out, raw, norm = [], 0.0, 0.0
    r_prev = ref_time()
    for x in items:
        t0 = time.perf_counter()
        out.append(fn(x))
        dt = time.perf_counter() - t0
        r = ref_time()
        raw += dt
        norm += dt * REF_NOMINAL_S / ((r_prev + r) / 2)
        r_prev = r
    return out, Timing(raw, norm)


def prepare() -> None:
    """Keep the benchmark and its children on one CPU, so the reference
    kernel measures the CPU the jobs run on, and take the kernel's
    first-call costs before anything is timed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    for _ in range(5):
        ref_time()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(args) -> subprocess.CompletedProcess:
    """Run one child process to completion, capturing its output."""
    return subprocess.run(args, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)


def time_child(code: str) -> Timing:
    """A fresh interpreter running `python -c code`, start to exit."""
    def start():
        proc = run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed:\n{proc.stderr}")
    return timed(start)[1]


def median_timing(ts) -> Timing:
    return Timing(statistics.median(t.raw for t in ts),
                  statistics.median(t.norm for t in ts))


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def write_result(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")
