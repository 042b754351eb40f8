"""Benchmark for cycflats.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  The workloads are construct, enumerate, search and cli (see
README.md).  A run does a fixed amount of work: round(S x the workload's
nominal jobs per second) jobs, whatever the machine's speed.  The last
line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "cycflats" / "__init__.py").is_file():
    print(f"error: no cycflats sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import w_cli  # noqa: E402
import w_construct  # noqa: E402
import w_enumerate  # noqa: E402
import w_search  # noqa: E402
from harness import median_timing, time_child, timed  # noqa: E402

WORKLOADS = {"construct": w_construct, "enumerate": w_enumerate,
             "search": w_search, "cli": w_cli}

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = tracing.metric_names() + [
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("bench.traced_jobs_per_s", "1/s", "higher"),
]


def job_count(module, seconds: int) -> int:
    return max(2, round(seconds * module.NOMINAL_JOBS_PER_S))


def build_inputs(module, seed: int, n: int):
    """Every job's inputs, built through the library; returns (inputs,
    Timing), each job's build scaled by the reference kernels around it."""
    shared, t_shared = timed(module.shared_inputs)
    inputs, t_each = harness.timed_each(
        lambda j: module.make_input(seed, j, shared), range(n))
    return inputs, harness.Timing(t_shared.raw + t_each.raw,
                                  t_shared.norm + t_each.norm)


def set_up(module, seed: int, jobs: int):
    """Import and input building, three times each; report the medians.

    Returns (inputs, setup Timing): the last build's inputs, after the
    warm-up job has run on input 0.
    """
    start = median_timing([time_child("import cycflats") for _ in range(3)])
    builds = []
    for _ in range(3):
        inputs, t = build_inputs(module, seed, jobs + 1)
        builds.append(t)
    build = median_timing(builds)
    out, warm = module.run_job(inputs[0])
    module.check_job(inputs[0], out)
    return inputs[1:], harness.Timing(start.raw + build.raw + warm.raw,
                                      start.norm + build.norm + warm.norm)


def child_start_ms(code: str) -> float:
    """Median reference-speed time of five `python -c code` children."""
    return statistics.median(time_child(code).norm for _ in range(5)) * 1000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    module = WORKLOADS[args.workload]
    harness.prepare()
    try:
        inputs, setup = set_up(module, args.seed,
                               job_count(module, args.seconds))
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        correct, failed, attempted, times = True, 0, 0, []
        for j in range(len(inputs)):
            # drop the job's inputs once it is done: their cached rank
            # tables would otherwise pile up in peak memory
            inp, inputs[j] = inputs[j], None
            attempted += module.OPS_PER_JOB
            if tracer:
                tracer.begin_job(j)
            try:
                out, t = module.run_job(inp, tracer)
            except Exception:
                traceback.print_exc()
                failed += 1
                correct = False
                continue
            if tracer:
                tracer.end_job(t.norm / t.raw)
            times.append(t)
            try:
                failed += module.check_job(inp, out)
            except Exception as exc:  # any error reading an output is a wrong output
                print(f"check failed in job {j}: {exc!r}", file=sys.stderr)
                correct = False
            del out
        if tracer:
            tracer.uninstall()
    finally:
        if module is w_cli:
            w_cli.cleanup()

    total = sum(t.norm for t in times)
    raw_total = sum(t.raw for t in times)
    jobs_per_s = len(times) / total if total else 0.0
    if tracer:
        values = tracer.metrics()
        values["cli.interpreter_ms"] = values["cli.import_ms"] = 0.0
        if module is w_cli:
            interp = child_start_ms("pass")
            values["cli.interpreter_ms"] = interp
            values["cli.import_ms"] = child_start_ms("import cycflats") - interp
        values["bench.traced_jobs_per_s"] = jobs_per_s
        metrics = {name: values[name] for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        spans = harness.RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        harness.RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans}")
    else:
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": statistics.median(t.norm for t in times) * 1000,
            "setup_s": setup.norm,
            "peak_rss_mb": harness.peak_rss_mb(children=module is w_cli),
        }
        units = dict(END_TO_END)
        print(f"{args.workload}: {len(times)} jobs, wall {raw_total:.3f} s "
              f"({len(times) / raw_total:.4f} jobs/s, p50 "
              f"{statistics.median(t.raw for t in times) * 1000:.2f} ms), "
              f"setup wall {setup.raw:.3f} s")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    harness.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        dict(result, raw_wall_s=raw_total, jobs=len(times),
             setup_wall_s=setup.raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
