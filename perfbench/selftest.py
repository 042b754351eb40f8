"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload: one tiny run must be correct and report the
end-to-end metrics; two traced runs on the same seed must report the
per-layer metrics with identical counts.  BENCHMARK.json must list the
metrics run.py prints, and the benchmark must refuse to run without the
library's sources.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import w_cli  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    layer_units = {name: unit for name, unit, _ in run.PER_LAYER}

    for workload, module in run.WORKLOADS.items():
        plain = result(bench(workload, 0))
        assert plain["correct"], plain
        assert set(plain["metrics"]) == {n for n, _ in run.END_TO_END}
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
        per_job = len(w_cli.FAILING_TODAY) if module is w_cli else 0
        jobs = plain["attempted"] // module.OPS_PER_JOB
        assert plain["failed"] == per_job * jobs, plain

        traced = [result(bench(workload, 1)) for _ in range(2)]
        for t in traced:
            assert t["correct"], t
            assert list(t["metrics"]) == list(layer_units)
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if layer_units[k] == "count"} for t in traced]
        assert counts[0] == counts[1], [
            (k, counts[0][k], counts[1][k])
            for k in counts[0] if counts[0][k] != counts[1][k]]
        print(f"{workload}: ok ({jobs} jobs, {plain['failed']} failed of "
              f"{plain['attempted']}; {len(counts[0])} counts repeat)")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = bench("construct", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("without sources: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
