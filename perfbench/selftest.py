#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs of ``run.py
--size tiny`` and checks that

* the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, every problem verified, and every metric of
  ``BENCHMARK.json`` printed by name with its unit and a finite value;
* counts (every per-layer metric whose unit is not a time, rate or share)
  are identical across the two traced runs of the same seed;
* the traced self times sum to no more than the traced pass time.

It also checks that the benchmark, copied alone into an empty directory,
exits with a nonzero code and prints no result.  Exits 0 when every check
passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORKLOADS

NOT_COUNTS = {"s", "1/s", "%"}
SEED = 7
TIMEOUT_S = 170


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_line(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_result(label: str, proc, expected: list[dict], errors: list[str]) -> dict:
    result = result_line(proc)
    if proc.returncode != 0 or result is None:
        errors.append(f"{label}: exit {proc.returncode}, no result line\n{proc.stderr}")
        return {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: not every problem verified\n{proc.stderr}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        errors.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} = {value!r} is not a finite number")
        elif f"# {name} = " not in proc.stdout:
            errors.append(f"{label}: {name} missing from the human-readable lines")
    return {name: m.get("value") for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for workload in WORKLOADS:
        check_result(f"{workload} trace 0", bench(workload, 0), spec["end_to_end"], errors)
        traced = [check_result(f"{workload} trace 1 run {i}", bench(workload, 1),
                               spec["per_layer"], errors) for i in (1, 2)]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if all(traced):
            for name, unit in units.items():
                if unit not in NOT_COUNTS and traced[0][name] != traced[1][name]:
                    errors.append(f"{workload}: count {name} differs between runs: "
                                  f"{traced[0][name]} vs {traced[1][name]}")
            for values in traced:
                total = sum(v for n, v in values.items()
                            if n.endswith(".self_s") and units[n] == "s")
                if total > values["bench.traced_pass_s"]:
                    errors.append(f"{workload}: self times sum to {total} s, more than the "
                                  f"traced pass time {values['bench.traced_pass_s']} s")
        print(f"{workload}: checked", flush=True)

    empty = ROOT / ".perfbench_out" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    empty.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        shutil.copytree(BENCH_DIR, empty / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=empty, script=empty / BENCH_DIR.name / "run.py")
        if proc.returncode == 0 or result_line(proc) is not None:
            errors.append(f"empty directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print("empty directory: checked")
    finally:
        shutil.rmtree(empty, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
