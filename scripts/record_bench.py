#!/usr/bin/env python3
"""Record benchmark runs of this checkout, and optionally of a second one,
into ``BENCH_<label>.json``.

Usage, from anywhere::

    python3 scripts/record_bench.py --label L [--src PATH] [--pairs K]
        [--pairs WORKLOAD=K ...] [--workload NAME ...] [--seconds S]
        [--size full|tiny] [--out DIR]

Each run is the measured tree's own ``perfbench/run.py --trace 0``,
unmodified, started in that tree.  With ``--src``, the runs come in pairs
on the same seed (pair ``i`` uses seed ``i + 1``), and the side that runs
first alternates from pair to pair.  After the pairs, each tree runs
``perfbench/run.py --trace 1`` once per workload on seed 1, for its
per-layer metrics (self times and work counts of each layer).  ``--pairs
K`` sets the number of pairs (or of runs, without ``--src``) for every
workload, default 3, and ``--pairs WORKLOAD=K`` for one of them;
``--workload`` restricts the workloads.  The file holds every run's JSON
result line and ``# facts`` line, the git revision of each tree, per
workload and metric each tree's median and quartiles over its runs and the
number of pairs in which this checkout did better, and the traced runs
with their per-layer metrics side by side.  ``--out`` (default: this
checkout) is created, with its parents, before the first run.  Exits 1 if
a run failed or verified wrongly; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_ladder", "roundtrip_many", "rate_sweeps")
NOTE = ("Each metric is perfbench's own median over the warm passes of one run; "
        "the summary takes medians and quartiles over runs. The machine's CPUs were "
        "not pinned and its clock was not fixed, so compare sides measured in the "
        "same file, not across files.")


def pair_counts(specs: list[str], workloads: list[str]) -> dict[str, int]:
    default, named = 3, {}
    for spec in specs:
        name, _, value = spec.rpartition("=")
        if name and name not in WORKLOADS:
            raise SystemExit(f"--pairs: unknown workload {name!r}")
        if not value.isdigit() or int(value) < 1:
            raise SystemExit(f"--pairs: {spec!r} is not a positive count")
        if name:
            named[name] = int(value)
        else:
            default = int(value)
    return {workload: named.get(workload, default) for workload in workloads}


def revision(tree: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"git_revision": git("rev-parse", "HEAD") or "unavailable",
            "uncommitted_changes": bool(git("status", "--porcelain",
                                            "--untracked-files=no"))}


def run_once(tree: Path, workload: str, seed: int, args, trace: int = 0) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=args.seconds + 900)
    lines = proc.stdout.strip().splitlines()
    record = {"returncode": proc.returncode, "result": None, "facts": None}
    for line in lines:
        if line.startswith("# facts "):
            record["facts"] = json.loads(line[len("# facts "):])
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], sides: list[str]) -> dict:
    directions = {m["name"]: m["better"] for m in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        ok = [r for r in runs if r["workload"] == workload and r["result"]]
        metrics = {}
        for name, better in directions.items():
            values = {side: {r["pair"]: r["result"]["metrics"][name]["value"]
                             for r in ok if r["tree"] == side} for side in sides}
            row = {side: quartiles(list(v.values())) for side, v in values.items() if v}
            if len(sides) == 2:
                paired = [(values["head"][p], values["src"][p])
                          for p in values["head"] if p in values["src"]]
                wins = sum(h < s if better == "lower" else h > s for h, s in paired)
                row["head_better_pairs"] = f"{wins}/{len(paired)}"
            metrics[name] = row
        summary[workload] = metrics
    return summary


def per_layer(traced: list[dict]) -> dict:
    """Per workload and per-layer metric, each tree's value from its traced run."""
    table = {}
    for r in traced:
        if r["result"]:
            rows = table.setdefault(r["workload"], {})
            for name, metric in r["result"]["metrics"].items():
                rows.setdefault(name, {})[r["tree"]] = metric["value"]
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, help="a second checkout to measure")
    parser.add_argument("--pairs", action="append", default=[], metavar="[WORKLOAD=]K")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    trees = {"head": ROOT}
    if args.src is not None:
        if not (args.src / "perfbench" / "run.py").is_file():
            raise SystemExit(f"--src: no perfbench/run.py under {args.src}")
        trees["src"] = args.src.resolve()
    counts = pair_counts(args.pairs, args.workload or list(WORKLOADS))
    revisions = {side: revision(tree) for side, tree in trees.items()}
    # before the first run, so that no run is lost to a missing directory
    args.out.mkdir(parents=True, exist_ok=True)

    runs = []
    for workload, count in counts.items():
        for pair in range(count):
            sides = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for order, side in enumerate(sides):
                print(f"{workload} pair {pair + 1}/{count}: {side}", file=sys.stderr)
                record = run_once(trees[side], workload, pair + 1, args)
                runs.append({"workload": workload, "pair": pair, "seed": pair + 1,
                             "tree": side, "order": order, **record})
    traced = []
    for index, workload in enumerate(counts):
        sides = list(trees) if index % 2 == 0 else list(trees)[::-1]
        for side in sides:
            print(f"{workload} traced: {side}", file=sys.stderr)
            record = run_once(trees[side], workload, 1, args, trace=1)
            traced.append({"workload": workload, "seed": 1, "tree": side, **record})

    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label, "note": NOTE,
        "settings": {"seconds": args.seconds, "size": args.size, "trace": 0,
                     "pairs": counts, "traced_runs_per_tree": 1},
        "trees": revisions,
        "summary": summarize(runs, list(trees)),
        "per_layer": per_layer(traced),
        "runs": runs,
        "traced_runs": traced}, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    bad = [r for r in runs + traced if not (r["result"] and r["result"]["correct"])]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
