#!/usr/bin/env python3
"""Print the minor page faults of each shipped rate run, for the log.

Usage: python3 scripts/rate_faults.py [--rounds K]

Runs the shipped ``section_gap``, ``commutator`` and ``kernel_gap``
configs, in that order (the ``rate_sweeps`` benchmark's), for ``K`` rounds
(default 5) in one process, through ``cli.run_experiment``, with every
report written into a temporary directory.  Prints one
``<round> <mode> <faults>`` line per run, the process's ``ru_minflt``
(``getrusage``) over the run, then ``<mode> warm median <faults>`` over
the rounds after the first.  The first round also pays the process's
one-off start-up (imports, BLAS buffers); a heap that gives memory back
between runs shows as faults in every round.  No threshold: the counts
depend on the allocator and the kernel.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quadbvp import cli  # noqa: E402

MODES = ("section_gap", "commutator", "kernel_gap")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def count_faults(rounds: int, out: Path) -> dict[str, list[int]]:
    """Each mode's minor faults per run, over ``rounds`` rounds of the
    three configs, reports written under ``out``."""
    os.environ[cli.OUTPUT_ENV_VAR] = str(out)
    configs = [cli.load_config(ROOT / "configs" / f"{mode}.ini") for mode in MODES]
    counts = {mode: [] for mode in MODES}
    for r in range(rounds):
        for mode, cfg in zip(MODES, configs):
            before = minor_faults()
            cli.run_experiment(cfg)
            counts[mode].append(minor_faults() - before)
            print(f"{r} {mode} {counts[mode][-1]}", flush=True)
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        counts = count_faults(args.rounds, Path(tmp))
    for mode, faults in counts.items():
        if len(faults) > 1:
            print(f"{mode} warm median {statistics.median(faults[1:]):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
