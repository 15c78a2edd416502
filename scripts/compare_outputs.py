#!/usr/bin/env python3
"""Compare two trees of experiment outputs as numbers.

Usage: python3 scripts/compare_outputs.py A B

For every CSV and summary (``*.csv``, ``*_summary.txt``) under A with a
twin at the same relative path under B, prints how many of its numbers
differ and the largest relative difference, ``|a - b| / max(|a|, |b|)``.
``wall_seconds`` is left out, and a gate's verdict is compared as text
with the numbers of its detail masked.  Exits 1 when A holds no output,
when an output under either tree has no twin under the other, or when
keys, columns, text or integers differ.
Numbers that differ are only counted: the script has no tolerance, the
tests keep theirs.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def parse_cell(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def output_cells(path: Path):
    """``(name, cells)`` per line of a CSV or summary: the schema line, the
    columns, each row's cells by column, each summary key's tokens, and each
    gate's verdict with its detail's numbers masked.  ``wall_seconds`` is
    left out."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        columns = lines[1].split(",")
        yield "schema", [lines[0]]
        yield "columns", columns
        for line in lines[2:]:
            yield from zip(columns, ([parse_cell(c)] for c in line.split(",")))
        return
    for line in lines:
        key, _, value = line.partition(" = ")
        if key == "wall_seconds":
            continue
        if key.startswith("gate_"):
            yield key, [NUMBER.sub("#", value)]
        else:
            yield key, [parse_cell(token) for token in value.split()]


def relative_difference(a: float, b: float) -> float:
    if a == b or math.isnan(a) and math.isnan(b):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare(a: Path, b: Path) -> tuple[list[str], int, int, float]:
    """The mismatches of text, integers or names between two output files,
    and the count of their numbers, of those that differ, and the largest
    relative difference."""
    got, want = list(output_cells(a)), list(output_cells(b))
    if [name for name, _ in got] != [name for name, _ in want]:
        return ["keys or columns differ"], 0, 0, 0.0
    mismatches, numbers, differ, largest = [], 0, 0, 0.0
    for (name, cells_a), (_, cells_b) in zip(got, want):
        if len(cells_a) != len(cells_b):
            mismatches.append(f"{name}: {len(cells_a)} against {len(cells_b)} values")
            continue
        for x, y in zip(cells_a, cells_b):
            if isinstance(x, str) or isinstance(y, str) \
                    or isinstance(x, int) and isinstance(y, int):
                if x != y:
                    mismatches.append(f"{name}: {x!r} against {y!r}")
                continue
            numbers += 1
            rel = relative_difference(float(x), float(y))
            differ += rel != 0.0
            largest = max(largest, rel)
    return mismatches, numbers, differ, largest


def outputs(root: Path) -> list[Path]:
    """The outputs under ``root``, as paths relative to it."""
    return sorted(p.relative_to(root) for pattern in ("*.csv", "*_summary.txt")
                  for p in root.rglob(pattern))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    files = outputs(a)
    if not files:
        print(f"no outputs under {a}")
        return 1
    # an output B holds with no twin under A is not compared: it fails
    unmatched = sorted(set(outputs(b)) - set(files))
    for rel in unmatched:
        print(f"{rel}: no twin in {a}")
    failed = bool(unmatched)
    for rel in files:
        twin = b / rel
        if not twin.is_file():
            print(f"{rel}: no twin in {b}")
            failed = True
            continue
        mismatches, numbers, differ, largest = compare(a / rel, twin)
        for line in mismatches:
            print(f"{rel}: {line}")
        failed |= bool(mismatches)
        print(f"{rel}: {differ} of {numbers} numbers differ, "
              f"largest relative difference {largest:.2g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
