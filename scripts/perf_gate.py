#!/usr/bin/env python3
"""Wall-time gate: one perfbench run against a committed point.

Usage::

    python3 perfbench/run.py --workload sweep --seed 7919 --seconds 8 --trace 0 > sweep.txt
    python3 scripts/perf_gate.py benchmarks/perfbench_sweep_7919.json sweep.txt

The point file holds the final JSON line of an earlier run of the same
command; the run output file holds the new run's stdout, whose last line
is its result. The gate prints both end-to-end ``wall_s`` values and
their ratio, and exits 1 with one message unless the new result reports
``"correct": true`` and its ``wall_s`` is at most :data:`BOUND` times
the point's. A result without ``wall_s`` (a traced run reports only
per-layer metrics) fails too.

The model costs need no gate here: a sweep whose costs differ from
``perfbench/pinned.json`` already reports ``"correct": false``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: A run slower than ``BOUND`` times the point fails. 4.0 is the bound
#: CI's ``bench-gate`` job held the old micro suite's wall times to. It
#: is loose because the CI runner is not the host the point was taken
#: on; perfbench already scales ``sweep`` and ``exp`` times to its
#: reference host speed, which removes most, not all, of that difference.
BOUND = 4.0


def last_result(path: str) -> dict:
    """The JSON object on the last line of ``path``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def wall_s(result: dict) -> float | None:
    metric = result.get("metrics", {}).get("wall_s")
    return None if metric is None else float(metric["value"])


def check(point: dict, result: dict) -> str | None:
    """The failure message, or ``None`` when the result passes."""
    base, wall = wall_s(point), wall_s(result)
    if base is None or base <= 0:
        return f"the point has no positive wall_s ({base!r})"
    if wall is not None:
        print(f"wall_s {wall:.3f} s, point {base:.3f} s: {wall / base:.2f}x (bound {BOUND}x)")
    if result.get("correct") is not True:
        return f"the run reported correct = {result.get('correct')!r}"
    if wall is None:
        return "the run reported no wall_s"
    if wall > BOUND * base:
        return f"wall_s is {wall / base:.2f}x the point, above the {BOUND}x bound"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: perf_gate.py <point file> <run output file>", file=sys.stderr)
        return 2
    try:
        failure = check(last_result(argv[0]), last_result(argv[1]))
    except (OSError, ValueError) as exc:
        failure = f"unreadable input: {type(exc).__name__}: {exc}"
    if failure is not None:
        print(f"perf gate failed: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
