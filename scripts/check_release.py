#!/usr/bin/env python3
"""Release gate: everything a maintainer checks before tagging.

Runs, in order: the import surface, every example script, the quick
experiment suite (all checks must pass), and reports timing. The test
suite is deliberately left to pytest (`pytest tests/`) and host timing to
`perfbench/` — this script covers the parts they do not.

Usage:  python scripts/check_release.py
"""

from __future__ import annotations

import importlib
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = [
    "repro",
    "repro.analysis",
    "repro.atoms",
    "repro.core",
    "repro.experiments",
    "repro.flashmodel",
    "repro.flashred",
    "repro.machine",
    "repro.observe",
    "repro.permute",
    "repro.primitives",
    "repro.rounds",
    "repro.sanitize",
    "repro.sorting",
    "repro.spmxv",
    "repro.structures",
    "repro.trace",
    "repro.workloads",
]


def check_imports() -> None:
    for name in MODULES:
        importlib.import_module(name)
    print(f"[ok] {len(MODULES)} packages import cleanly")


def check_examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        t0 = time.time()
        runpy.run_path(str(script), run_name="__main__")
        print(f"[ok] example {script.name} ({time.time() - t0:.1f}s)")


def check_invariants() -> int:
    from repro.sanitize import run_lint_checks, run_trace_checks

    t0 = time.time()
    found = run_trace_checks()
    found_lint = run_lint_checks()
    n = len(found) + len(found_lint)
    print(
        f"[{'ok' if n == 0 else 'FAIL'}] model sanitizers + lint: "
        f"{n} violation(s) ({time.time() - t0:.0f}s)"
    )
    for v in found:
        print(f"       {v.render()}")
    for v in found_lint:
        print(f"       {v.render()}")
    return n


def check_experiments() -> int:
    from repro.experiments import run_all

    t0 = time.time()
    from repro.engine import ExperimentConfig

    results = run_all(ExperimentConfig(budget="quick"))
    failed = [r.eid for r in results if not r.passed]
    print(
        f"[{'ok' if not failed else 'FAIL'}] experiment suite: "
        f"{len(results) - len(failed)}/{len(results)} passing "
        f"({time.time() - t0:.0f}s)"
    )
    for r in results:
        if not r.passed:
            bad = [k for k, ok in r.checks.items() if not ok]
            print(f"       {r.eid}: {bad}")
    return len(failed)


def main() -> int:
    import contextlib
    import io

    check_imports()
    # Examples print a lot; keep the gate output terse.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        check_examples()
    for line in buf.getvalue().splitlines():
        if line.startswith("[ok] example"):
            print(line)
    failed = check_invariants()
    failed += check_experiments()
    print("release gate:", "PASS" if failed == 0 else f"FAIL ({failed})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
