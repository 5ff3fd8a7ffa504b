#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full-size run of the experiment suite.

Usage:  python scripts/generate_experiments_md.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.engine import ExperimentConfig
from repro.experiments import run_all

PREAMBLE = """\
# EXPERIMENTS — paper claims vs. measured results

The paper (*Lower Bounds in the Asymmetric External Memory Model*, Jacob &
Sitchinava, SPAA 2017) is a theory paper with **no evaluation tables or
figures**; its quantitative content is the theorems. DESIGN.md's experiment
index derives one experiment per claim; this file records the output of the
full-size suite (the committed record; regenerate with
`python scripts/generate_experiments_md.py`, or run any single experiment
with `repro-aem exp <id>`).

Reproduction standard: we match **shapes**, not absolute constants — who
wins, what grows at which rate, where crossovers fall, and that every lower
bound sits below every measured cost. Each experiment's `Checks` section is
the machine-verified form of its claim; the same checks run in the test
suite (`tests/test_experiments.py`) and in every `repro-aem exp` run.

Summary of deviations from the paper (full list in DESIGN.md §6):
heapsort is implemented as replacement-selection + omega*m-way merging;
sample sort uses deterministic regular sampling with omega sub-passes; the
SpMxV sorting-based algorithm uses omega*M-size base runs (matches the
paper's bound whenever delta <= omega*M); the abstract's `max{delta, M}`
vs. Section 5's `max{delta, B}` discrepancy is resolved in favor of
Section 5.

"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="small sweeps (CI mode)")
    ap.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent / "EXPERIMENTS.md")
    )
    args = ap.parse_args()

    t0 = time.time()
    results = run_all(ExperimentConfig(budget="quick" if args.quick else "full"))
    elapsed = time.time() - t0

    parts = [PREAMBLE]
    passed = sum(1 for r in results if r.passed)
    parts.append(
        f"_Suite: {passed}/{len(results)} experiments with all checks passing; "
        f"{'quick' if args.quick else 'full'} sweeps; "
        f"wall time {elapsed:.0f}s on one core._\n"
    )
    for r in results:
        parts.append("```")
        parts.append(r.render())
        parts.append("```")
        parts.append("")
    Path(args.out).write_text("\n".join(parts))
    print(f"wrote {args.out} ({passed}/{len(results)} passing, {elapsed:.0f}s)")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
