"""Self-test: a tampered pinned cost must be reported as a failure.

Usage (from the checkout root)::

    python3 perfbench/selftest.py

Runs one pass of ``sweep`` at the default seed against the committed
pinned costs (must pass), then once per part (build, query) against a
copy with one field of one record of that part changed (must fail,
naming that record). Exits non-zero if any expectation does not hold.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import inputs
import worker


def one_pass(pinned: dict) -> worker.SweepWorkload:
    work = worker.SweepWorkload(inputs.DEFAULT_SEED, pinned)
    work.set_up()
    work.run_pass()
    return work


def main() -> int:
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    clean = one_pass(pinned)
    ok = not (clean.failed or clean.problems)
    if not ok:
        print(f"FAIL: the committed pins do not match: {clean.problems}")
    seed = str(inputs.DEFAULT_SEED)
    offset = 0  # records of the earlier parts: the pass numbers them all
    for part in inputs.SWEEP_PARTS:
        tampered = copy.deepcopy(pinned)
        tampered[part][seed][1]["Qr"] += 1
        bad = one_pass(tampered)
        tag = f"[{offset + 1}]: pinned"
        caught = bad.failed == 1 and any(tag in p for p in bad.problems)
        print(f"{'ok' if caught else 'FAIL'} {part}: tampered Qr of its record 1 -> "
              f"{bad.failed} failed: {bad.problems}")
        ok &= caught
        offset += len(pinned[part][seed])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
