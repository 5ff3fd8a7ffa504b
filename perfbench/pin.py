"""Print the pinned costs of the ``sweep`` workload, a table per part.

Usage (from the checkout root)::

    python3 perfbench/pin.py > perfbench/pinned.json

Run it only when a change to the program is meant to change model costs;
the benchmark fails any run whose records differ from this table.
"""

from __future__ import annotations

import json
import sys

from common import use_src

use_src()

import inputs  # noqa: E402

from repro import api  # noqa: E402
from repro.engine import SweepEngine  # noqa: E402

FIELDS = ("Q", "Qr", "Qw", "T", "peak_mem")


def main() -> int:
    engine = SweepEngine(jobs=1, cache=None)
    table: dict = {}
    for name, make in (("build", inputs.build_queries), ("query", inputs.query_queries)):
        table[name] = {}
        for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
            records = api.sweep(make(seed), engine=engine)
            table[name][str(seed)] = [
                {k: dict(r)[k] for k in FIELDS} for r in records
            ]
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
