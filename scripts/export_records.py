#!/usr/bin/env python3
"""Export experiment records to CSV for external plotting.

Each experiment's swept measurements land in one CSV under ``results/``
(one file per experiment, one row per record, columns unioned across
records). Usage::

    python scripts/export_records.py            # all experiments, quick
    python scripts/export_records.py --full e1 e7
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.engine import ExperimentConfig
from repro.experiments import REGISTRY, run_experiment


def export(eid: str, outdir: Path, *, quick: bool) -> Path:
    result = run_experiment(eid, ExperimentConfig(budget="quick" if quick else "full"))
    fields: list[str] = []
    for rec in result.records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    path = outdir / f"{result.eid.lower()}_records.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for rec in result.records:
            writer.writerow(rec)
    return path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    ap.add_argument("--full", action="store_true", help="full-size sweeps")
    ap.add_argument(
        "--outdir",
        default=str(Path(__file__).resolve().parent.parent / "results"),
    )
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ids = [i.lower() for i in args.ids] or sorted(REGISTRY)
    for eid in ids:
        path = export(eid, outdir, quick=not args.full)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
