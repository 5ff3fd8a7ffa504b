#!/usr/bin/env python
"""CI smoke for the cost-attribution profiler and trace propagation.

Asserts the observability acceptance surface end to end:

1. ``repro-aem profile`` on every registered workload exits zero — the
   in-command conservation check (attributed totals == the ledgers of
   the profiled machines) is a hard failure, so the exit code alone
   carries it — and writes loadable ``profile.folded`` /
   ``profile.speedscope.json`` artifacts with nonzero stack depth;
2. a direct :class:`CostProfiler` run conserves exactly on both a full
   and a counting machine, with identical per-path attribution;
3. one query served with a telemetry dir yields a ``trace.json`` whose
   request→engine→machine flow chain (``s``/``t``/``f``) passes
   :func:`repro.telemetry.validate_trace`.

Run as ``PYTHONPATH=src python scripts/profile_smoke.py --out-dir DIR``.
Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import api
from repro.cli import main as cli_main
from repro.serve import ServeConfig, ServerThread
from repro.telemetry import CostProfiler, validate_trace

#: Flags per workload target; every other registered workload is
#: profiled at ``--n 1024``.
PROFILE_FLAGS = {
    "sort": ["--sorter", "aem_mergesort", "--n", "4096"],
    "spmxv": ["--algorithm", "sort_based", "--n", "256", "--delta", "3"],
}
MACHINE = ["--m", "64", "--b", "8", "--omega", "4"]


def fail(msg: str) -> None:
    print(f"profile smoke FAILED: {msg}", file=sys.stderr)
    raise SystemExit(1)


def check_cli_profiles(out_dir: Path) -> None:
    for target in api.workload_names():
        flags = PROFILE_FLAGS.get(target, ["--n", "1024"])
        dest = out_dir / f"profile-{target}"
        rc = cli_main(
            ["profile", target, *flags, *MACHINE, "--out", str(dest)]
        )
        if rc != 0:
            fail(f"`profile {target}` exited {rc} (conservation broken?)")
        folded = (dest / "profile.folded").read_text().splitlines()
        if not folded:
            fail(f"{target}: empty profile.folded")
        depth = max(line.rsplit(" ", 1)[0].count(";") for line in folded)
        if depth < 1:
            fail(f"{target}: flat profile (max stack depth {depth})")
        doc = json.loads((dest / "profile.speedscope.json").read_text())
        profile = doc["profiles"][0]
        if not profile["samples"] or len(profile["samples"]) != len(
            profile["weights"]
        ):
            fail(f"{target}: malformed speedscope document")
        print(
            f"  profile {target}: {len(folded)} path(s), "
            f"max depth {depth + 1}, artifacts in {dest}"
        )


def check_conservation_and_counting_parity() -> None:
    query = {"n": 2048, "M": 64, "B": 8, "omega": 4, "sorter": "aem_mergesort"}
    attributions = {}
    for counting in (False, True):
        profiler = CostProfiler(root="sort")
        rec = api.evaluate(
            "sort", dict(query, counting=counting), observers=[profiler]
        )
        errors = profiler.conservation_errors(rec)
        if errors:
            fail(f"conservation (counting={counting}): {errors}")
        attributions[counting] = {
            path: stats.as_dict() for path, stats in profiler.paths().items()
        }
    if attributions[False] != attributions[True]:
        fail("counting-mode attribution differs from the full machine")
    print(
        f"  conservation: exact on full + counting machines "
        f"({len(attributions[False])} path(s), identical attribution)"
    )


def check_serve_flow_trace(out_dir: Path) -> None:
    trace_dir = out_dir / "serve-trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with ServerThread(
        ServeConfig(
            port=0, counting=True, cache=False, telemetry_dir=str(trace_dir)
        )
    ) as srv:
        resp = srv.post(
            "/evaluate",
            {"workload": "sort", "n": 512, "M": 64, "B": 8, "omega": 4},
        )
        if resp.status != 200:
            fail(f"served query answered {resp.status}")
        span = resp.json()["span"]
    trace_path = trace_dir / "trace.json"
    if not trace_path.is_file():
        fail("drained server wrote no trace.json")
    trace = json.loads(trace_path.read_text())
    try:
        validate_trace(trace)
    except ValueError as exc:
        fail(f"trace.json failed validation: {exc}")
    chain = [
        e["ph"]
        for e in trace["traceEvents"]
        if e["ph"] in ("s", "t", "f") and e["id"] == span["trace_id"]
    ]
    if chain != ["s", "t", "f"]:
        fail(f"flow chain for {span['trace_id']} is {chain}, want [s, t, f]")
    print(f"  serve flow: validated s->t->f chain in {trace_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="profile-out")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print("profile smoke:")
    check_cli_profiles(out_dir)
    check_conservation_and_counting_parity()
    check_serve_flow_trace(out_dir)
    print("profile smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
