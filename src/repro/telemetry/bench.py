"""The benchmark trajectory: ``BENCH_<stamp>.json`` points + regression gate.

The ROADMAP's mandate is "fast as the hardware allows"; this module is
how the repository *knows* whether it still is. One run of the suite

1. executes a fixed set of benchmark cases (sorters, permuters, SpMxV
   on pinned instances) measuring wall time and the exact model costs
   (``Q``/``Qr``/``Qw``/``T``/``peak_mem`` — deterministic, so any drift
   is an algorithm change, not noise);
2. writes the results as one ``BENCH_<stamp>.json`` *trajectory point*
   (committing a sequence of them across PRs plots the repo's
   performance history);
3. gates against the committed baseline
   (``benchmarks/BENCH_baseline.json``): any case slower than
   ``baseline * threshold``, or whose cost counters differ from the
   baseline's, exits nonzero. The threshold lives in ONE place —
   :data:`DEFAULT_THRESHOLD`, overridable by the
   ``REPRO_BENCH_THRESHOLD`` environment variable or ``--threshold`` —
   so tightening the gate is a one-line change.

Wall times are min-of-``repeats`` (the standard noise floor estimator).
Cost drift fails the gate: the counters are deterministic, so drift is a
bug until shown to be intended. A deliberate algorithmic change that
moves costs is accepted with ``--write-baseline``, reviewed like any
other diff.

Entry points: ``repro-aem bench`` (the CLI) and
``scripts/bench_trajectory.py`` (CI / direct use).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from ..core.params import AEMParams
from .manifest import json_default, utc_now

#: The one place the gate's slowdown threshold is defined (a current
#: wall time above ``baseline * threshold`` fails the gate). CI and the
#: CLI both read it through :func:`default_threshold`.
DEFAULT_THRESHOLD = 2.5

THRESHOLD_ENV = "REPRO_BENCH_THRESHOLD"

#: Where the committed baseline trajectory point lives.
BASELINE_PATH = "benchmarks/BENCH_baseline.json"

BENCH_SCHEMA = 1


def default_threshold() -> float:
    return float(os.environ.get(THRESHOLD_ENV, DEFAULT_THRESHOLD))


# ----------------------------------------------------------------------
# The suite.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: a callable returning a CostRecord-like mapping.

    ``setup``, when present, runs fresh before every timed repeat and its
    return value is passed to ``run``; its wall time is excluded. Use it
    when instance construction would otherwise dominate the measured
    region (the micro cases); end-to-end cases leave it ``None``.
    """

    name: str
    run: Callable[..., Mapping]
    setup: Optional[Callable[[], object]] = None


def _sort_case(
    sorter: str, n: int, params: AEMParams, *, counting: bool = False
) -> BenchCase:
    from ..api.measures import measure_sort

    return BenchCase(
        f"sort/{sorter}/n{n}" + ("/counting" if counting else ""),
        lambda: measure_sort(sorter, n, params, counting=counting),
    )


def _permute_case(
    permuter: str, n: int, params: AEMParams, *, counting: bool = False
) -> BenchCase:
    from ..api.measures import measure_permute

    return BenchCase(
        f"permute/{permuter}/n{n}" + ("/counting" if counting else ""),
        lambda: measure_permute(permuter, n, params, counting=counting),
    )


def _spmxv_case(
    algorithm: str, n: int, delta: int, params: AEMParams, *, counting: bool = False
) -> BenchCase:
    from ..api.measures import measure_spmxv

    return BenchCase(
        f"spmxv/{algorithm}/n{n}d{delta}" + ("/counting" if counting else ""),
        lambda: measure_spmxv(algorithm, n, delta, params, counting=counting),
    )


def _index_case(
    n: int, params: AEMParams, *, counting: bool = False
) -> BenchCase:
    from ..workloads.search.measures import measure_index_build

    return BenchCase(
        f"index/build/n{n}" + ("/counting" if counting else ""),
        lambda: measure_index_build(n, params, counting=counting, verify=False),
    )


def _search_case(
    n: int, queries: int, params: AEMParams, *, counting: bool = False
) -> BenchCase:
    from ..workloads.search.measures import measure_search_query

    return BenchCase(
        f"search/and/n{n}q{queries}" + ("/counting" if counting else ""),
        lambda: measure_search_query(
            n, params, n_queries=queries, counting=counting, verify=False
        ),
    )


def _scan_case(
    B: int,
    n: int,
    *,
    passes: int = 6,
    counting: bool = False,
) -> BenchCase:
    """Machine-bound microbench: pure block I/O dispatch, no algorithm.

    At B=128 the full run's wall time is dominated by payload copies —
    exactly what counting mode removes — so the counting/full pair of this
    case is the suite's direct readout of the fast path's speedup. Atom
    construction and problem placement happen in ``setup`` (untimed);
    the timed region is ``passes`` streaming scans over the input, so the
    measurement is the per-I/O machine overhead and nothing else.
    """

    def setup() -> object:
        from ..atoms.atom import make_atoms
        from ..machine.aem import AEMMachine

        params = AEMParams(M=8 * B, B=B, omega=8)
        machine = AEMMachine.for_algorithm(params, counting=counting)
        addrs = machine.load_input(make_atoms(range(n)))
        return machine, addrs

    def run(state: object) -> Mapping:
        from ..machine.cost import CostRecord
        from ..machine.streams import scan_copy

        machine, addrs = state
        for _ in range(passes):
            scan_copy(machine, addrs)
        return CostRecord.from_snapshot(
            machine.snapshot(), peak=machine.core.mem.peak
        )

    return BenchCase(
        f"micro/scan_copy/B{B}n{n}" + ("/counting" if counting else ""),
        run,
        setup,
    )


_P = AEMParams(M=128, B=16, omega=8)


def default_suite() -> Tuple[BenchCase, ...]:
    """The pinned trajectory suite: one case per hot code path.

    Sizes are chosen so every case runs well above the OS noise floor
    (tens of milliseconds) while the whole suite stays CI-cheap. The
    ``/counting`` twins run the same instance on a counting machine —
    their cost counters must match the full case exactly (any drift is a
    counting-mode bug), and their wall times record the fast path's
    speedup in the trajectory.
    """
    return (
        _sort_case("aem_mergesort", 20000, _P),
        _sort_case("aem_mergesort", 20000, _P, counting=True),
        _sort_case("em_mergesort", 20000, _P),
        _sort_case("aem_samplesort", 20000, _P),
        _permute_case("adaptive", 16384, _P),
        _permute_case("naive", 8192, _P),
        _spmxv_case("sort_based", 1024, 4, _P),
        _spmxv_case("sort_based", 1024, 4, _P, counting=True),
        _index_case(8000, _P),
        _index_case(8000, _P, counting=True),
        _search_case(4000, 128, _P),
        _search_case(4000, 128, _P, counting=True),
        _scan_case(128, 200_000),
        _scan_case(128, 200_000, counting=True),
    )


# ----------------------------------------------------------------------
# Running and recording.
# ----------------------------------------------------------------------
def run_case(case: BenchCase, *, repeats: int = 2) -> dict:
    """Best-of-``repeats`` wall time plus the (deterministic) cost payload."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    cost: Mapping = {}
    for _ in range(repeats):
        if case.setup is not None:
            state = case.setup()
            t0 = time.perf_counter()
            cost = case.run(state)
        else:
            t0 = time.perf_counter()
            cost = case.run()
        best = min(best, time.perf_counter() - t0)
    return {"wall_s": best, **{k: cost[k] for k in cost}}


def run_suite(
    suite: Optional[Sequence[BenchCase]] = None,
    *,
    repeats: int = 2,
    log: Optional[Callable[[str], None]] = None,
) -> dict:
    suite = default_suite() if suite is None else suite
    results = {}
    for case in suite:
        results[case.name] = run_case(case, repeats=repeats)
        if log is not None:
            r = results[case.name]
            log(f"  {case.name}: {r['wall_s']:.3f}s  Q={r.get('Q', '?'):g}")
    return results


def trajectory_point(results: Mapping[str, Mapping]) -> dict:
    """Wrap suite results in the ``BENCH_*.json`` envelope."""
    import platform

    from repro import __version__

    return {
        "schema": BENCH_SCHEMA,
        "created": utc_now(),
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": {name: dict(payload) for name, payload in results.items()},
    }


def write_point(out_dir: Union[str, Path], point: Mapping) -> Path:
    """Write a trajectory point as ``BENCH_<stamp>.json`` under ``out_dir``."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{stamp}.json"
    path.write_text(
        json.dumps(point, indent=2, sort_keys=True, default=json_default) + "\n",
        encoding="utf-8",
    )
    return path


def load_point(path: Union[str, Path]) -> dict:
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# The gate.
# ----------------------------------------------------------------------
COST_KEYS = ("Q", "Qr", "Qw", "T", "peak_mem")


def compare(
    current: Mapping, baseline: Mapping, *, threshold: float
) -> Tuple[list[str], list[str]]:
    """``(regressions, warnings)`` of ``current`` vs ``baseline`` points.

    A *regression* (gate-failing): a baseline case missing from the
    current run, slower than ``baseline_wall * threshold``, or with any
    cost counter (:data:`COST_KEYS`) differing from the baseline's — the
    simulator is deterministic, so drift means the algorithm changed. A
    *warning* (reported, not failing): cases with no baseline yet.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    regressions: list[str] = []
    warnings: list[str] = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for name, base in base_benches.items():
        cur = cur_benches.get(name)
        if cur is None:
            regressions.append(f"{name}: present in baseline but not run")
            continue
        ratio = cur["wall_s"] / max(base["wall_s"], 1e-9)
        if ratio > threshold:
            regressions.append(
                f"{name}: {cur['wall_s']:.3f}s is {ratio:.2f}x the baseline "
                f"{base['wall_s']:.3f}s (threshold {threshold:g}x)"
            )
        for key in COST_KEYS:
            if key in base and key in cur and cur[key] != base[key]:
                regressions.append(
                    f"{name}: {key} drifted {base[key]:g} -> {cur[key]:g} "
                    "(deterministic counter; --write-baseline if intended)"
                )
    for name in cur_benches:
        if name not in base_benches:
            warnings.append(f"{name}: no baseline yet (add with --write-baseline)")
    return regressions, warnings


# ----------------------------------------------------------------------
# Entry point (shared by `repro-aem bench` and scripts/bench_trajectory.py).
# ----------------------------------------------------------------------
def add_arguments(ap: argparse.ArgumentParser) -> None:
    """The bench flags, shared by the script and the ``repro-aem bench``
    subcommand."""
    ap.add_argument(
        "--out-dir", default=".", help="where BENCH_<stamp>.json is written"
    )
    ap.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help=f"baseline trajectory point (default {BASELINE_PATH})",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=f"slowdown gate: fail when wall > baseline * threshold "
        f"(default ${THRESHOLD_ENV} or {DEFAULT_THRESHOLD})",
    )
    ap.add_argument(
        "--repeats", type=int, default=2, help="wall time is min over this many runs"
    )
    ap.add_argument(
        "--no-gate",
        action="store_true",
        help="emit the trajectory point but skip the baseline comparison",
    )
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="overwrite the baseline with this run's results (review the diff!)",
    )
    ap.add_argument(
        "--telemetry-dir",
        default=None,
        help="also append a run-manifest record under this directory",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bench_trajectory",
        description=(
            "Run the benchmark suite, emit a BENCH_<stamp>.json trajectory "
            "point, and gate wall times against the committed baseline."
        ),
    )
    add_arguments(ap)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Execute a bench invocation from parsed arguments."""
    threshold = args.threshold if args.threshold is not None else default_threshold()

    print(f"running benchmark suite (repeats={args.repeats}):")
    t0 = time.perf_counter()
    results = run_suite(repeats=args.repeats, log=print)
    wall = time.perf_counter() - t0
    point = trajectory_point(results)
    path = write_point(args.out_dir, point)
    print(f"trajectory point: {path}")

    if args.write_baseline:
        base_path = Path(args.baseline)
        base_path.parent.mkdir(parents=True, exist_ok=True)
        base_path.write_text(
            json.dumps(point, indent=2, sort_keys=True, default=json_default) + "\n",
            encoding="utf-8",
        )
        print(f"baseline rewritten: {base_path}")

    rc = 0
    gate: dict = {"checked": False}
    if not args.no_gate and not args.write_baseline:
        base_path = Path(args.baseline)
        if not base_path.is_file():
            print(
                f"no baseline at {base_path}; run with --write-baseline to create one",
                file=sys.stderr,
            )
        else:
            regressions, warnings = compare(
                point, load_point(base_path), threshold=threshold
            )
            gate = {
                "checked": True,
                "threshold": threshold,
                "regressions": regressions,
                "warnings": warnings,
            }
            for w in warnings:
                print(f"  [warn] {w}")
            if regressions:
                print(f"bench gate FAILED (threshold {threshold:g}x):", file=sys.stderr)
                for r in regressions:
                    print(f"  [FAIL] {r}", file=sys.stderr)
                rc = 1
            else:
                print(f"bench gate passed (threshold {threshold:g}x)")

    if args.telemetry_dir:
        from .manifest import append_record, run_record

        append_record(
            args.telemetry_dir,
            run_record(
                "bench",
                config={"repeats": args.repeats, "out": str(path)},
                wall_s=wall,
                results=[{"name": k, **v} for k, v in results.items()],
                extra={"gate": gate},
            ),
        )
    return rc
