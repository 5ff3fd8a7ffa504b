"""The program process of the ``sweep`` and ``exp`` workloads.

Started by ``run.py`` as its own interpreter so that set-up and peak
memory belong to the program alone. The protocol is line by line on
stdin/stdout: the worker prints ``READY <setup_s> <ref_s>`` once the
first timed operation could start (``ref_s`` is a host-speed sample
taken just before set-up, see :func:`common.ref_sample`), then reads
``go`` (run, write the result file, exit) or ``exit`` (a set-up-only
boot). With ``--pauses N`` it stops up to N times, evenly through the
measurement: it prints ``PAUSE`` and waits for the next ``go``, so
``run.py`` can time another set-up meanwhile. ``setup_s`` is timed in
here: the program imports the workload needs plus its engine
construction, and nothing of the interpreter's start or the benchmark's
own inputs.

Each pass runs the workload's fixed set of operations once. An untimed
warm-up pass comes first (lazy imports, first-use caches); timed passes
then repeat until the time budget, warm-up included, is spent. In an
untraced run a reference chunk runs after every operation, so each pass
comes with the host's speed while it ran; the chunks' time is left out
of the pass. With ``--trace 1`` untraced passes and passes under
:mod:`tracing` alternate, so the overhead of tracing is measured in the
same process and under the same host conditions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import dump_json, own_peak_rss_mb, ref_chunk, ref_sample, use_src

use_src()

import inputs  # noqa: E402

COST_FIELDS = ("Q", "Qr", "Qw", "T", "peak_mem")


def ledger_tap():
    """An observer that remembers each machine it is attached to.

    It handles no events. It lets the exp workload reconcile every
    profiler against its own machine's ledger. (A ``search_query`` record
    prices the query phase only, so the record is not that ledger.)
    """
    from repro.observe.base import MachineObserver

    class LedgerTap(MachineObserver):
        def __init__(self) -> None:
            self.cores: list = []

        def on_attach(self, core) -> None:
            self.cores.append(core)

    return LedgerTap()


class Workload:
    """One pass = the workload's fixed operations; records feed the checks."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.pinned: dict | None = None
        self.engine = None
        #: Reference-chunk times, one after each operation; None: off.
        self.ref_s: list[float] | None = None
        #: Per timed pass, the mean of the reference chunks run inside it.
        self.pass_ref_s: list[float] = []

    def after_op(self) -> None:
        if self.ref_s is not None:
            self.ref_s.append(ref_chunk())

    def engine_stats(self) -> dict:
        return self.engine.stats.as_dict()

    def check_record(self, index: int, query: dict, record: dict) -> bool:
        problems = []
        if record["Q"] != record["Qr"] + query["omega"] * record["Qw"]:
            problems.append("Q != Qr + omega*Qw")
        if query["workload"] == "search_query" and record["Qw"] != 0:
            problems.append("search queries wrote")
        if record["peak_mem"] > max(query["B"], 4 * query["M"]):
            problems.append("peak_mem over the machine's capacity")
        if index in self.first and self.first[index] != record:
            problems.append("record differs from the first pass")
        self.first.setdefault(index, record)
        expect = self.pinned.get(index) if self.pinned else None
        if expect is not None and expect != {k: record[k] for k in COST_FIELDS}:
            problems.append(f"pinned {expect} != measured")
        for p in problems:
            self.problems.append(f"{query['workload']}[{index}]: {p}")
        return not problems


class SweepWorkload(Workload):
    """``sweep``: ``api.sweep`` on a serial, cache-less engine.

    A pass runs the write-bearing build queries, then the write-free
    search queries; ``pinned`` holds a table per part and seed.
    """

    def __init__(self, seed: int, pinned: dict) -> None:
        super().__init__()
        self.queries = inputs.sweep_queries(seed)
        tables = [pinned.get(part, {}).get(str(seed)) for part in inputs.SWEEP_PARTS]
        if None not in tables:
            self.pinned = dict(enumerate(r for table in tables for r in table))

    def set_up(self) -> None:
        import repro.api  # noqa: F401  (imported here so set-up times it)
        from repro.engine import SweepEngine

        self.engine = SweepEngine(jobs=1, cache=None)

    def run_pass(self) -> None:
        from repro import api

        for i, query in enumerate(self.queries):
            self.attempted += 1
            try:
                (record,) = api.sweep([query], engine=self.engine)
            except Exception as exc:  # a failed operation, counted and reported
                self.failed += 1
                self.problems.append(f"{query['workload']}[{i}]: {exc!r}")
                continue
            finally:
                self.after_op()
            if not self.check_record(i, query, dict(record)):
                self.failed += 1


class ExpWorkload(Workload):
    """``exp``: experiments with the profiling and telemetry observers."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.orders = inputs.exp_orders(seed)

    def set_up(self) -> None:
        import repro.experiments  # noqa: F401  (imported here so set-up times it)
        from repro.engine import ExperimentConfig
        from repro.telemetry import MetricsObserver

        self.metrics = MetricsObserver()
        self.tap = ledger_tap()
        self.config = ExperimentConfig(
            budget="quick", jobs=1, cache=False, profile=True,
            observers=(self.metrics, self.tap),
        )
        self.engine = self.config.make_engine()

    def run_pass(self) -> None:
        from repro.engine import use_engine
        from repro.experiments import run_experiment

        for eid in next(self.orders):
            self.attempted += 1
            try:
                # use_engine closes the engine on exit; a serial engine
                # holds no pool, so it stays usable and keeps counting.
                with use_engine(self.engine):
                    result = run_experiment(eid, self.config)
                errors = self.conservation()
                self.metrics.collect()  # the telemetry readout users take
            except Exception as exc:
                self.failed += 1
                self.problems.append(f"{eid}: {exc!r}")
                continue
            finally:
                self.after_op()
            bad = [name for name, ok in result.checks.items() if not ok]
            for name in bad:
                self.problems.append(f"{eid}: check failed: {name}")
            for err in errors:
                self.problems.append(f"{eid}: conservation: {err}")
            if bad or errors:
                self.failed += 1

    def conservation(self) -> list[str]:
        """Every profiler reconciled against its own machine's ledger."""
        from repro.observe.cost import CostObserver

        by_profiler = {}
        for core in self.tap.cores:
            for obs in core.observers:
                by_profiler[id(obs)] = core
        errors = []
        for entry in self.engine.profiles:
            core = by_profiler.get(id(entry.profiler))
            if core is None:
                errors.append(f"{entry.label}: no machine found for its profiler")
                continue
            (ledger,) = core.find(CostObserver)
            snap = ledger.snapshot()
            errors.extend(
                f"{entry.label}: {e}"
                for e in entry.profiler.conservation_errors(
                    {"Qr": snap.reads, "Qw": snap.writes, "Q": snap.Q,
                     "T": snap.touches, "io_count": core.io_count}
                )
            )
        self.engine.profiles.clear()
        self.tap.cores.clear()
        return errors


def run_passes(work: Workload, seconds: float, pauses: int = 0) -> list[float]:
    """Passes until about ``seconds`` of them are spent (at least one).

    A pass's time leaves out the reference chunks run inside it. With
    ``pauses``, stop that many times, evenly through the passes' time
    and at most once after a pass: print ``PAUSE`` and wait for ``go``.
    """
    passes: list[float] = []
    marks = [seconds * (i + 1) / (pauses + 1) for i in range(pauses)]
    while True:
        done = len(work.ref_s) if work.ref_s is not None else 0
        start = time.perf_counter()
        work.run_pass()
        elapsed = time.perf_counter() - start
        if work.ref_s is not None:
            refs = work.ref_s[done:]
            elapsed -= sum(refs)
            work.pass_ref_s.append(sum(refs) / len(refs))
        passes.append(elapsed)
        spent = sum(passes)
        if spent + passes[-1] / 2 > seconds or len(passes) >= 1000:
            return passes
        if marks and spent >= marks[0]:
            marks.pop(0)
            print("PAUSE", flush=True)
            if sys.stdin.readline().strip() != "go":
                raise RuntimeError("expected go after PAUSE")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "exp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None, help="required with --trace 1")
    ap.add_argument("--pauses", type=int, default=0, help="untraced runs only")
    args = ap.parse_args()
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    if args.workload == "exp":
        work: Workload = ExpWorkload(args.seed)
    else:
        work = SweepWorkload(args.seed, pinned)
    ref = ref_sample()
    start = time.perf_counter()
    work.set_up()
    print(f"READY {time.perf_counter() - start!r} {ref!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    cpu0, wall0 = time.process_time(), time.perf_counter()
    out: dict = {}
    if not args.trace:
        work.run_pass()  # warm-up
        warm = time.perf_counter() - wall0
        work.ref_s = []
        passes = run_passes(work, args.seconds - warm, args.pauses)
        out["pass_ref_s"] = work.pass_ref_s
    else:
        import tracing

        deadline = time.perf_counter() + args.seconds
        work.run_pass()  # warm-up, so both sides compare steady passes
        # Untraced and traced passes alternate, so a change in host speed
        # during the run reaches both sides of trace.overhead_frac alike.
        tracer = tracing.Tracer()
        plain, passes, executed = [], [], 0
        while not passes or time.perf_counter() + plain[-1] < deadline:
            plain += run_passes(work, 0)
            uninstall = tracing.install(tracer)
            before = work.engine_stats()["executed"]
            try:
                passes += run_passes(work, 0)
            finally:
                uninstall()
            executed += work.engine_stats()["executed"] - before
        layers = tracing.layer_metrics(tracer, per=len(passes))
        layers["engine.executed"] = executed / len(passes)
        layers["engine.cache_hit_frac"] = 0.0  # these engines run cache-less
        layers["machine.scan_ns_per_io.counting"] = tracing.scan_probe(counting=True)
        layers["machine.scan_ns_per_io.full"] = tracing.scan_probe(counting=False)
        out["plain_pass_s"] = plain
        out["layers"] = layers
        out["traced_mean_pass_s"] = sum(passes) / len(passes)
        try:
            out["trace_events"] = tracing.write_trace(
                tracer, args.trace_out, pid=1, label=f"perfbench {args.workload}"
            )
        except ValueError as exc:  # validate_trace rejected it
            work.problems.append(f"invalid trace: {exc}")
            out["trace_events"] = 0
    out.update(
        passes_s=passes,
        attempted=work.attempted,
        failed=work.failed,
        problems=work.problems[:50],
        peak_rss_mb=own_peak_rss_mb(),
        cpu_frac=(time.process_time() - cpu0) / (time.perf_counter() - wall0),
    )
    dump_json(Path(args.out), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
