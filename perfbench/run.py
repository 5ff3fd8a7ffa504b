"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result. See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from pathlib import Path

from common import (
    HERE,
    REF_NOMINAL_S,
    ROOT,
    at_ref_speed,
    beyond,
    child_env,
    make_run_dir,
    median,
    pct,
    program_present,
    remove_run_dir,
    use_src,
)

WORKLOADS = ("serve", "sweep", "exp")
#: Set-up-only boots made while the measurement pauses (it pauses this
#: many times, evenly), plus one before and one after it. setup_s is their
#: median together with the measured set-up, so, like the timed work, it
#: samples the host all through the run.
SETUP_PAUSES = 6
WORKER_GRACE_S = 150.0
#: Where a traced run leaves its Chrome trace (git-ignored).
TRACE_DIR = ROOT / ".perfbench-out"


class Result:
    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        #: Figures printed beside the metrics but kept out of the result
        #: line, so that BENCHMARK.json bounds no such figure.
        self.asides: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# sweep / exp: a worker process per set-up.
# ----------------------------------------------------------------------
def _boot_worker(
    args, run_dir: Path, out: Path, pauses: int = 0
) -> tuple[subprocess.Popen, tuple[float, float]]:
    """Start a worker; returns it and the (set-up, reference-chunk) times
    it reports."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--pauses", str(pauses),
    ]
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"trace-{args.workload}.json")]
    proc = subprocess.Popen(
        cmd, cwd=run_dir, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )
    word, *times = proc.stdout.readline().split()
    if word != "READY" or len(times) != 2:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (said {word!r})")
    setup, ref = map(float, times)
    return proc, (setup, ref)


def _set_up_only(args, run_dir: Path, out: Path) -> tuple[float, float]:
    proc, setup = _boot_worker(args, run_dir, out)
    try:
        proc.communicate("exit\n", timeout=WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up-only worker did not exit")
    if proc.returncode != 0:
        raise RuntimeError(f"set-up-only worker exited with {proc.returncode}")
    return setup


def _measure(proc: subprocess.Popen, timeout: float, on_pause) -> None:
    """Let the worker measure; call ``on_pause`` in each pause it makes."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write("go\n")
        proc.stdin.flush()
        for line in proc.stdout:
            if line.strip() == "PAUSE":
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdin.close()
    if code != 0:
        raise RuntimeError(f"worker exited with {code} (killed after {timeout:g} s if -9)")


def run_worker(args, run_dir: Path, res: Result) -> None:
    out = run_dir / "worker.json"
    setups = [_set_up_only(args, run_dir, out)]
    proc, setup = _boot_worker(args, run_dir, out, 0 if args.trace else SETUP_PAUSES)
    setups.append(setup)
    _measure(proc, args.seconds + WORKER_GRACE_S,
             lambda: setups.append(_set_up_only(args, run_dir, out)))
    setups.append(_set_up_only(args, run_dir, out))
    data = json.loads(out.read_text())
    res.attempted, res.failed = data["attempted"], data["failed"]
    res.problems += data["problems"]
    # A pass is the user's operation here: one run of the fixed sweep or
    # experiment set, so the percentiles are taken over pass latencies.
    passes = data["passes_s"]
    res.notes.append(
        f"{len(passes)} timed passes after a warm-up pass, "
        f"{res.attempted} operations in all"
    )
    if not args.trace:
        refs = data["pass_ref_s"]
        as_measured = {
            "setup_s": median(s for s, _ in setups),
            "p50_ms": median(passes) * 1e3,
            "p99_ms": pct(passes, 0.99) * 1e3,
            "wall_s": sum(passes) / len(passes),
        }
        res.notes.append(
            f"host speed: reference chunk {sum(refs) / len(refs) * 1e3:.2f} ms on "
            f"average, nominal {REF_NOMINAL_S * 1e3:g} ms; times are reported at the "
            f"nominal speed; as measured: "
            + ", ".join(f"{k} {v:.6g}" for k, v in as_measured.items())
        )
        # Each pass at the host speed measured inside it.
        scaled = [at_ref_speed(p, r) for p, r in zip(passes, refs)]
        res.metric("setup_s", median(at_ref_speed(s, r) for s, r in setups), "s")
        res.metric("p50_ms", median(scaled) * 1e3, "ms")
        res.asides.append(
            f"p99_ms = {pct(scaled, 0.99) * 1e3:.6g} ms "
            f"(the slowest of {len(scaled)} timed passes)"
        )
        res.metric("wall_s", sum(scaled) / len(scaled), "s")
        res.metric("peak_rss_mb", data["peak_rss_mb"], "MB")
        return
    layers = data["layers"]
    plain = median(data["plain_pass_s"])
    overhead = median(data["passes_s"]) / plain - 1.0
    layers["trace.overhead_frac"] = overhead
    layers["host.cpu_frac"] = data["cpu_frac"]
    measured = sum(v for k, v in layers.items() if k.startswith("measure."))
    # Spans nest inside passes, so per-pass measure time cannot exceed
    # the traced pass, i.e. the untraced wall plus the tracing overhead.
    if measured > data["traced_mean_pass_s"] * 1.0001:
        res.problems.append(
            f"sum of measure.*_s {measured:.4f} exceeds the traced pass "
            f"{data['traced_mean_pass_s']:.4f}"
        )
    res.notes.append(
        f"untraced pass {plain:.3f}s, traced pass {median(data['passes_s']):.3f}s, "
        f"trace {data['trace_events']} events in {TRACE_DIR.name}/"
    )
    _layer_metrics(res, layers)


# ----------------------------------------------------------------------
# serve: repro-aem serve in a subprocess, the open-loop client in here.
# ----------------------------------------------------------------------
def run_serve(args, run_dir: Path, res: Result) -> None:
    import inputs
    import serve_load

    setups = []
    lifecycles = []

    def set_up_only(tag: str) -> None:
        server = serve_load.boot(run_dir / f"cache-{tag}")
        setups.append(server.setup_s)
        lifecycles.append(serve_load.drain(server))

    half = args.seconds / 2 if args.trace else args.seconds
    schedule = inputs.serve_schedule(args.seed, half)
    set_up_only("before")
    server = serve_load.boot(run_dir / "cache")
    setups.append(server.setup_s)
    samples, busy_s = [], 0.0
    parts = 1 if args.trace else SETUP_PAUSES + 1
    try:
        # The load pauses like a worker's measurement does; the measured
        # server idles while another boots. Each stretch is open-loop.
        for i, stretch in enumerate(_stretches(schedule, parts)):
            if i:
                set_up_only(f"pause{i}")
            cpu0 = serve_load.proc_cpu_s(server.proc.pid)
            samples += serve_load.run_load(server.port, stretch)
            busy_s += serve_load.proc_cpu_s(server.proc.pid) - cpu0
    finally:
        info = serve_load.drain(server)
    lifecycles.append(info)
    set_up_only("after")
    traced = None
    if args.trace:
        spans_out = run_dir / "spans.json"
        tserver = serve_load.boot(run_dir / "cache-traced", traced_out=spans_out)
        try:
            tsamples = serve_load.run_load(tserver.port, schedule)
        finally:
            tinfo = serve_load.drain(tserver)
        lifecycles.append(tinfo)
        traced = (tsamples, tinfo, json.loads(spans_out.read_text()))

    all_samples = samples + (traced[0] if traced else [])
    res.attempted = len(all_samples) + len(lifecycles)
    failed = {id(s) for s in all_samples if serve_load.sample_failed(s)}
    for life in lifecycles:
        if life["exit_code"] != 0 or not life["drained"]:
            res.failed += 1
            res.problems.append(
                f"server exit {life['exit_code']}, drained={life['drained']}: "
                f"{life['stderr'][-300:]!r}"
            )
    failed |= _recheck(all_samples, failed, res)
    res.failed += len(failed)
    for s in all_samples:
        if id(s) in failed and s.error:
            res.problems.append(f"request failed: {s.error}")
            break

    lag_ms = max((s.fired - s.due) * 1e3 for s in all_samples)
    if lag_ms > serve_load.MAX_GEN_LAG_MS:
        res.problems.append(
            f"INVALID run: the generator fired {lag_ms:.1f} ms late "
            f"(bound {serve_load.MAX_GEN_LAG_MS:g} ms)"
        )
    ok = [s.latency_ms for s in samples if id(s) not in failed]
    p99 = pct(ok, 0.99)
    above = beyond(ok, p99)
    if above < 10 and not args.trace:  # a traced run reports no p99_ms
        res.problems.append(f"INVALID run: only {above} samples above p99")
    res.notes.append(
        f"{len(samples)} requests at {inputs.SERVE_RATE:g}/s offered, "
        f"{len(ok)} ok; p99 has {above} samples above it; "
        f"generator lag max {lag_ms:.2f} ms; server busy {busy_s:.2f} CPU s"
    )
    if not args.trace:
        # As measured: a reference chunk tracks the host's speed only when
        # it runs in the measured process, and that is the server here.
        res.metric("setup_s", median(setups), "s")
        res.metric("p50_ms", pct(ok, 0.5), "ms")
        # The tail is queueing behind bursts of arrivals, which grows
        # faster than the service time: it amplifies any change in host
        # speed, so no bound on it would hold.
        res.asides.append(
            f"p99_ms = {p99:.6g} ms ({len(ok)} samples, {above} above it)"
        )
        # The seed's schedule fixes the load window. The server's CPU
        # seconds in it are the time the program is busy: under the GIL
        # one thread at a time runs.
        res.metric("wall_s", busy_s, "s")
        res.metric("peak_rss_mb", info["peak_rss_mb"], "MB")
        return

    tsamples, tinfo, spans = traced
    if spans["trace_error"]:
        res.problems.append(f"invalid trace: {spans['trace_error']}")
    tok = [s.latency_ms for s in tsamples if id(s) not in failed]
    layers = spans["layers"]
    layers["trace.overhead_frac"] = pct(tok, 0.5) / pct(ok, 0.5) - 1.0
    layers["host.cpu_frac"] = tinfo["cpu_s"] / tinfo["wall_s"]
    layers.update(_server_stats(tinfo))
    layers["client.gen_lag_ms.max"] = max((s.fired - s.due) * 1e3 for s in tsamples)
    layers["client.queue_ms.p99"] = pct([(s.connected - s.due) * 1e3 for s in tsamples], 0.99)
    layers["client.connect_ms.p50"] = pct(
        [(s.connected - s.acquired) * 1e3 for s in tsamples], 0.5
    )
    use_src()
    import tracing

    layers["machine.scan_ns_per_io.counting"] = tracing.scan_probe(counting=True)
    layers["machine.scan_ns_per_io.full"] = tracing.scan_probe(counting=False)
    # Reconcile with the untraced run: engine dispatch spans lie inside
    # the requests' latency, so their summed time cannot exceed it.
    measured = sum(v for k, v in layers.items() if k.startswith("measure."))
    served_s = sum(s.latency_ms for s in tsamples) / 1e3
    if measured > served_s:
        res.problems.append(
            f"sum of measure.*_s {measured:.3f} exceeds total request time {served_s:.3f}"
        )
    res.notes.append(
        f"traced server: {spans['trace_events']} trace events in {TRACE_DIR.name}/; "
        f"p50 {pct(ok, 0.5):.2f} ms untraced vs {pct(tok, 0.5):.2f} ms traced"
    )
    _layer_metrics(res, layers)


def _stretches(schedule: list, parts: int) -> list[list]:
    """``schedule`` cut into ``parts`` runs of consecutive requests, each
    re-timed to start at 0."""
    size = -(-len(schedule) // parts)
    out = []
    for i in range(0, len(schedule), size):
        part = schedule[i:i + size]
        first = part[0][0]
        out.append([(due - first, body) for due, body in part])
    return out


def _server_stats(info: dict) -> dict:
    stats, metrics = info["stats"], info["metrics"]
    req = stats["requests"]
    sizes = req["batch_size"]
    unique = sizes["sum"]
    timed_out = 0
    for series in metrics.get("serve_requests_total", {}).get("series", []):
        if series.get("labels", {}).get("status") == "504":
            timed_out += series.get("value", 0)
    engine = stats["engine"]
    return {
        "serve.batch_size.mean": unique / sizes["count"] if sizes["count"] else 0.0,
        "serve.dedup_hit_frac": req["dedup_hits"] / (req["dedup_hits"] + unique)
        if unique else 0.0,
        "serve.rejected": float(req["rejected"]),
        "serve.timed_out": float(timed_out),
        "serve.server_latency_ms.p50": float(req["latency_ms"]["p50"]),
        "engine.cache_hit_frac": engine["cache_hits"] / engine["measurements"]
        if engine["measurements"] else 0.0,
        "engine.executed": float(engine["executed"]),
    }


def _recheck(samples: list, failed: set, res: Result) -> set:
    """Re-evaluate every distinct served query in-process; bit-for-bit."""
    import serve_load

    use_src()
    from repro import api

    expected: dict = {}
    bad = set()
    for s in samples:
        if id(s) in failed:
            continue
        for query, served in serve_load.served_records(s):
            key = json.dumps(query, sort_keys=True)
            if key not in expected:
                fields = {k: v for k, v in query.items() if k != "workload"}
                record = api.evaluate(query["workload"], fields)
                expected[key] = json.loads(json.dumps(dict(record), sort_keys=True))
            if served != expected[key]:
                bad.add(id(s))
                if len(res.problems) < 20:
                    res.problems.append(
                        f"served {served} != direct {expected[key]} for {query}"
                    )
    res.notes.append(f"re-evaluated {len(expected)} distinct served queries")
    return bad


# ----------------------------------------------------------------------
def _layer_metrics(res: Result, layers: dict) -> None:
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for spec in units:
        name = spec["name"]
        res.metric(name, layers.get(name, 0.0), spec["unit"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    res = Result()
    run_dir = make_run_dir(args.workload)
    try:
        if args.workload == "serve":
            run_serve(args, run_dir, res)
        else:
            run_worker(args, run_dir, res)
    finally:
        remove_run_dir(run_dir)
    for note in res.notes:
        print(f"# {note}")
    for problem in res.problems:
        print(f"# PROBLEM: {problem}")
    print(f"# fail_frac = {res.failed / max(1, res.attempted):.6f} ratio "
          f"({res.failed} of {res.attempted})")
    for line in res.asides:
        print(f"# {line}")
    for name, m in res.metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res.problems and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
