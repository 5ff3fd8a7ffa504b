"""Command-line interface.

Regenerate any experiment, run individual algorithms with cost readouts,
or print the bound formulas for a parameter point::

    repro-aem exp e1                  # one experiment (quick mode)
    repro-aem exp all --full          # the whole suite, full-size sweeps
    repro-aem exp all --jobs 4        # fan sweeps out over 4 processes
    repro-aem sort --sorter aem_mergesort --n 8000 --m 128 --b 16 --omega 8
    repro-aem permute --permuter adaptive --n 4096 --m 64 --b 8 --omega 4
    repro-aem spmxv --algorithm sort_based --n 1024 --delta 4
    repro-aem bounds --n 65536 --m 256 --b 16 --omega 8

``exp``/``sort``/``permute``/``spmxv`` accept ``--json`` to emit
machine-readable records on stdout instead of rendered tables, and the
algorithm runners accept ``--progress`` for a live I/O/phase readout on
stderr (a :class:`~repro.observe.ProgressObserver` on the machine's event
bus).

``exp`` runs execute on the sweep engine (:mod:`repro.engine`):
``--jobs N`` fans measurements out over N worker processes with the record
stream identical to a serial run, and measurements are memoized under
``.repro-cache/`` (``--cache-dir`` to relocate, ``--no-cache`` to disable)
so a repeated or killed-and-restarted run replays completed measurements
instantly. Engine statistics (executed / cache hits / misses) are printed
to stderr after the run.

``--telemetry-dir DIR`` (on ``exp`` and the algorithm runners) turns a
run into durable artifacts (:mod:`repro.telemetry`): one JSONL record
appended to ``DIR/manifest.jsonl`` (config, costs, wall time, engine
stats, package version) and a ``DIR/trace.json`` loadable in
``ui.perfetto.dev`` — machine phases as spans and I/O counter tracks for
the algorithm runners, engine worker-lane task spans for ``exp``.
``repro-aem bench`` runs the benchmark trajectory suite and gates wall
times against the committed baseline (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .core.bounds import (
    permute_lower_shape,
    permute_naive_shape,
    sort_upper_shape,
)
from .core.counting import (
    counting_lower_bound,
    counting_lower_bound_general,
    simplified_cost_bound,
)
from .core.params import AEMParams
from .core.regimes import boundary_B, classify, min_branch
from .engine import ExperimentConfig, default_cache_dir, use_engine
from .experiments import REGISTRY, run_all, run_experiment
from .permute.base import PERMUTERS
from .sorting.base import SORTERS

from . import api


def _params(args) -> AEMParams:
    return AEMParams(M=args.m, B=args.b, omega=args.omega)


def _add_machine_args(sub) -> None:
    sub.add_argument("--m", type=int, default=128, help="internal memory M (atoms)")
    sub.add_argument("--b", type=int, default=16, help="block size B (atoms)")
    sub.add_argument("--omega", type=float, default=8, help="write/read cost ratio")
    sub.add_argument("--seed", type=int, default=0)


def _add_run_args(sub) -> None:
    """Flags shared by the algorithm runners (sort/permute/spmxv)."""
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON record on stdout instead of the rendered readout",
    )
    sub.add_argument(
        "--progress",
        action="store_true",
        help="live I/O/phase readout on stderr while the run executes",
    )
    sub.add_argument(
        "--counting",
        action="store_true",
        help="payload-free counting machine: identical costs, much faster "
        "simulation, no output verification",
    )
    _add_telemetry_arg(sub)


def _add_telemetry_arg(sub) -> None:
    sub.add_argument(
        "--telemetry-dir",
        default=None,
        help="append a run-manifest JSONL record and write a Perfetto "
        "trace.json under this directory",
    )


def _json_default(obj):
    """Coerce numpy scalars/arrays so experiment records serialize."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _emit_json(payload) -> None:
    print(json.dumps(payload, default=_json_default, sort_keys=True))


def _run_observers(args) -> list:
    """Observers requested on the command line (``--progress``)."""
    if not getattr(args, "progress", False):
        return []
    from .observe import ProgressObserver

    return [ProgressObserver(every=200, label=args.command)]


def _close_observers(observers) -> None:
    for obs in observers:
        close = getattr(obs, "close", None)
        if close is not None:
            close()


def _telemetry_observers(args) -> tuple[list, Optional[tuple]]:
    """``(observers, (metrics, perfetto))`` for a --telemetry-dir run."""
    if not getattr(args, "telemetry_dir", None):
        return [], None
    from .telemetry import MetricsObserver, PerfettoObserver

    metrics = MetricsObserver()
    perfetto = PerfettoObserver(label=args.command)
    return [metrics, perfetto], (metrics, perfetto)


def _finish_run_telemetry(args, tel, *, config: dict, cost, wall_s: float) -> None:
    """Write the trace.json and append the manifest record for one run."""
    if tel is None:
        return
    from .telemetry import append_record, run_record

    metrics, perfetto = tel
    perfetto.write(Path(args.telemetry_dir) / "trace.json")
    append_record(
        args.telemetry_dir,
        run_record(
            args.command,
            config=config,
            cost={**cost},
            wall_s=wall_s,
            metrics=metrics.summary(),
        ),
    )


def _engine_summary(engine) -> dict:
    """The engine's run statistics as one structured dict."""
    summary = {
        "jobs": engine.jobs,
        "cache_enabled": engine.cache is not None,
        **engine.stats.as_dict(),
    }
    if engine.telemetry is not None:
        summary["busy_s"] = engine.telemetry.busy_seconds()
        summary["utilization"] = engine.telemetry.utilization(engine.jobs)
    return summary


def cmd_exp(args) -> int:
    config = ExperimentConfig(
        budget="full" if args.full else "quick",
        jobs=args.jobs,
        cache=args.cache,
        cache_dir=args.cache_dir,
        counting=args.counting,
    )
    engine = config.make_engine()
    if args.telemetry_dir:
        from .telemetry import EngineTelemetry

        engine.telemetry = EngineTelemetry()
    t0 = time.perf_counter()
    with use_engine(engine):
        if args.id.lower() == "all":
            results = run_all(config)
        else:
            results = [run_experiment(args.id, config)]
    wall_s = time.perf_counter() - t0
    failed = sum(0 if r.passed else 1 for r in results)
    if args.json:
        _emit_json(
            {
                "results": [
                    {
                        "eid": r.eid,
                        "title": r.title,
                        "claim": r.claim,
                        "records": r.records,
                        "checks": r.checks,
                        "passed": r.passed,
                        "notes": r.notes,
                    }
                    for r in results
                ],
                "engine": _engine_summary(engine),
            }
        )
    else:
        for r in results:
            print(r.render())
            print()
    engine.report()
    if args.telemetry_dir:
        from .telemetry import append_record, run_record

        engine.telemetry.to_trace().write(Path(args.telemetry_dir) / "trace.json")
        append_record(
            args.telemetry_dir,
            run_record(
                "exp",
                config={
                    "id": args.id,
                    "budget": config.budget,
                    "jobs": args.jobs,
                    "cache": args.cache,
                    "counting": args.counting,
                },
                wall_s=wall_s,
                engine=_engine_summary(engine),
                results=[
                    {"eid": r.eid, "passed": r.passed, "checks": r.checks}
                    for r in results
                ],
            ),
        )
    if failed:
        print(f"{failed} experiment(s) had failing checks", file=sys.stderr)
    return 1 if failed else 0


def cmd_sort(args) -> int:
    p = _params(args)
    observers = _run_observers(args)
    tel_observers, tel = _telemetry_observers(args)
    t0 = time.perf_counter()
    rec = api.evaluate(
        "sort",
        sorter=args.sorter,
        n=args.n,
        M=p.M,
        B=p.B,
        omega=p.omega,
        distribution=args.distribution,
        seed=args.seed,
        counting=args.counting,
        observers=observers + tel_observers,
    )
    _close_observers(observers)
    _finish_run_telemetry(
        args,
        tel,
        config={
            "sorter": args.sorter,
            "n": args.n,
            "distribution": args.distribution,
            "seed": args.seed,
            "counting": args.counting,
            "params": {"M": p.M, "B": p.B, "omega": p.omega},
        },
        cost=rec,
        wall_s=time.perf_counter() - t0,
    )
    if args.json:
        _emit_json(
            {
                "command": "sort",
                "sorter": args.sorter,
                "n": args.n,
                "distribution": args.distribution,
                "seed": args.seed,
                "counting": args.counting,
                "params": {"M": p.M, "B": p.B, "omega": p.omega},
                "shape_upper": sort_upper_shape(args.n, p),
                **rec,
            }
        )
        return 0
    print(f"{args.sorter} on N={args.n} {args.distribution} keys, {p.describe()}")
    print(
        f"  Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}  "
        f"T={rec['T']}  peak-mem={rec['peak_mem']}"
    )
    print(f"  shape omega*n*log_(omega m) n = {sort_upper_shape(args.n, p):g}")
    return 0


def cmd_permute(args) -> int:
    p = _params(args)
    observers = _run_observers(args)
    tel_observers, tel = _telemetry_observers(args)
    t0 = time.perf_counter()
    rec = api.evaluate(
        "permute",
        permuter=args.permuter,
        n=args.n,
        M=p.M,
        B=p.B,
        omega=p.omega,
        family=args.family,
        seed=args.seed,
        counting=args.counting,
        observers=observers + tel_observers,
    )
    _close_observers(observers)
    _finish_run_telemetry(
        args,
        tel,
        config={
            "permuter": args.permuter,
            "n": args.n,
            "family": args.family,
            "seed": args.seed,
            "counting": args.counting,
            "params": {"M": p.M, "B": p.B, "omega": p.omega},
        },
        cost=rec,
        wall_s=time.perf_counter() - t0,
    )
    if args.json:
        _emit_json(
            {
                "command": "permute",
                "permuter": args.permuter,
                "n": args.n,
                "family": args.family,
                "seed": args.seed,
                "counting": args.counting,
                "params": {"M": p.M, "B": p.B, "omega": p.omega},
                "shape_naive": permute_naive_shape(args.n, p),
                "shape_sort": sort_upper_shape(args.n, p),
                "lower_bound_general": counting_lower_bound_general(args.n, p),
                **rec,
            }
        )
        return 0
    print(
        f"{args.permuter} permuting N={args.n} ({args.family}), {p.describe()}"
    )
    print(f"  Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}")
    print(
        f"  upper shapes: naive={permute_naive_shape(args.n, p):g}  "
        f"sort={sort_upper_shape(args.n, p):g}"
    )
    print(f"  lower bound (general) = {counting_lower_bound_general(args.n, p):g}")
    return 0


def cmd_spmxv(args) -> int:
    p = _params(args)
    observers = _run_observers(args)
    tel_observers, tel = _telemetry_observers(args)
    t0 = time.perf_counter()
    rec = api.evaluate(
        "spmxv",
        algorithm=args.algorithm,
        n=args.n,
        delta=args.delta,
        M=p.M,
        B=p.B,
        omega=p.omega,
        family=args.family,
        seed=args.seed,
        counting=args.counting,
        observers=observers + tel_observers,
    )
    _close_observers(observers)
    _finish_run_telemetry(
        args,
        tel,
        config={
            "algorithm": args.algorithm,
            "n": args.n,
            "delta": args.delta,
            "family": args.family,
            "seed": args.seed,
            "counting": args.counting,
            "params": {"M": p.M, "B": p.B, "omega": p.omega},
        },
        cost=rec,
        wall_s=time.perf_counter() - t0,
    )
    if args.json:
        _emit_json(
            {
                "command": "spmxv",
                "algorithm": args.algorithm,
                "n": args.n,
                "delta": args.delta,
                "family": args.family,
                "seed": args.seed,
                "counting": args.counting,
                "params": {"M": p.M, "B": p.B, "omega": p.omega},
                **rec,
            }
        )
        return 0
    print(
        f"spmxv {args.algorithm}: N={args.n}, delta={args.delta} "
        f"({args.family}), {p.describe()}"
    )
    print(f"  Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}")
    return 0


def _corpus_query_fields(args) -> dict:
    """The optional corpus-shape fields, omitted when left at None so the
    registry's derived defaults (and cache identity) apply."""
    out = {"zipf_a": args.zipf_a, "sorter": args.sorter}
    for name in ("n_docs", "n_terms", "fanin"):
        value = getattr(args, name)
        if value is not None:
            out[name] = value
    return out


def cmd_index(args) -> int:
    p = _params(args)
    observers = _run_observers(args)
    tel_observers, tel = _telemetry_observers(args)
    extra = _corpus_query_fields(args)
    t0 = time.perf_counter()
    rec = api.evaluate(
        "index_build",
        n=args.n,
        M=p.M,
        B=p.B,
        omega=p.omega,
        seed=args.seed,
        counting=args.counting,
        observers=observers + tel_observers,
        **extra,
    )
    _close_observers(observers)
    config = {
        "n": args.n,
        **extra,
        "seed": args.seed,
        "counting": args.counting,
        "params": {"M": p.M, "B": p.B, "omega": p.omega},
    }
    _finish_run_telemetry(
        args, tel, config=config, cost=rec, wall_s=time.perf_counter() - t0
    )
    if args.json:
        _emit_json({"command": "index", **config, **rec})
        return 0
    print(f"index build over N={args.n} postings, {p.describe()}")
    print(
        f"  Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}  "
        f"T={rec['T']}  peak-mem={rec['peak_mem']}"
    )
    return 0


def cmd_search(args) -> int:
    p = _params(args)
    observers = _run_observers(args)
    tel_observers, tel = _telemetry_observers(args)
    extra = _corpus_query_fields(args)
    t0 = time.perf_counter()
    rec = api.evaluate(
        "search_query",
        n=args.n,
        n_queries=args.queries,
        k=args.k,
        mode=args.mode,
        terms_per_query=args.terms,
        M=p.M,
        B=p.B,
        omega=p.omega,
        seed=args.seed,
        counting=args.counting,
        observers=observers + tel_observers,
        **extra,
    )
    _close_observers(observers)
    config = {
        "n": args.n,
        "n_queries": args.queries,
        "k": args.k,
        "mode": args.mode,
        "terms_per_query": args.terms,
        **extra,
        "seed": args.seed,
        "counting": args.counting,
        "params": {"M": p.M, "B": p.B, "omega": p.omega},
    }
    _finish_run_telemetry(
        args, tel, config=config, cost=rec, wall_s=time.perf_counter() - t0
    )
    if args.json:
        _emit_json({"command": "search", **config, **rec})
        return 0
    print(
        f"search: {args.queries} {args.mode}-mode top-{args.k} queries over "
        f"an N={args.n} index, {p.describe()}"
    )
    print(
        f"  query phase only: Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}  "
        f"T={rec['T']}"
    )
    return 0


def _profile_query(args) -> dict:
    """The workload query dict a ``profile <workload>`` target prices."""
    p = _params(args)
    base = {
        "n": args.n,
        "M": p.M,
        "B": p.B,
        "omega": p.omega,
        "seed": args.seed,
        "counting": args.counting,
    }
    if args.target == "sort":
        return {**base, "sorter": args.sorter, "distribution": args.distribution}
    if args.target == "permute":
        return {**base, "permuter": args.permuter, "family": args.family}
    if args.target == "spmxv":
        return {**base, "algorithm": args.algorithm, "delta": args.delta,
                "family": args.family}
    return base


def cmd_profile(args) -> int:
    """Attribute I/O cost to nested phase paths; see docs/observability.md.

    The target is either a workload name (one profiled evaluation) or an
    experiment id (every profilable measurement in the run, merged per
    task label). Conservation — attributed totals == the cost ledger —
    is checked in-command and is a hard failure, so CI can assert it by
    exit code alone.
    """
    from .telemetry import CostProfiler, folded, merge_paths, render_table, speedscope

    if args.target in api.workload_names():
        profiler = CostProfiler(root=args.target, track_blocks=True)
        rec = api.evaluate(args.target, _profile_query(args), observers=[profiler])
        paths = profiler.paths()
        root = args.target
        errors = [
            f"{args.target}: {e}" for e in profiler.conservation_errors(rec)
        ]
    elif args.target in REGISTRY:
        config = ExperimentConfig(
            budget="full" if args.full else "quick",
            cache=False,
            counting=args.counting,
            profile=True,
        )
        engine = config.make_engine()
        with use_engine(engine):
            run_experiment(args.target, config)
        if not engine.profiles:
            print(
                f"profile: experiment {args.target!r} ran no profilable "
                "measurements (none accept observers)",
                file=sys.stderr,
            )
            return 1
        errors = []
        for entry in engine.profiles:
            ledger = entry.result
            if isinstance(ledger, dict) or hasattr(ledger, "keys"):
                errors.extend(
                    f"{entry.label}: {e}"
                    for e in entry.profiler.conservation_errors(ledger)
                )
        paths = merge_paths(
            (entry.label, entry.profiler.paths()) for entry in engine.profiles
        )
        root = args.target
    else:
        known = sorted(api.workload_names()) + sorted(REGISTRY)
        print(
            f"profile: unknown target {args.target!r} "
            f"(expected a workload or experiment id from {known})",
            file=sys.stderr,
        )
        return 2

    print(render_table(paths, weight=args.weight, top=args.top, root=root))
    depth = max((len(p) for p in paths), default=0)
    total = sum(stats.weight(args.weight) for stats in paths.values())
    print(f"total {args.weight} = {total:g} over {len(paths)} path(s), max depth {depth}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "profile.folded").write_text(
            folded(paths, weight=args.weight, root=root)
        )
        (out / "profile.speedscope.json").write_text(
            json.dumps(speedscope(paths, weight=args.weight, root=root),
                       sort_keys=True)
        )
        print(f"wrote {out / 'profile.folded'} and {out / 'profile.speedscope.json'}")
    if errors:
        for err in errors:
            print(f"  [FAIL] conservation: {err}", file=sys.stderr)
        print(
            f"profile FAILED conservation: {len(errors)} mismatch(es)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_inspect(args) -> int:
    """Record a permuting program and render its trace."""
    import numpy as np

    from .atoms.atom import Atom
    from .permute.base import PERMUTERS
    from .trace.program import capture
    from .trace.render import render_program
    from .workloads.generators import permutation

    p = _params(args)
    rng = np.random.default_rng(args.seed)
    atoms = [
        Atom(int(k), i) for i, k in enumerate(rng.integers(0, 8 * args.n, args.n))
    ]
    perm = permutation(args.n, args.family, rng)
    program = capture(p, atoms, PERMUTERS[args.permuter], perm, p)
    if args.round_based:
        from .rounds.convert import to_round_based

        program, report = to_round_based(program)
        print(
            f"(converted to round-based: {report.rounds} rounds, "
            f"cost ratio {report.cost_ratio:.2f})\n"
        )
    print(render_program(program, timeline_limit=args.ops))
    return 0


def cmd_check(args) -> int:
    """Run the model sanitizers, the source lint, and/or the analysis."""
    from .sanitize import run_analysis_checks, run_lint_checks, run_trace_checks

    selected = args.traces or args.lint or getattr(args, "analysis", False)
    run_traces = args.traces or args.all or not selected
    run_lint = args.lint or args.all or not selected
    run_analysis = getattr(args, "analysis", False) or args.all or not selected
    fmt = getattr(args, "format", "text")
    # Machine-readable formats own stdout; progress moves to stderr.
    say = print if fmt == "text" else (lambda *a, **kw: print(*a, file=sys.stderr, **kw))

    if getattr(args, "update_baseline", False):
        from .sanitize import analyze_project, load_baseline, write_baseline
        from .sanitize.runner import default_baseline_path, default_lint_root

        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else default_baseline_path(default_lint_root())
        )
        findings = analyze_project(default_lint_root())
        write_baseline(
            baseline_path, findings, previous=load_baseline(baseline_path)
        )
        say(
            f"baseline written: {baseline_path} "
            f"({len(findings)} finding(s) accepted)"
        )
        return 0

    failures = 0
    reportable = []  # lint violations + new analysis findings for --format
    if run_traces:
        say("trace sanitizers (live runs + Lemma 4.1 / Lemma 4.3):")
        violations = run_trace_checks(log=say)
        for v in violations:
            print(f"  [FAIL] {v.render()}", file=sys.stderr)
        failures += len(violations)
    if run_lint:
        say("source lint (rules AEM101-AEM106, AEM108-AEM109):")
        lint_violations = run_lint_checks(log=say)
        for lv in lint_violations:
            print(f"  [FAIL] {lv.render()}", file=sys.stderr)
        failures += len(lint_violations)
        reportable.extend(lint_violations)
    suppressed_count = 0
    if run_analysis:
        say("dataflow analysis (rules AEM201-AEM204):")
        new, suppressed = run_analysis_checks(
            baseline=getattr(args, "baseline", None), log=say
        )
        for f in new:
            print(f"  [FAIL] {f.render()}", file=sys.stderr)
        failures += len(new)
        suppressed_count = len(suppressed)
        reportable.extend(new)

    if fmt != "text":
        from .sanitize import as_findings, render

        print(render(as_findings(reportable), fmt, suppressed=suppressed_count))

    if failures:
        print(f"check FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    say("check passed: all invariants hold")
    return 0


def cmd_bounds(args) -> int:
    p = _params(args)
    N = args.n
    cb = counting_lower_bound(N, p)
    print(f"Bounds for permuting/sorting N={N} on {p.describe()}:")
    print(f"  Theorem 4.5 shape  min{{N, w n log_wm n}} = {permute_lower_shape(N, p):g}")
    print(f"  exact counting bound (round-based): rounds >= {cb.rounds}, cost >= {cb.cost:g}")
    print(f"  exact counting bound (general programs): {counting_lower_bound_general(N, p):g}")
    print(f"  paper's simplified closed form: {simplified_cost_bound(N, p):g}")
    print(f"  upper bounds: naive permute = {permute_naive_shape(N, p):g}, "
          f"mergesort = {sort_upper_shape(N, p):g}")
    print(f"  regime: min takes the '{min_branch(N, p).value}' branch; "
          f"case analysis says '{classify(N, p).value}' "
          f"(boundary B* = {boundary_B(N, p):.1f}, actual B = {p.B})")
    return 0


async def _serve_until_drained(config) -> int:
    """Run one CostServer until a signal (or external shutdown) drains it."""
    import asyncio
    import signal

    from .serve import CostServer

    server = CostServer(config)
    await server.start()
    loop = asyncio.get_running_loop()

    def _drain() -> None:
        asyncio.ensure_future(server.shutdown())

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, _drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms/loops without signal support: ctrl-C still lands
    print(
        f"repro-aem serve: listening on http://{config.host}:{server.port} "
        f"(batch window {config.batch_window * 1e3:g}ms, "
        f"max pending {config.max_pending}); SIGINT/SIGTERM drains",
        file=sys.stderr,
    )
    await server.wait_closed()
    print("repro-aem serve: drained", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Serve cost queries over HTTP until signalled to drain."""
    import asyncio

    from .serve import ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
        jobs=args.jobs,
        cache=args.cache,
        cache_dir=args.cache_dir,
        counting=args.counting,
        telemetry_dir=args.telemetry_dir,
    )
    return asyncio.run(_serve_until_drained(config))


def cmd_serve_bench(args) -> int:
    """Load-test the cost oracle and report latency + dedup hit-rates."""
    from .serve import BenchConfig, ServeConfig, ServerThread, render_report, run_bench

    bench_fields = dict(
        requests=args.requests,
        rate=args.rate,
        burst=args.burst,
        workload=args.workload,
        distinct=args.distinct,
        zipf_s=args.zipf_s,
        n_base=args.n_base,
        counting=args.counting,
        seed=args.seed,
        timeout=args.timeout,
    )
    if args.attach:
        host, _, port = args.attach.rpartition(":")
        report = run_bench(
            BenchConfig(host=host or "127.0.0.1", port=int(port), **bench_fields)
        )
    else:
        serve_config = ServeConfig(
            host="127.0.0.1",
            port=0,
            batch_window=args.batch_window,
            max_pending=args.max_pending,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
        )
        with ServerThread(serve_config) as srv:
            report = run_bench(
                BenchConfig(host=srv.host, port=srv.port, **bench_fields)
            )
    if args.telemetry_dir:
        from .telemetry import append_record, run_record

        append_record(
            args.telemetry_dir,
            run_record(
                "serve-bench",
                config=report["config"],
                wall_s=report["wall_s"],
                metrics=report["metrics"],
                extra={
                    "statuses": report["statuses"],
                    "latency_ms": report["latency_ms"],
                    "server": report.get("server"),
                },
            ),
        )
    if args.json:
        _emit_json(report)
    else:
        print(render_report(report))
    return 0 if report["completed"] == report["sent"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-aem",
        description=(
            "Reproduction of 'Lower Bounds in the Asymmetric External "
            "Memory Model' (Jacob & Sitchinava, SPAA 2017)"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("exp", help="run experiments (e1..e19, a1..a3, or 'all')")
    exp.add_argument("id", help=f"experiment id: {sorted(REGISTRY)} or 'all'")
    exp.add_argument("--full", action="store_true", help="full-size sweeps")
    exp.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment records as JSON instead of rendered tables",
    )
    exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep fan-out (default 1 = serial; "
        "records are identical either way)",
    )
    exp.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoize measurements on disk (--no-cache to disable)",
    )
    exp.add_argument(
        "--cache-dir",
        default=default_cache_dir(),
        help="measurement cache root (default: .repro-cache/ or "
        "$REPRO_CACHE_DIR)",
    )
    exp.add_argument(
        "--counting",
        action="store_true",
        help="run sweeps on payload-free counting machines where supported "
        "(identical costs, faster simulation, no output verification)",
    )
    _add_telemetry_arg(exp)
    exp.set_defaults(fn=cmd_exp)

    srt = sub.add_parser("sort", help="run one sorter with cost readout")
    srt.add_argument("--sorter", choices=sorted(SORTERS), default="aem_mergesort")
    srt.add_argument("--n", type=int, default=8_000)
    srt.add_argument("--distribution", default="uniform")
    _add_machine_args(srt)
    _add_run_args(srt)
    srt.set_defaults(fn=cmd_sort)

    per = sub.add_parser("permute", help="run one permuter with cost readout")
    per.add_argument("--permuter", choices=sorted(PERMUTERS), default="adaptive")
    per.add_argument("--n", type=int, default=4_096)
    per.add_argument("--family", default="random")
    _add_machine_args(per)
    _add_run_args(per)
    per.set_defaults(fn=cmd_permute)

    sp = sub.add_parser("spmxv", help="run one SpMxV algorithm")
    sp.add_argument("--algorithm", choices=["naive", "sort_based"], default="sort_based")
    sp.add_argument("--n", type=int, default=1_024)
    sp.add_argument("--delta", type=int, default=4)
    sp.add_argument("--family", default="random")
    _add_machine_args(sp)
    _add_run_args(sp)
    sp.set_defaults(fn=cmd_spmxv)

    def _add_corpus_args(parser) -> None:
        parser.add_argument(
            "--n-docs", type=int, default=None, help="documents (default n/8)"
        )
        parser.add_argument(
            "--n-terms", type=int, default=None, help="terms (default n/16)"
        )
        parser.add_argument(
            "--zipf-a", type=float, default=1.4, help="zipf exponent for terms"
        )
        parser.add_argument(
            "--fanin",
            type=int,
            default=None,
            help="merge fan-in per layer (default and cap: omega*m)",
        )
        parser.add_argument(
            "--sorter",
            choices=sorted(SORTERS),
            default="aem_mergesort",
            help="run-generation sorter",
        )

    idx = sub.add_parser(
        "index", help="build a blocked inverted index over a synthetic corpus"
    )
    idx.add_argument("--n", type=int, default=8_000, help="corpus postings")
    _add_corpus_args(idx)
    _add_machine_args(idx)
    _add_run_args(idx)
    idx.set_defaults(fn=cmd_index)

    sch = sub.add_parser(
        "search", help="serve DAAT top-k queries (prices the query phase only)"
    )
    sch.add_argument("--n", type=int, default=4_000, help="corpus postings")
    sch.add_argument("--queries", type=int, default=64, help="queries to serve")
    sch.add_argument("--k", type=int, default=8, help="results per query")
    sch.add_argument("--mode", choices=["and", "or"], default="and")
    sch.add_argument("--terms", type=int, default=2, help="terms per query")
    _add_corpus_args(sch)
    _add_machine_args(sch)
    _add_run_args(sch)
    sch.set_defaults(fn=cmd_search)

    from .telemetry.profile import WEIGHTS

    pf = sub.add_parser(
        "profile",
        help="attribute I/O cost (Qr/Qw/Q) to nested phase paths and "
        "export folded-stack + speedscope profiles",
    )
    pf.add_argument(
        "target",
        help="a workload name (sort/permute/spmxv) or an experiment id",
    )
    pf.add_argument(
        "--weight",
        choices=WEIGHTS,
        default="q",
        help="attribution weight: q (asymmetric cost), qw/qr (write/read "
        "I/Os), io (total I/Os)",
    )
    pf.add_argument(
        "--top", type=int, default=20, help="paths shown in the table"
    )
    pf.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write profile.folded and profile.speedscope.json here",
    )
    pf.add_argument("--sorter", choices=sorted(SORTERS), default="aem_mergesort")
    pf.add_argument("--permuter", choices=sorted(PERMUTERS), default="adaptive")
    pf.add_argument(
        "--algorithm", choices=["naive", "sort_based"], default="sort_based"
    )
    pf.add_argument("--n", type=int, default=4_096)
    pf.add_argument("--delta", type=int, default=4)
    pf.add_argument("--distribution", default="uniform")
    pf.add_argument("--family", default="random")
    pf.add_argument(
        "--full", action="store_true", help="full-size sweeps (experiment targets)"
    )
    pf.add_argument(
        "--counting",
        action="store_true",
        help="profile on payload-free counting machines (identical costs)",
    )
    _add_machine_args(pf)
    pf.set_defaults(fn=cmd_profile)

    chk = sub.add_parser(
        "check",
        help="verify model invariants: sanitizers on real traces "
        "(--traces), the AEM source lint (--lint), the dataflow "
        "analysis AEM201-AEM204 (--analysis), or everything (--all, "
        "the default)",
    )
    chk.add_argument(
        "--traces",
        action="store_true",
        help="run the live sanitizers and the Lemma 4.1/4.3 end-to-end checks",
    )
    chk.add_argument(
        "--lint", action="store_true", help="run the AEM source lint rules"
    )
    chk.add_argument(
        "--analysis",
        action="store_true",
        help="run the CFG/dataflow rules (AEM201-AEM204) with the "
        "committed baseline",
    )
    chk.add_argument(
        "--all", action="store_true", help="run every check (the default)"
    )
    chk.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="lint/analysis finding output: human text (default), JSON, "
        "or SARIF 2.1.0 on stdout (exit codes unchanged)",
    )
    chk.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="analysis baseline file (default: .aem-baseline.json at the "
        "repository root, when present)",
    )
    chk.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current analysis findings "
        "and exit 0",
    )
    chk.set_defaults(fn=cmd_check)

    bd = sub.add_parser("bounds", help="print the bound formulas for a point")
    bd.add_argument("--n", type=int, default=65_536)
    _add_machine_args(bd)
    bd.set_defaults(fn=cmd_bounds)

    ins = sub.add_parser(
        "inspect", help="record a permuting program and render its trace"
    )
    ins.add_argument("--permuter", choices=sorted(PERMUTERS), default="naive")
    ins.add_argument("--n", type=int, default=512)
    ins.add_argument("--family", default="random")
    ins.add_argument("--ops", type=int, default=40, help="timeline ops to show")
    ins.add_argument(
        "--round-based",
        action="store_true",
        help="apply the Lemma 4.1 conversion before rendering",
    )
    _add_machine_args(ins)
    ins.set_defaults(fn=cmd_inspect)

    from .telemetry import bench as bench_mod

    bn = sub.add_parser(
        "bench",
        help="run the benchmark suite, emit a BENCH_<stamp>.json trajectory "
        "point, and gate against the committed baseline",
    )
    bench_mod.add_arguments(bn)
    bn.set_defaults(fn=bench_mod.run)

    sv = sub.add_parser(
        "serve",
        help="serve cost queries over HTTP/JSON (batching + dedup + "
        "backpressure over the shared sweep engine)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8177, help="0 = ephemeral")
    sv.add_argument(
        "--batch-window",
        type=float,
        default=0.010,
        help="seconds admitted queries wait to coalesce into one engine call",
    )
    sv.add_argument(
        "--max-batch", type=int, default=64, help="max queries per engine call"
    )
    sv.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="unique in-flight queries before new work gets 429 + Retry-After",
    )
    sv.add_argument(
        "--timeout", type=float, default=60.0, help="per-request seconds before 504"
    )
    sv.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes for fan-out"
    )
    sv.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoize answered queries in the shared on-disk result cache",
    )
    sv.add_argument("--cache-dir", default=default_cache_dir())
    sv.add_argument(
        "--counting",
        action="store_true",
        help="default queries to payload-free counting machines (a query's "
        "explicit counting field wins)",
    )
    _add_telemetry_arg(sv)
    sv.set_defaults(fn=cmd_serve)

    svb = sub.add_parser(
        "serve-bench",
        help="load-test the cost oracle: bursty open-loop traffic with a "
        "zipfian config mix; reports p50/p95/p99 latency and dedup/cache "
        "hit-rates",
    )
    svb.add_argument(
        "--attach",
        default=None,
        metavar="HOST:PORT",
        help="target a running server instead of self-hosting one",
    )
    svb.add_argument("--requests", type=int, default=200)
    svb.add_argument("--rate", type=float, default=200.0, help="mean requests/sec")
    svb.add_argument(
        "--burst", type=int, default=8, help="concurrent requests per arrival event"
    )
    svb.add_argument("--workload", choices=api.workload_names(), default="sort")
    svb.add_argument(
        "--distinct", type=int, default=8, help="distinct configs in the zipfian mix"
    )
    svb.add_argument("--zipf-s", type=float, default=1.1, help="zipf exponent")
    svb.add_argument("--n-base", type=int, default=256, help="n of the hottest config")
    svb.add_argument(
        "--counting",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="benchmark with counting queries (fast; --no-counting for full runs)",
    )
    svb.add_argument("--seed", type=int, default=0)
    svb.add_argument("--timeout", type=float, default=60.0)
    svb.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    svb.add_argument(
        "--batch-window",
        type=float,
        default=0.010,
        help="self-hosted server's coalescing window (ignored with --attach)",
    )
    svb.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="self-hosted server's admission bound (ignored with --attach)",
    )
    svb.add_argument("--jobs", type=int, default=1)
    svb.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="enable the self-hosted server's on-disk result cache",
    )
    svb.add_argument("--cache-dir", default=default_cache_dir())
    _add_telemetry_arg(svb)
    svb.set_defaults(fn=cmd_serve_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("repro-aem: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # A run that raises — in-process or inside an engine worker — must
        # exit non-zero, not crash with a traceback on one path and return
        # 0 on another. REPRO_DEBUG=1 re-raises for debugging.
        import os

        if os.environ.get("REPRO_DEBUG"):
            raise
        import traceback as tb_mod

        tb_mod.print_exc(file=sys.stderr)
        print(f"repro-aem: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
