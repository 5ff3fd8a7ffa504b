"""Command-line interface.

Regenerate any experiment, price one workload query with a cost readout,
profile where its cost goes, or print the bound formulas for a point::

    repro-aem exp e1                  # one experiment (quick mode)
    repro-aem exp all --full          # the whole suite, full-size sweeps
    repro-aem exp all --jobs 4        # fan sweeps out over 4 processes
    repro-aem sort --sorter aem_mergesort --n 8000 --m 128 --b 16 --omega 8
    repro-aem permute --permuter adaptive --n 4096 --m 64 --b 8 --omega 4
    repro-aem spmxv --algorithm sort_based --n 1024 --delta 4
    repro-aem search_query --n 4000 --queries 64 --mode or
    repro-aem profile index_build --n 2000 --sorter aem_heapsort
    repro-aem bounds --n 65536 --m 256 --b 16 --omega 8

Every registered workload (:data:`repro.api.WORKLOADS`) is a runner
subcommand of the same name, and ``profile <workload>`` takes the same
flags: one per query field, generated from the field's type, default,
choices and help, so a runner, its ``--help`` and the server's
``/workloads`` schema agree by construction. ``index`` and ``search``
are aliases of ``index_build`` and ``search_query``. The runners accept
``--json`` to emit one machine-readable record on stdout (as does
``exp``) and ``--progress`` for a live I/O/phase readout on stderr (a
:class:`~repro.observe.ProgressObserver` on the machine's event bus).

``exp`` runs execute on the sweep engine (:mod:`repro.engine`):
``--jobs N`` fans measurements out over N worker processes with the record
stream identical to a serial run, and measurements are memoized under
``.repro-cache/`` (``--cache-dir`` to relocate, ``--no-cache`` to disable)
so a repeated or killed-and-restarted run replays completed measurements
instantly. Engine statistics (executed / cache hits / misses) are printed
to stderr after the run.

``--telemetry-dir DIR`` (on ``exp`` and the workload runners) turns a
run into durable artifacts (:mod:`repro.telemetry`): one JSONL record
appended to ``DIR/manifest.jsonl`` (config, costs, wall time, engine
stats, package version) and a ``DIR/trace.json`` loadable in
``ui.perfetto.dev`` — machine phases as spans and I/O counter tracks for
the workload runners, engine worker-lane task spans for ``exp``.
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
from .workloads.generators import PERMUTATION_FAMILIES

from . import api
from .api.registry import COMMON_FIELDS, MACHINE_FIELDS


#: The per-workload data the registry does not carry. Older spellings
#: stay as argparse aliases: subcommands by workload name, flags by query
#: field name.
_COMMAND_ALIASES = {"index_build": ("index",), "search_query": ("search",)}
_FLAG_ALIASES = {"n_queries": ("--queries",), "terms_per_query": ("--terms",)}

#: Default ``--n`` per runner subcommand (the registry requires ``n``); a
#: workload missing here gets ``--n`` as a required flag.
_DEFAULT_N = {
    "sort": 8_000,
    "permute": 4_096,
    "spmxv": 1_024,
    "index_build": 8_000,
    "search_query": 4_000,
}

#: The paper's bound shapes a workload's record carries beside its cost.
_SHAPES = {
    "sort": {"shape_upper": sort_upper_shape},
    "permute": {
        "shape_naive": permute_naive_shape,
        "shape_sort": sort_upper_shape,
        "lower_bound_general": counting_lower_bound_general,
    },
}


def _params(args) -> AEMParams:
    return AEMParams(M=args.m, B=args.b, omega=args.omega)


def _add_field_args(parser, fields, defaults: Optional[dict] = None) -> None:
    """One flag per query field: ``--<name>`` (lowercased, ``_`` -> ``-``)
    with the field's type, default, choices and help.

    ``defaults`` overrides field defaults; a required field whose default
    is ``None`` becomes a required flag. ``--counting`` is a switch, so a run
    without it passes ``counting=False`` explicitly (the registry's
    ``None`` default leaves the choice to the server).
    """
    defaults = defaults or {}
    for f in fields:
        flags = ("--" + f.name.lower().replace("_", "-"),) + _FLAG_ALIASES.get(
            f.name, ()
        )
        if f.name == "counting":
            parser.add_argument(*flags, action="store_true", help=f.help)
            continue
        default = defaults.get(f.name, None if f.required else f.default)
        parser.add_argument(
            *flags,
            dest=f.name.lower(),
            type=f.coerce,
            default=default,
            required=default is None and f.required,
            choices=f.choices,
            help=f.help,
        )


def _add_machine_args(parser) -> None:
    seed = [f for f in COMMON_FIELDS if f.name == "seed"]
    _add_field_args(parser, MACHINE_FIELDS + tuple(seed))


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
    eid = args.id.lower()
    if eid != "all" and eid not in REGISTRY:
        print(
            f"exp: unknown experiment {args.id!r} "
            f"(expected 'all' or one of {sorted(REGISTRY)})",
            file=sys.stderr,
        )
        return 2
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
        if eid == "all":
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


def _query(spec, args) -> dict:
    """The flat query a workload command's flags spell. Optional fields
    left at ``None`` stay out, so the registry's derived defaults (and
    cache identity) apply."""
    query = {"workload": spec.name}
    for f in spec.all_fields:
        value = getattr(args, f.name.lower())
        if value is not None:
            query[f.name] = value
    return query


def cmd_workload(args) -> int:
    """Price one registered workload query with a cost readout."""
    spec = api.WORKLOADS[args.workload]
    query = _query(spec, args)
    p = api.normalize(query)[1]["params"]
    progress, tel = [], []
    if args.progress:
        from .observe import ProgressObserver

        progress = [ProgressObserver(every=200, label=args.command)]
    if args.telemetry_dir:
        from .telemetry import MetricsObserver, PerfettoObserver

        tel = [MetricsObserver(), PerfettoObserver(label=args.command)]
    t0 = time.perf_counter()
    rec = api.evaluate(spec.name, query, observers=progress + tel)
    for obs in progress:
        obs.close()
    fields = {
        k: v for k, v in query.items() if k not in ("workload", "M", "B", "omega")
    }
    config = {**fields, "params": {"M": p.M, "B": p.B, "omega": p.omega}}
    if tel:
        from .telemetry import append_record, run_record

        metrics, perfetto = tel
        perfetto.write(Path(args.telemetry_dir) / "trace.json")
        append_record(
            args.telemetry_dir,
            run_record(
                args.command,
                config=config,
                cost={**rec},
                wall_s=time.perf_counter() - t0,
                metrics=metrics.summary(),
            ),
        )
    shapes = {
        name: shape(query["n"], p) for name, shape in _SHAPES.get(spec.name, {}).items()
    }
    if args.json:
        _emit_json({"command": args.command, **config, **shapes, **rec})
        return 0
    print(f"{args.command}: {spec.help}")
    print("  " + "  ".join(f"{k}={v}" for k, v in fields.items()))
    print(f"  on {p.describe()}")
    print(
        f"  Qr={rec['Qr']}  Qw={rec['Qw']}  Q={rec['Q']:g}  "
        f"T={rec['T']}  peak-mem={rec['peak_mem']}"
    )
    for name, value in shapes.items():
        print(f"  {name.replace('_', ' ')} = {value:g}")
    return 0


def build_profile_parser(target: str) -> argparse.ArgumentParser:
    """The flags ``repro-aem profile <target>`` takes after its target.

    A workload target takes exactly its registry fields (``--n``
    defaulting to 4096); an experiment target takes ``--full`` and
    ``--counting``. Both take the export flags.
    """
    from .telemetry.profile import WEIGHTS

    parser = argparse.ArgumentParser(prog=f"repro-aem profile {target}")
    parser.add_argument(
        "--weight",
        choices=WEIGHTS,
        default="q",
        help="attribution weight: q (asymmetric cost), qw/qr (write/read "
        "I/Os), io (total I/Os)",
    )
    parser.add_argument("--top", type=int, default=20, help="paths shown in the table")
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write profile.folded and profile.speedscope.json here",
    )
    if target in api.WORKLOADS:
        _add_field_args(parser, api.WORKLOADS[target].all_fields, {"n": 4_096})
    else:
        parser.add_argument("--full", action="store_true", help="full-size sweeps")
        parser.add_argument(
            "--counting",
            action="store_true",
            help="profile on payload-free counting machines (identical costs)",
        )
    return parser


def cmd_profile(args) -> int:
    """Attribute I/O cost to nested phase paths; see docs/observability.md.

    The target is either a registered workload (one profiled evaluation)
    or an experiment id (every profilable measurement in the run, merged
    per task label). Conservation — attributed totals == the ledgers of
    the machines the profiler watched — is checked in-command and is a
    hard failure, so CI can assert it by exit code alone.
    """
    from .telemetry import CostProfiler, folded, merge_paths, render_table, speedscope

    root = args.target
    if root not in api.WORKLOADS and root not in REGISTRY:
        known = api.workload_names() + sorted(REGISTRY)
        print(
            f"profile: unknown target {root!r} "
            f"(expected a workload or experiment id from {known})",
            file=sys.stderr,
        )
        return 2
    opts = build_profile_parser(root).parse_args(args.flags)
    if root in api.WORKLOADS:
        profiler = CostProfiler(root=root)
        query = _query(api.WORKLOADS[root], opts)
        api.evaluate(root, query, observers=[profiler])
        profiles = [(root, profiler)]
        paths = profiler.paths()
    else:
        config = ExperimentConfig(
            budget="full" if opts.full else "quick",
            cache=False,
            counting=opts.counting,
            profile=True,
        )
        engine = config.make_engine()
        with use_engine(engine):
            run_experiment(root, config)
        if not engine.profiles:
            print(
                f"profile: experiment {root!r} ran no profilable "
                "measurements (none accept observers)",
                file=sys.stderr,
            )
            return 1
        profiles = [(entry.label, entry.profiler) for entry in engine.profiles]
        paths = merge_paths((label, prof.paths()) for label, prof in profiles)
    errors = [
        f"{label}: {e}" for label, prof in profiles for e in prof.conservation_errors()
    ]
    print(render_table(paths, weight=opts.weight, top=opts.top, root=root))
    depth = max((len(p) for p in paths), default=0)
    total = sum(stats.weight(opts.weight) for stats in paths.values())
    print(f"total {opts.weight} = {total:g} over {len(paths)} path(s), max depth {depth}")
    if opts.out:
        out = Path(opts.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "profile.folded").write_text(
            folded(paths, weight=opts.weight, root=root)
        )
        (out / "profile.speedscope.json").write_text(
            json.dumps(speedscope(paths, weight=opts.weight, root=root),
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
        "(identical costs, faster simulation; outputs are verified from "
        "their (key, uid) tokens, except SpMxV's)",
    )
    _add_telemetry_arg(exp)
    exp.set_defaults(fn=cmd_exp)

    for name in api.workload_names():
        spec = api.WORKLOADS[name]
        run = sub.add_parser(
            name, aliases=_COMMAND_ALIASES.get(name, ()), help=spec.help
        )
        _add_field_args(run, spec.all_fields, {"n": _DEFAULT_N.get(name)})
        run.add_argument(
            "--json",
            action="store_true",
            help="emit one JSON record on stdout instead of the rendered readout",
        )
        run.add_argument(
            "--progress",
            action="store_true",
            help="live I/O/phase readout on stderr while the run executes",
        )
        _add_telemetry_arg(run)
        run.set_defaults(fn=cmd_workload, workload=name)

    pf = sub.add_parser(
        "profile",
        help="attribute I/O cost (Qr/Qw/Q) to nested phase paths and "
        "export folded-stack + speedscope profiles",
    )
    pf.add_argument("target", help="a registered workload or an experiment id")
    pf.add_argument(
        "flags",
        nargs=argparse.REMAINDER,
        help="the target's flags: a workload's own fields plus --weight, "
        "--top and --out (see `profile <target> --help`)",
    )
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
    ins.add_argument(
        "--family", choices=sorted(PERMUTATION_FAMILIES), default="random"
    )
    ins.add_argument("--ops", type=int, default=40, help="timeline ops to show")
    ins.add_argument(
        "--round-based",
        action="store_true",
        help="apply the Lemma 4.1 conversion before rendering",
    )
    _add_machine_args(ins)
    ins.set_defaults(fn=cmd_inspect)

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
    except api.QueryError as exc:
        # Bad flag values the registry rejects are usage errors, like
        # argparse's own: a message and exit 2, no traceback.
        print(f"repro-aem: error: {exc}", file=sys.stderr)
        return 2
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
