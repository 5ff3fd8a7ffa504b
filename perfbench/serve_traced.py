"""Traced server launcher: wrappers first, then ``repro-aem serve`` itself.

Usage::

    python3 perfbench/serve_traced.py --out SPANS.json -- serve --port 0 ...

Installs :mod:`tracing` in this process, calls ``repro.cli.main`` with
the arguments after ``--`` (exactly what the ``repro-aem`` entry point
does), and once the server has drained writes the per-layer figures to
``--out`` and the spans as a Chrome trace under ``.perfbench-out/``.
Its exit status is the CLI's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import ROOT, dump_json, use_src

use_src()

import tracing  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv[:split])

    from repro import cli

    tracer = tracing.Tracer()
    tracing.install(tracer, serve=True)
    code = cli.main(argv[split + 1:])
    layers = tracing.layer_metrics(tracer)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    result = {"layers": layers, "trace_events": 0, "trace_error": None}
    try:
        result["trace_events"] = tracing.write_trace(
            tracer, out_dir / "trace-serve.json", pid=3, label="perfbench serve"
        )
    except ValueError as exc:  # validate_trace rejected it
        result["trace_error"] = str(exc)
    dump_json(Path(args.out), result)
    return code


if __name__ == "__main__":
    sys.exit(main())
