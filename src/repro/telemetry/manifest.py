"""Run manifests: one JSONL record per CLI invocation.

Every ``exp`` or workload-runner (``sort``, ``permute``, ...) run
invoked with ``--telemetry-dir DIR`` appends one line to
``DIR/manifest.jsonl``: what ran (command + full config), what it cost (the
:class:`~repro.machine.cost.CostRecord` and/or per-experiment results),
how long it took, how the engine behaved (cache hits/misses, worker
utilization), and under which package version — everything needed to
compare runs across machines, flags, and PRs without re-running them.

Append-only JSONL is deliberate: records from concurrent runs interleave
without coordination (one ``write`` per line), and downstream tooling
(`jq`, pandas) streams it without loading the whole history.
"""

from __future__ import annotations

import json
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Union

MANIFEST_NAME = "manifest.jsonl"

#: Bumped when a record's shape changes incompatibly.
MANIFEST_SCHEMA = 1


def _package_version() -> str:
    from repro import __version__

    return __version__


def utc_now() -> str:
    """ISO-8601 UTC timestamp (second resolution)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def json_default(obj):
    """Coerce the non-JSON values run records contain.

    numpy scalars/arrays collapse to plain numbers/lists; anything with
    an ``as_dict`` (CostRecord, EngineStats, ...) flattens; the rest
    falls back to ``repr`` so a record is always writable.
    """
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    item = getattr(obj, "item", None)  # numpy scalar
    if callable(item):
        return item()
    tolist = getattr(obj, "tolist", None)  # numpy array
    if callable(tolist):
        return tolist()
    return repr(obj)


def run_record(
    command: str,
    *,
    config: Mapping,
    cost: Optional[Mapping] = None,
    wall_s: Optional[float] = None,
    engine: Optional[Mapping] = None,
    metrics: Optional[Mapping] = None,
    results: Optional[list] = None,
    extra: Optional[Mapping] = None,
) -> dict:
    """Assemble one manifest record (plain dict, ready to append)."""
    record = {
        "schema": MANIFEST_SCHEMA,
        "created": utc_now(),
        "version": _package_version(),
        "python": platform.python_version(),
        "command": command,
        "config": dict(config),
    }
    if wall_s is not None:
        record["wall_s"] = wall_s
    if cost is not None:
        record["cost"] = dict(cost)
    if engine is not None:
        record["engine"] = dict(engine)
    if metrics is not None:
        record["metrics"] = dict(metrics)
    if results is not None:
        record["results"] = results
    if extra:
        record.update(extra)
    return record


def append_record(
    telemetry_dir: Union[str, Path],
    record: Mapping,
    *,
    filename: str = MANIFEST_NAME,
) -> Path:
    """Append ``record`` as one JSONL line under ``telemetry_dir``.

    Creates the directory on first use. The record is serialized to a
    single line *before* the file is opened, so a serialization error
    never leaves a torn line behind.
    """
    path = Path(telemetry_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=json_default)
    if "\n" in line:  # pragma: no cover - json.dumps never emits newlines
        raise ValueError("manifest records must serialize to one line")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


def read_manifest(
    telemetry_dir: Union[str, Path], *, filename: str = MANIFEST_NAME
) -> list[dict]:
    """All records in a manifest, oldest first ([] when none exists)."""
    path = Path(telemetry_dir) / filename
    if not path.is_file():
        return []
    records = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
