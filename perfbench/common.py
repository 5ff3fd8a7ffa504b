"""Helpers shared by ``run.py``, its worker and its launchers.

Everything here is stdlib-only: ``run.py`` must be able to start (and
fail cleanly) in a checkout that holds no program at all.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Per-run working space (server cache dirs, worker results).
#: It lives inside the checkout, is git-ignored, and every run removes
#: its own subdirectory before exiting.
RUNS = ROOT / ".perfbench-tmp"

#: Concurrency cap: the load generator never opens more connections than
#: this (the benchmark is sized for a 2-core machine).
MAX_CONNECTIONS = 2


def connections() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(MAX_CONNECTIONS, cores))


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (
        SRC / "repro" / "cli.py"
    ).is_file()


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Never let a stray variable redirect the program's cache out of the
    # per-run directory, or switch its dispatch mode.
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_DISPATCH", None)
    env.pop("REPRO_SANITIZE", None)
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_run_dir(tag: str) -> Path:
    path = RUNS / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUNS.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# Host speed. The host's CPU speed drifts by up to 2x over minutes (a
# shared machine; CPU time stretches with wall time), so the worker
# workloads report their times at a reference speed: measured time x
# REF_NOMINAL_S / the mean time of a fixed reference chunk timed in the
# same process, in between the measured work (see README.md).
# ----------------------------------------------------------------------
#: The reference chunk's time at the reference speed.
REF_NOMINAL_S = 0.010
REF_ITERS = 40000
#: Chunks per host-speed sample taken outside the measured work.
REF_SAMPLE_CHUNKS = 5


def ref_chunk() -> float:
    """Run the fixed reference chunk once; returns its duration in s.

    Plain interpreter work on ints and one small dict. Besides that dict
    it allocates nothing the cyclic GC tracks, so its time depends on the
    host, not on the program's heap.
    """
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(REF_ITERS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        acc ^= table[key] >> 3
    return time.perf_counter() - start


def ref_sample() -> float:
    """Mean reference-chunk time over a short burst of chunks."""
    return sum(ref_chunk() for _ in range(REF_SAMPLE_CHUNKS)) / REF_SAMPLE_CHUNKS


def at_ref_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while a reference chunk took ``ref_s``,
    scaled to the reference speed."""
    return seconds * REF_NOMINAL_S / ref_s


def pct(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(round(len(ordered) * q, 9)))
    return float(ordered[rank - 1])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def own_peak_rss_mb() -> float:
    return peak_rss_mb_of(os.getpid())


def dump_json(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True))
    tmp.replace(path)
