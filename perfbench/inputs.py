"""Seeded inputs for every workload: the program only ever sees these.

All randomness comes from ``random.Random(seed)``, so one ``--seed``
names one input set on every machine. The program receives flat query
dicts (``sweep``, ``serve``) or experiment ids (``exp``).
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator

#: The seed runs default to, and the held-out seed whose pinned costs
#: were recorded without tuning anything against it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

# ----------------------------------------------------------------------
# sweep, build part: large counting queries on the write-bearing path.
# ----------------------------------------------------------------------
#: (M, B, omega) with a deep merge tree (omega*m = 16) and a shallow one
#: (omega*m = 512).
DEEP = {"M": 64, "B": 8, "omega": 2.0}
SHALLOW = {"M": 1024, "B": 32, "omega": 16.0}

BUILD_SHAPES = (
    {"workload": "index_build", "n": 16384},
    {"workload": "sort", "n": 16384, "sorter": "aem_mergesort"},
    {"workload": "permute", "n": 32768},
    {"workload": "spmxv", "n": 4096, "delta": 4},
)


def build_queries(seed: int) -> list[dict]:
    rng = random.Random(f"build:{seed}")
    out = []
    for point in (DEEP, SHALLOW):
        for shape in BUILD_SHAPES:
            out.append(
                {**shape, **point, "seed": rng.randrange(1 << 30), "counting": True}
            )
    return out


# ----------------------------------------------------------------------
# sweep, query part: the write-free serve path of the search workload.
# ----------------------------------------------------------------------
QUERY_POINT = {"M": 128, "B": 16, "omega": 8.0}
#: Long AND and OR query streams, so ``run_queries`` outweighs the index
#: build beneath each of them.
QUERY_SHAPES = (
    {"mode": "and", "terms_per_query": 2, "n_queries": 1024},
    {"mode": "or", "terms_per_query": 2, "n_queries": 160},
    {"mode": "and", "terms_per_query": 3, "n_queries": 320},
)


def query_queries(seed: int) -> list[dict]:
    rng = random.Random(f"query:{seed}")
    return [
        {
            "workload": "search_query",
            "n": 8192,
            "k": 8,
            **shape,
            **QUERY_POINT,
            "seed": rng.randrange(1 << 30),
            "counting": True,
        }
        for shape in QUERY_SHAPES
    ]


#: The parts of a ``sweep`` pass, in order; ``pinned.json`` has a table
#: of costs per part and seed.
SWEEP_PARTS = ("build", "query")


def sweep_queries(seed: int) -> list[dict]:
    """One ``sweep`` pass: the build queries, then the query queries."""
    return build_queries(seed) + query_queries(seed)


# ----------------------------------------------------------------------
# exp: a fixed subset of the quick experiment suite.
# ----------------------------------------------------------------------
#: sorting (e1), permuting (e7), SpMxV (e11), index build (e18), query
#: serving (e19), and the flash reduction (e9), whose program capture
#: runs the synchronous TraceRecorder tier.
EXP_IDS = ("e1", "e7", "e11", "e18", "e19", "e9")


def exp_orders(seed: int) -> Iterator[list[str]]:
    """The seed permutes the experiment order of every pass."""
    rng = random.Random(f"exp:{seed}")
    while True:
        ids = list(EXP_IDS)
        rng.shuffle(ids)
        yield ids


# ----------------------------------------------------------------------
# serve: a zipfian mix of small queries under open-loop Poisson arrivals.
# ----------------------------------------------------------------------
#: Offered load, below the knee of the 2-connection client against the
#: default 10 ms coalescing window (see perfbench/README.md).
SERVE_RATE = 50.0
#: Distinct configs in the pool; the zipfian tail keeps missing the
#: result cache for the whole run.
SERVE_POOL = 4000
SERVE_ZIPF_S = 1.4
#: Share of queries that ask for a verified full (payload) run.
SERVE_FULL_SHARE = 0.1
#: Share of requests that carry a small ``{"queries": [...]}`` batch.
SERVE_BATCH_SHARE = 0.2

_SERVE_POINTS = (
    {"M": 64, "B": 8, "omega": 2.0},
    {"M": 128, "B": 16, "omega": 8.0},
    {"M": 256, "B": 16, "omega": 4.0},
    {"M": 512, "B": 32, "omega": 16.0},
)


def _serve_config(rng: random.Random) -> dict:
    workload = rng.choice(
        ("sort", "permute", "spmxv", "index_build", "search_query")
    )
    q: dict = {"workload": workload, **rng.choice(_SERVE_POINTS)}
    if workload == "sort":
        q["n"] = rng.choice((64, 128, 256))
        q["sorter"] = "aem_mergesort"
    elif workload == "permute":
        q["n"] = rng.choice((64, 128, 256))
    elif workload == "spmxv":
        q["n"] = rng.choice((16, 32))
        q["delta"] = rng.choice((2, 4))
    elif workload == "index_build":
        q["n"] = rng.choice((128, 256))
    else:
        q["n"] = rng.choice((128, 256))
        q["n_queries"] = rng.choice((2, 4))
        q["mode"] = rng.choice(("and", "or"))
    q["seed"] = rng.randrange(1 << 20)
    q["counting"] = rng.random() >= SERVE_FULL_SHARE
    if not q["counting"]:
        # A full run holds the GIL for its whole evaluation, stalling the
        # server's event loop; the smallest valid sizes keep those short.
        q["n"] = {"spmxv": 16, "index_build": 128, "search_query": 128}.get(
            workload, 64
        )
    return q


def serve_pool(seed: int) -> list[dict]:
    """Distinct configs, hottest first (rank 0 is the zipf head)."""
    rng = random.Random(f"serve-pool:{seed}")
    seen: set = set()
    pool = []
    while len(pool) < SERVE_POOL:
        q = _serve_config(rng)
        key = tuple(sorted(q.items()))
        if key not in seen:
            seen.add(key)
            pool.append(q)
    return pool


def serve_schedule(seed: int, seconds: float) -> list:
    """``[(due_s, body), ...]``: ``round(SERVE_RATE * seconds)`` Poisson arrivals.

    The count is fixed (so a run always has the samples its p99 needs);
    the span is ``seconds`` on average. Bodies are a single query or a
    ``{"queries": [...]}`` batch of 2-4, each query drawn zipfian from
    :func:`serve_pool`.
    """
    pool = serve_pool(seed)
    rng = random.Random(f"serve-load:{seed}")
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(pool))]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    def draw() -> dict:
        rank = bisect.bisect_left(cum, rng.random() * total)
        return pool[min(rank, len(pool) - 1)]

    schedule = []
    t = 0.0
    for _ in range(max(1, round(SERVE_RATE * seconds))):
        t += rng.expovariate(SERVE_RATE)
        if rng.random() < SERVE_BATCH_SHARE:
            body: dict = {"queries": [draw() for _ in range(rng.randint(2, 4))]}
        else:
            body = draw()
        schedule.append((t, body))
    return schedule
