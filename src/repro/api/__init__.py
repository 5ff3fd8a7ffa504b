"""``repro.api`` — the stable entry surface over the measurement stack.

One facade, three verbs::

    from repro import api

    rec = api.evaluate("sort", n=8000, M=128, B=16, omega=8)   # CostRecord
    recs = api.sweep([{"workload": "sort", "n": 1000},
                      {"workload": "permute", "n": 512}])
    key = api.query_key({"workload": "sort", "n": 8000})       # dedup/cache id

Everything routes through the shared workload registry
(:data:`~repro.api.registry.WORKLOADS`) and the *ambient* sweep engine
(:func:`repro.engine.use_engine`), so callers inherit whatever caching,
fan-out, and counting policy the installed engine carries — the CLI, the
experiment suite, and the cost-oracle server (:mod:`repro.serve`) are all
thin layers over these calls and therefore answer every query
identically, bit for bit. The measurement implementations live in
:mod:`repro.api.measures`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from ..engine.core import SweepEngine, ambient_engine
from ..machine.cost import CostRecord
from .registry import (
    WORKLOADS,
    QueryError,
    QueryField,
    WorkloadSpec,
    normalize,
    query_key,
    register_workload,
    workload_names,
)


def describe_workloads() -> dict:
    """JSON-able schema of every registered workload (``/workloads``)."""
    return {name: WORKLOADS[name].describe() for name in workload_names()}


def evaluate(
    workload: str,
    query: Optional[Mapping[str, Any]] = None,
    *,
    observers: Iterable = (),
    engine: Optional[SweepEngine] = None,
    **fields: Any,
) -> CostRecord:
    """Price one workload query; returns its :class:`CostRecord`.

    ``query`` and ``**fields`` merge (keywords win) into one flat query
    dict — ``evaluate("sort", n=8000)`` and
    ``evaluate("sort", {"n": 8000})`` are the same call. Execution routes
    through ``engine`` (default: the ambient engine), so results are
    memoized and fanned out per the installed policy.

    ``observers`` attaches extra machine observers for this one run;
    observed runs execute in-process and unmemoized (events cannot be
    replayed from a cache or another process), exactly like the engine's
    own observed-run path.
    """
    merged = {**(query or {}), **fields, "workload": workload}
    spec, config = normalize(merged)
    observers = tuple(observers)
    if observers:
        return spec.measure(**config, observers=observers)
    eng = engine if engine is not None else ambient_engine()
    return eng.measure(spec.measure, **config)


def sweep(
    queries: Iterable[Mapping[str, Any]],
    *,
    engine: Optional[SweepEngine] = None,
    spans: Optional[Sequence] = None,
) -> list:
    """Price many queries; results in query order.

    Queries are normalized up front (any bad query fails the whole sweep
    before anything runs), grouped by workload, and dispatched through
    the engine one :meth:`~repro.engine.core.SweepEngine.map` call per
    group — so a mixed batch still gets the engine's caching and
    parallel fan-out, and each batch the server coalesces costs the
    minimum number of engine calls.

    ``spans`` (parallel to ``queries``, entries may be ``None``) carries
    per-query :class:`~repro.telemetry.spans.SpanContext` roots down to
    the engine, which executes each query under a child span — the
    propagation hop between the serving layer's request spans and the
    machine-phase segments in one flow-linked trace.
    """
    normalized = [normalize(q) for q in queries]
    spans_list = list(spans) if spans is not None else None
    if spans_list is not None and len(spans_list) != len(normalized):
        raise ValueError(
            f"spans ({len(spans_list)}) must parallel queries ({len(normalized)})"
        )
    eng = engine if engine is not None else ambient_engine()
    results: list = [None] * len(normalized)
    groups: dict[str, list[int]] = {}
    for i, (spec, _) in enumerate(normalized):
        groups.setdefault(spec.name, []).append(i)
    for name, indices in groups.items():
        spec = WORKLOADS[name]
        configs = [normalized[i][1] for i in indices]
        group_spans = (
            [spans_list[i] for i in indices] if spans_list is not None else None
        )
        for i, result in zip(
            indices, eng.map(spec.measure, configs, spans=group_spans)
        ):
            results[i] = result
    return results


__all__ = [
    "CostRecord",
    "QueryError",
    "QueryField",
    "WORKLOADS",
    "WorkloadSpec",
    "describe_workloads",
    "evaluate",
    "normalize",
    "query_key",
    "register_workload",
    "sweep",
    "workload_names",
]
