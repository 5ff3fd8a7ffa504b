"""The sweep engine: parallel fan-out, caching, resume, and the config API.

Covers the PR-2 acceptance surface: parallel output identical to serial
on a real experiment, cache hit/miss/invalidation along every key
component (config, seed, version), resumability after a simulated
mid-sweep kill, the warm-cache speedup, and the ``quick=`` deprecation
shim around :class:`ExperimentConfig`.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.sweep import grid, sweep, sweep_map
from repro.core.params import AEMParams
from repro.engine import (
    MISS,
    ExperimentConfig,
    ResultCache,
    SweepEngine,
    active_engine,
    cache_key,
    use_engine,
)
from repro.experiments import run_experiment
from repro.api.measures import measure_sort
from repro.experiments.common import ExperimentResult
from repro.machine.cost import CostRecord


# ----------------------------------------------------------------------
# Module-level measure functions (engine workers pickle by qualname).
# ----------------------------------------------------------------------
def square_measure(x):
    return {"y": x * x}


def sleepy_measure(x, delay):
    time.sleep(delay)
    return {"y": 2 * x}


_KILL_AT = {"x": None}


def killable_measure(x):
    if _KILL_AT["x"] is not None and x >= _KILL_AT["x"]:
        raise RuntimeError("simulated mid-sweep kill")
    return {"y": x + 1}


def observed_measure(x, observers=()):
    return {"x": x, "n_obs": len(observers)}


def hammer_cache(root, version, n_keys, rounds, out_q):
    """Worker for the lock-free concurrency test: write+read, no locks."""
    cache = ResultCache(root, version=version)
    torn = 0
    for _ in range(rounds):
        for k in range(n_keys):
            key = f"key{k}"
            cache.put(key, {"k": k})
            value = cache.get(key)
            if value is not MISS and value != {"k": k}:
                torn += 1  # a reader saw bytes no single writer produced
    out_q.put(torn)


P = AEMParams(M=64, B=8, omega=4)


# ----------------------------------------------------------------------
# Cache keys.
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_stable_across_dict_order(self):
        a = cache_key(square_measure, {"x": 1, "params": P}, version="v")
        b = cache_key(square_measure, {"params": P, "x": 1}, version="v")
        assert a == b

    def test_changes_with_config(self):
        base = cache_key(square_measure, {"x": 1}, version="v")
        assert cache_key(square_measure, {"x": 2}, version="v") != base
        assert (
            cache_key(square_measure, {"x": 1, "params": P}, version="v") != base
        )

    def test_changes_with_params_dataclass_fields(self):
        a = cache_key(square_measure, {"params": P}, version="v")
        b = cache_key(
            square_measure, {"params": AEMParams(M=64, B=8, omega=8)}, version="v"
        )
        assert a != b

    def test_changes_with_seed(self):
        a = cache_key(square_measure, {"x": 1}, seed=0, version="v")
        b = cache_key(square_measure, {"x": 1}, seed=1, version="v")
        assert a != b

    def test_changes_with_version(self):
        a = cache_key(square_measure, {"x": 1}, version="1.0.0")
        b = cache_key(square_measure, {"x": 1}, version="1.1.0")
        assert a != b

    def test_changes_with_function(self):
        a = cache_key(square_measure, {"x": 1}, version="v")
        b = cache_key(killable_measure, {"x": 1}, version="v")
        assert a != b


# ----------------------------------------------------------------------
# The on-disk cache.
# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        key = cache.key(square_measure, {"x": 3})
        assert cache.get(key) is MISS
        cache.put(key, {"y": 9})
        assert cache.get(key) == {"y": 9}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_cost_record_rehydrates_typed(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        rec = CostRecord(Q=10.0, Qr=2, Qw=2, T=7, peak_mem=16)
        cache.put("k", rec)
        out = cache.get("k")
        assert isinstance(out, CostRecord) and out == rec

    def test_entries_are_valid_json_files(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        key = cache.key(square_measure, {"x": 1})
        cache.put(key, {"y": 1}, meta={"note": "hello"})
        entry = json.loads(cache.path(key).read_text())
        assert entry["value"] == {"y": 1}
        assert entry["meta"]["note"] == "hello"

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        for x in range(4):
            cache.put(cache.key(square_measure, {"x": x}), {"y": x})
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0

    def test_torn_file_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        key = cache.key(square_measure, {"x": 1})
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text("{not json")
        assert cache.get(key) is MISS

    def test_nested_values_hit_equals_miss(self, tmp_path):
        # Regression: the old shallow encoder left nested CostRecords and
        # numpy scalars for the JSON fallback, so a warm read handed back
        # repr() strings where the cold run returned objects.
        import numpy as np

        cache = ResultCache(tmp_path, version="v")
        cold = {
            "rec": CostRecord(Q=10.0, Qr=2, Qw=2, T=7, peak_mem=16),
            "n": np.int64(12),
            "ratio": np.float64(1.5),
            "series": [CostRecord(Q=4.0, Qr=0, Qw=1, T=1, peak_mem=8)],
            "pair": (3, np.int64(4)),
        }
        cache.put("k", cold)
        warm = cache.get("k")
        assert warm == cold
        assert isinstance(warm["rec"], CostRecord)
        assert isinstance(warm["series"][0], CostRecord)
        assert isinstance(warm["pair"], tuple)
        assert type(warm["n"]) is int and type(warm["ratio"]) is float

    @pytest.mark.parametrize(
        "blob", ['{"meta": {}}', "[1, 2, 3]", '"just a string"', "42"]
    )
    def test_valid_json_without_value_reads_as_miss(self, tmp_path, blob):
        cache = ResultCache(tmp_path, version="v")
        key = cache.key(square_measure, {"x": 1})
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text(blob)
        assert cache.get(key) is MISS
        assert cache.stats.misses == 1

    def test_torn_read_retries_until_writer_publishes(self, tmp_path, monkeypatch):
        # A reader that lands on partial JSON (weak rename visibility on
        # network filesystems) must retry, not silently miss: here the
        # "concurrent writer" finishes during the retry sleep, and the
        # same get() call comes back a hit.
        from repro.engine import cache as cache_mod

        cache = ResultCache(tmp_path, version="v")
        key = cache.key(square_measure, {"x": 1})
        cache.put(key, {"y": 1})
        torn = json.dumps({"value": {"y": 1}})[:-5]
        cache.path(key).write_text(torn)

        def finish_write(_delay):
            cache.path(key).write_text(json.dumps({"value": {"y": 1}}))

        monkeypatch.setattr(cache_mod.time, "sleep", finish_write)
        assert cache.get(key) == {"y": 1}
        assert cache.stats.hits == 1

    def test_concurrent_writers_no_lost_update(self, tmp_path):
        # Many processes hammer the same keys with no flock anywhere: the
        # atomic-rename publish means every read observes some complete
        # entry, every key survives with the right value, and no torn
        # temp files are left behind.
        import multiprocessing as mp

        ctx = mp.get_context()
        out_q = ctx.Queue()
        n_procs, n_keys, rounds = 4, 6, 25
        procs = [
            ctx.Process(
                target=hammer_cache, args=(tmp_path, "v", n_keys, rounds, out_q)
            )
            for _ in range(n_procs)
        ]
        for p in procs:
            p.start()
        torn = [out_q.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert sum(torn) == 0, f"readers saw torn/mixed entries: {torn}"
        cache = ResultCache(tmp_path, version="v")
        for k in range(n_keys):
            assert cache.get(f"key{k}") == {"k": k}
        assert not list(cache.root.glob("*.tmp"))

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        cache.put(cache.key(square_measure, {"x": 1}), {"y": 1})
        # A run killed between mkstemp and the atomic rename leaves these.
        (cache.root / "orphan1.tmp").write_text("{")
        (cache.root / "orphan2.tmp").write_text("")
        assert cache.clear() == 1
        assert not list(cache.root.glob("*.tmp"))


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
class TestSweepEngine:
    def test_serial_map_order_and_results(self):
        engine = SweepEngine()
        out = engine.map(square_measure, [{"x": i} for i in range(5)])
        assert out == [{"y": i * i} for i in range(5)]
        assert engine.stats.executed == 5

    def test_parallel_matches_serial_real_measure(self):
        configs = [
            {"sorter": "aem_mergesort", "N": N, "params": P, "seed": N}
            for N in (200, 400, 800)
        ]
        serial = SweepEngine(jobs=1).map(measure_sort, configs)
        with SweepEngine(jobs=2) as eng:
            parallel = eng.map(measure_sort, configs)
        assert parallel == serial
        assert all(isinstance(r, CostRecord) for r in parallel)

    def test_sweep_merges_cost_records(self):
        engine = SweepEngine()
        records = engine.sweep(
            measure_sort,
            [{"sorter": "aem_mergesort", "N": 200, "params": P, "seed": 0}],
        )
        rec = records[0]
        assert rec["N"] == 200 and rec["params"] == P
        assert {"Q", "Qr", "Qw", "T", "peak_mem"} <= set(rec)

    def test_cache_hits_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        configs = [{"x": i} for i in range(4)]
        with SweepEngine(cache=cache) as eng:
            first = eng.map(square_measure, configs)
            assert eng.stats.executed == 4 and eng.stats.cache_hits == 0
        with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
            second = eng.map(square_measure, configs)
            assert second == first
            assert eng.stats.executed == 0 and eng.stats.cache_hits == 4

    def test_cache_invalidation_axes(self, tmp_path):
        configs = [{"x": 1}]
        with SweepEngine(cache=ResultCache(tmp_path, version="v1")) as eng:
            eng.map(square_measure, configs)
        # config change
        with SweepEngine(cache=ResultCache(tmp_path, version="v1")) as eng:
            eng.map(square_measure, [{"x": 2}])
            assert eng.stats.cache_hits == 0 and eng.stats.executed == 1
        # sweep-seed change
        with SweepEngine(cache=ResultCache(tmp_path, version="v1"), seed=7) as eng:
            eng.map(square_measure, configs)
            assert eng.stats.cache_hits == 0 and eng.stats.executed == 1
        # version bump
        with SweepEngine(cache=ResultCache(tmp_path, version="v2")) as eng:
            eng.map(square_measure, configs)
            assert eng.stats.cache_hits == 0 and eng.stats.executed == 1
        # unchanged everything: hit
        with SweepEngine(cache=ResultCache(tmp_path, version="v1")) as eng:
            eng.map(square_measure, configs)
            assert eng.stats.cache_hits == 1 and eng.stats.executed == 0

    def test_resume_after_mid_sweep_kill(self, tmp_path):
        configs = [{"x": i} for i in range(6)]
        _KILL_AT["x"] = 3
        try:
            with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
                with pytest.raises(RuntimeError, match="simulated"):
                    eng.map(killable_measure, configs)
        finally:
            _KILL_AT["x"] = None
        # The completed prefix survived the kill...
        assert len(ResultCache(tmp_path, version="v")) == 3
        # ...and replays as hits on the restarted sweep.
        with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
            out = eng.map(killable_measure, configs)
            assert out == [{"y": i + 1} for i in range(6)]
            assert eng.stats.cache_hits == 3 and eng.stats.executed == 3

    def test_warm_cache_at_least_5x_faster(self, tmp_path):
        configs = [{"x": i, "delay": 0.05} for i in range(12)]
        t0 = time.perf_counter()
        with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
            cold = eng.map(sleepy_measure, configs)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
            warm = eng.map(sleepy_measure, configs)
            assert eng.stats.cache_hits == len(configs)
            assert eng.stats.executed == 0
        warm_s = time.perf_counter() - t0
        assert warm == cold
        assert warm_s * 5 < cold_s, f"warm={warm_s:.3f}s cold={cold_s:.3f}s"

    def test_observers_force_local_uncached_execution(self, tmp_path):
        sentinel = object()
        cache = ResultCache(tmp_path, version="v")
        with SweepEngine(jobs=2, cache=cache, observers=(sentinel,)) as eng:
            out = eng.map(observed_measure, [{"x": i} for i in range(3)])
        assert [r["n_obs"] for r in out] == [1, 1, 1]
        assert len(cache) == 0  # observed runs are never memoized
        assert eng.stats.executed == 3

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


# ----------------------------------------------------------------------
# Ambient-engine plumbing (the sweep helpers).
# ----------------------------------------------------------------------
class TestAmbientEngine:
    def test_no_engine_is_plain_serial(self):
        assert active_engine() is None
        records = sweep(square_measure, grid(x=[1, 2, 3]))
        assert records == [{"x": x, "y": x * x} for x in (1, 2, 3)]

    def test_sweep_map_routes_through_active_engine(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path, version="v"))
        with use_engine(engine):
            assert active_engine() is engine
            sweep_map(square_measure, [{"x": 5}])
            sweep_map(square_measure, [{"x": 5}])
        assert active_engine() is None
        assert engine.stats.cache_hits == 1 and engine.stats.executed == 1

    def test_use_engine_restores_previous(self):
        outer, inner = SweepEngine(), SweepEngine()
        with use_engine(outer):
            with use_engine(inner):
                assert active_engine() is inner
            assert active_engine() is outer


# ----------------------------------------------------------------------
# The ExperimentConfig API and its deprecation shim.
# ----------------------------------------------------------------------
class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.quick and cfg.budget == "quick"
        assert cfg.jobs == 1 and cfg.cache is False

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig(budget="medium")

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig(jobs=0)

    def test_from_quick(self):
        assert ExperimentConfig.from_quick(True).budget == "quick"
        assert ExperimentConfig.from_quick(False).budget == "full"

    def test_make_engine_reflects_policy(self, tmp_path):
        cfg = ExperimentConfig(jobs=3, cache=True, cache_dir=str(tmp_path), seed=9)
        engine = cfg.make_engine()
        assert engine.jobs == 3 and engine.seed == 9
        assert engine.cache is not None
        assert ExperimentConfig(cache=False).make_engine().cache is None


class TestRunAllOrdering:
    def test_run_all_executes_in_natural_order(self, monkeypatch):
        from repro.experiments import common

        calls = []

        def make(eid):
            def runner(config):
                assert isinstance(config, ExperimentConfig)
                calls.append(eid)
                return ExperimentResult(eid=eid.upper(), title="t", claim="c")

            return runner

        fake = {eid: make(eid) for eid in ["e10", "e2", "a1", "e1", "e11"]}
        monkeypatch.setattr(common, "REGISTRY", fake)
        results = common.run_all(ExperimentConfig())
        assert calls == ["a1", "e1", "e2", "e10", "e11"]
        assert [r.eid for r in results] == ["A1", "E1", "E2", "E10", "E11"]


class TestParallelExperimentIdentity:
    def test_experiment_records_identical_serial_vs_parallel(self):
        serial = run_experiment("e1", ExperimentConfig(jobs=1))
        parallel = run_experiment("e1", ExperimentConfig(jobs=2))
        assert serial.records == parallel.records
        assert serial.checks == parallel.checks
        assert serial.tables == parallel.tables


# ----------------------------------------------------------------------
# Worker-failure propagation (regression: a raise inside the pool used
# to surface as BrokenProcessPool — or worse, exit 0 — when the
# exception did not survive unpickling).
# ----------------------------------------------------------------------
def failing_measure(x):
    raise ValueError(f"measurement blew up at x={x}")


def capacity_failing_measure(x):
    from repro.machine.errors import CapacityError

    raise CapacityError(5, 60, 64)


class UnpicklableError(Exception):
    """Custom __init__ signature: survives pickle.dumps, dies on loads."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(f"a={a} b={b}")


def unpicklable_failing_measure(x):
    raise UnpicklableError(x, x + 1)


class TestWorkerFailurePropagation:
    def test_plain_exception_propagates_from_pool(self):
        with SweepEngine(jobs=2) as eng:
            with pytest.raises(ValueError, match="blew up at x="):
                eng.map(failing_measure, [{"x": 1}, {"x": 2}])

    def test_capacity_error_type_preserved_through_pool(self):
        from repro.machine.errors import CapacityError

        with SweepEngine(jobs=2) as eng:
            with pytest.raises(CapacityError) as exc_info:
                eng.map(capacity_failing_measure, [{"x": 1}, {"x": 2}])
        assert exc_info.value.requested == 5
        assert exc_info.value.occupancy == 60

    def test_unpicklable_exception_becomes_engine_worker_error(self):
        from repro.engine import EngineWorkerError

        with SweepEngine(jobs=2) as eng:
            with pytest.raises(EngineWorkerError) as exc_info:
                eng.map(unpicklable_failing_measure, [{"x": 1}, {"x": 2}])
        err = exc_info.value
        assert err.exc_type == "UnpicklableError"
        assert "worker traceback" in str(err)
        assert "unpicklable_failing_measure" in err.worker_tb

    def test_serial_path_still_raises_directly(self):
        with pytest.raises(ValueError, match="blew up"):
            SweepEngine(jobs=1).map(failing_measure, [{"x": 1}])
