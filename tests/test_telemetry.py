"""The telemetry layer: metrics registry, machine/engine observers,
run manifests, and the benchmark-trajectory gate.

The load-bearing guarantees pinned here:

* attaching a :class:`MetricsObserver` is the only way its aggregation
  costs anything — a machine without one keeps its per-event callback
  lists exactly as short as before (the acceptance criterion for the
  empty-callback-list fast path);
* the observer's totals agree with the machine's own exact counters, so
  the manifest never disagrees with the CostRecord next to it;
* the engine's duck-typed ``telemetry`` hook records one span per
  measurement, cache hits as zero-width spans;
* the bench gate fails on wall-time regressions and on any drift of
  the deterministic cost counters.
"""

import json

import numpy as np
import pytest

from repro.core.params import AEMParams
from repro.engine import ResultCache, SweepEngine
from repro.machine.aem import AEMMachine
from repro.sorting.base import SORTERS
from repro.telemetry import EngineTelemetry, MetricsObserver, MetricsRegistry
from repro.telemetry.bench import (
    BenchCase,
    compare,
    load_point,
    run_suite,
    trajectory_point,
    write_point,
)
from repro.telemetry.manifest import append_record, read_manifest, run_record
from repro.telemetry.metrics import Histogram
from repro.telemetry.observer import NO_PHASE
from repro.workloads.generators import sort_input

P = AEMParams(M=64, B=8, omega=4)


def run_sort(n=500, observers=()):
    atoms = sort_input(n, "uniform", np.random.default_rng(11))
    machine = AEMMachine.for_algorithm(P, observers=list(observers))
    SORTERS["aem_mergesort"](machine, machine.load_input(atoms), P)
    return machine


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(2.5)
        g = reg.gauge("g")
        g.set(7)
        g.inc(-2)
        h = reg.histogram("h")
        for v in (1, 9, 5):
            h.observe(v)
        assert c.labels().value == 3.5
        assert g.labels().value == 5
        assert h.labels().count == 3 and h.labels().sum == 15

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_labels_fan_out(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads", labels=("phase",))
        fam.labels(phase="merge").inc(3)
        fam.labels(phase="scan").inc()
        fam.labels(phase="merge").inc()  # same series again
        by_phase = {labels["phase"]: m.value for labels, m in fam.series()}
        assert by_phase == {"merge": 4, "scan": 1}

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads", labels=("phase",))
        with pytest.raises(ValueError):
            fam.labels(stage="merge")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no solo series

    def test_reregister_must_match(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("a",))
        assert reg.counter("x", labels=("a",)) is reg.get("x")
        with pytest.raises(ValueError):
            reg.gauge("x", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("x", labels=("b",))

    def test_histogram_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0.5) == 51  # nearest rank over 100 values
        assert h.percentile(0) == 1 and h.percentile(1) == 100
        assert h.summary()["p99"] == 99
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_empty_histogram_summary(self):
        s = Histogram().summary()
        assert s == {"count": 0, "sum": 0, "max": 0, "p50": 0, "p90": 0, "p99": 0}

    def test_collect_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c", "help text", labels=("k",)).labels(k="v").inc()
        reg.histogram("h").observe(2)
        out = json.loads(json.dumps(reg.collect()))
        assert out["c"]["kind"] == "counter"
        assert out["c"]["series"] == [{"labels": {"k": "v"}, "value": 1}]
        assert out["h"]["series"][0]["value"]["count"] == 1


class TestPrometheusRender:
    def test_counter_and_gauge_samples(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "Requests served.").labels().inc(3)
        reg.gauge("in_flight").labels().set(2)
        text = reg.render_prometheus()
        assert "# HELP requests_total Requests served." in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "# TYPE in_flight gauge" in text
        assert "in_flight 2" in text
        assert text.endswith("\n")

    def test_labeled_series_render_label_blocks(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("endpoint", "status"))
        fam.labels(endpoint="/evaluate", status="200").inc(5)
        fam.labels(endpoint="/stats", status="200").inc()
        text = reg.render_prometheus()
        assert 'hits{endpoint="/evaluate",status="200"} 5' in text
        assert 'hits{endpoint="/stats",status="200"} 1' in text

    def test_histogram_renders_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", "ms").labels()
        for v in range(1, 101):
            h.observe(v)
        text = reg.render_prometheus()
        assert "# TYPE latency summary" in text
        assert 'latency{quantile="0.5"} 51' in text  # nearest-rank
        assert 'latency{quantile="0.9"} 90' in text
        assert 'latency{quantile="0.99"} 99' in text
        assert "latency_sum 5050" in text
        assert "latency_count 100" in text
        assert "# TYPE latency histogram" not in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("path",))
        fam.labels(path='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert 'c{path="a\\"b\\\\c\\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_integral_floats_render_without_fraction(self):
        reg = MetricsRegistry()
        reg.counter("c").labels().inc(2.0)
        reg.gauge("g").labels().set(2.5)
        text = reg.render_prometheus()
        assert "c 2\n" in text
        assert "g 2.5" in text


class TestMetricsObserver:
    def test_totals_match_machine_counters(self):
        obs = MetricsObserver()
        machine = run_sort(observers=[obs])
        s = obs.summary()
        assert s["reads"] == machine.reads
        assert s["writes"] == machine.writes
        assert s["read_cost"] == machine.reads  # AEM read cost is 1
        assert s["write_cost"] == machine.writes * P.omega
        assert s["reads"] + s["writes"] == machine.core.io_count

    def test_per_phase_split_sums_to_totals(self):
        obs = MetricsObserver()
        machine = run_sort(observers=[obs])
        per_phase = obs.per_phase()
        assert len(per_phase) > 1  # mergesort declares phases
        assert sum(p.get("reads", 0) for p in per_phase.values()) == machine.reads
        assert sum(p.get("writes", 0) for p in per_phase.values()) == machine.writes

    def test_events_outside_phases_use_sentinel(self):
        obs = MetricsObserver()
        machine = AEMMachine(P, observers=[obs])
        machine.acquire(1)
        machine.write_fresh([1])
        with machine.phase("work"):
            machine.acquire(1)
            machine.write_fresh([2])
        per_phase = obs.per_phase()
        assert per_phase[NO_PHASE]["writes"] == 1
        assert per_phase["work"]["writes"] == 1

    def test_wear_histogram_counts_final_block_writes(self):
        obs = MetricsObserver()
        machine = AEMMachine(P, observers=[obs])
        machine.acquire(1)
        a = machine.write_fresh([1])
        machine.acquire(1)
        machine.write(a, [2])
        machine.acquire(1)
        machine.write_fresh([3])
        wear = obs.summary()["wear"]
        assert wear["blocks_written"] == 2
        assert wear["max"] == 2 and wear["sum"] == 3

    def test_rounds_counted(self):
        obs = MetricsObserver()
        machine = AEMMachine(P, observers=[obs])
        machine.acquire(1)
        machine.write_fresh([1])
        machine.round_boundary()
        assert obs.summary()["rounds"] == 1

    def test_attached_observer_does_not_change_costs(self):
        plain = run_sort()
        watched = run_sort(observers=[MetricsObserver()])
        assert (plain.reads, plain.writes, plain.cost) == (
            watched.reads,
            watched.writes,
            watched.cost,
        )

    def test_collect_includes_wear_family(self):
        obs = MetricsObserver()
        run_sort(n=100, observers=[obs])
        out = obs.collect()
        assert "machine_block_writes" in out
        assert "machine_reads_total" in out

    def test_registry_read_directly_is_filled(self):
        """``.registry`` is a readout: the per-phase families and the wear
        histogram are filled without a prior collect() or summary()."""
        obs = MetricsObserver()
        machine = run_sort(n=100, observers=[obs])
        text = obs.registry.render_prometheus()
        assert 'machine_reads_total{phase="' in text
        assert 'machine_block_writes{quantile="' in text
        reads = obs.registry.collect()["machine_reads_total"]
        assert sum(s["value"] for s in reads["series"]) == machine.reads

    @pytest.mark.no_sanitize  # counts exact listeners; sanitizers add theirs
    def test_no_observer_means_no_extra_callbacks(self):
        """Acceptance: with no MetricsObserver attached, the metrics layer
        adds zero per-I/O work to an unobserved run. Under batched
        dispatch that means: no per-event I/O callbacks at all, one batch
        consumer (the CostObserver ledger), and no column recording."""
        machine = AEMMachine(P)
        core = machine.core
        # The always-attached CostObserver consumes batch aggregates only.
        assert len(core._on_batch) == 1
        assert len(core._on_read) == 0 and len(core._on_write) == 0
        assert core._record_columns is False
        obs = MetricsObserver()
        machine.attach(obs)
        core = machine.core
        # MetricsObserver is a second batch consumer (the write_addrs side
        # list, no columns) plus a synchronous round handler; it reads
        # phases from the ledger. Still no per-I/O lists.
        assert len(core._on_batch) == 2
        assert core._record_columns is False
        assert len(core._on_read) == 0 and len(core._on_write) == 0
        assert len(core._on_phase_enter) == 1  # the ledger
        assert len(core._on_round_boundary) == 1
        machine.detach(obs)
        assert len(core._on_batch) == 1
        assert core._record_columns is False
        assert len(core._on_phase_enter) == 1 and len(core._on_round_boundary) == 0

    @pytest.mark.no_sanitize  # inspects exact listener lists
    def test_events_mode_keeps_legacy_callback_lists(self):
        """A ``needs_events`` instance keeps the seed's synchronous
        contract: attach adds exactly the overridden handlers to the
        per-event lists; detach restores them."""
        machine = AEMMachine(P)
        core = machine.core
        baseline = {name: len(getattr(core, "_" + name)) for name in
                    ("on_read", "on_write", "on_touch", "on_phase_enter",
                     "on_phase_exit", "on_round_boundary")}
        obs = MetricsObserver()
        obs.needs_events = True
        machine.attach(obs)
        assert obs.on_batch not in core._on_batch
        grown = {name: len(getattr(machine.core, "_" + name)) for name in baseline}
        # It reads phases from the ledger; it handles writes and rounds.
        overridden = {"on_write", "on_round_boundary"}
        assert grown == {
            name: n + (name in overridden) for name, n in baseline.items()
        }
        machine.detach(obs)
        restored = {name: len(getattr(machine.core, "_" + name)) for name in baseline}
        assert restored == baseline


def tiny_measure(n, scale=1):
    return {"n": n, "value": n * scale}


class TestEngineTelemetry:
    def test_serial_map_records_one_span_per_measurement(self):
        tel = EngineTelemetry()
        engine = SweepEngine(telemetry=tel)
        configs = [{"n": i} for i in range(5)]
        results = engine.map(tiny_measure, configs)
        assert [r["n"] for r in results] == list(range(5))
        assert tel.tasks == 5 and tel.cache_hits == 0
        assert all(s.end >= s.start for s in tel.spans)
        assert [s.label for s in tel.spans] == [
            f"tiny_measure[{i}]" for i in range(5)
        ]

    def test_cache_hits_recorded_as_zero_width(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache, telemetry=EngineTelemetry())
        configs = [{"n": i} for i in range(4)]
        engine.map(tiny_measure, configs)
        warm_tel = EngineTelemetry()
        warm = SweepEngine(cache=cache, telemetry=warm_tel)
        warm.map(tiny_measure, configs)
        assert warm_tel.tasks == 4 and warm_tel.cache_hits == 4
        assert all(s.duration == 0 for s in warm_tel.spans)
        assert warm_tel.summary(jobs=1)["executed"] == 0

    def test_no_telemetry_records_nothing(self):
        engine = SweepEngine()
        assert engine.telemetry is None
        engine.map(tiny_measure, [{"n": 1}])  # must not raise

    def test_summary_and_utilization(self):
        tel = EngineTelemetry()
        t = tel.t0
        tel.record_task("a", t, t + 1.0)
        tel.record_task("b", t + 1.0, t + 2.0)
        assert tel.busy_seconds() == pytest.approx(2.0)
        assert tel.wall_seconds() == pytest.approx(2.0)
        assert tel.utilization(jobs=1) == pytest.approx(1.0)
        assert tel.utilization(jobs=2) == pytest.approx(0.5)
        s = tel.summary(jobs=2)
        assert s["tasks"] == 2 and s["jobs"] == 2

    def test_rejects_backwards_span(self):
        tel = EngineTelemetry()
        with pytest.raises(ValueError):
            tel.record_task("x", 2.0, 1.0)


class TestManifest:
    def test_append_and_read_round_trip(self, tmp_path):
        rec = run_record(
            "sort",
            config={"n": 100, "np_int": np.int64(5)},
            cost={"Q": 12.0, "Qr": 4, "Qw": 2},
            wall_s=0.25,
        )
        path = append_record(tmp_path, rec)
        assert path.name == "manifest.jsonl"
        append_record(tmp_path, run_record("permute", config={"n": 7}))
        records = read_manifest(tmp_path)
        assert [r["command"] for r in records] == ["sort", "permute"]
        assert records[0]["config"]["np_int"] == 5  # numpy coerced
        assert records[0]["cost"]["Qr"] == 4
        assert records[0]["schema"] == 1 and "created" in records[0]

    def test_records_are_one_line_each(self, tmp_path):
        append_record(tmp_path, run_record("x", config={"deep": {"a": [1, 2]}}))
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])

    def test_read_missing_manifest_is_empty(self, tmp_path):
        assert read_manifest(tmp_path / "nowhere") == []

    def test_engine_stats_serialize_via_as_dict(self, tmp_path):
        engine = SweepEngine()
        engine.map(tiny_measure, [{"n": 1}])
        append_record(
            tmp_path, run_record("exp", config={}, extra={"stats": engine.stats})
        )
        rec = read_manifest(tmp_path)[0]
        assert rec["stats"]["executed"] == 1


def fake_point(**walls):
    return {
        "benchmarks": {
            name: {"wall_s": wall, "Q": 100.0, "Qr": 60, "Qw": 5, "T": 40, "peak_mem": 16}
            for name, wall in walls.items()
        }
    }


class TestBenchGate:
    def test_within_threshold_passes(self):
        regressions, warnings = compare(
            fake_point(a=0.11, b=0.09), fake_point(a=0.10, b=0.10), threshold=2.0
        )
        assert regressions == [] and warnings == []

    def test_slowdown_past_threshold_fails(self):
        regressions, _ = compare(
            fake_point(a=0.30), fake_point(a=0.10), threshold=2.0
        )
        assert len(regressions) == 1 and "3.00x" in regressions[0]

    def test_missing_case_is_a_regression(self):
        regressions, _ = compare(
            fake_point(a=0.1), fake_point(a=0.1, gone=0.1), threshold=2.0
        )
        assert any("gone" in r for r in regressions)

    @pytest.mark.parametrize("key", ["Q", "Qr", "Qw", "T", "peak_mem"])
    def test_cost_drift_fails(self, key):
        current = fake_point(a=0.1)
        current["benchmarks"]["a"][key] += 1
        regressions, warnings = compare(current, fake_point(a=0.1), threshold=2.0)
        assert len(regressions) == 1 and f"a: {key} drifted" in regressions[0]
        assert warnings == []

    def test_new_case_warns(self):
        _, warnings = compare(
            fake_point(a=0.1, new=0.1), fake_point(a=0.1), threshold=2.0
        )
        assert any("no baseline yet" in w for w in warnings)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            compare(fake_point(), fake_point(), threshold=0)


class TestBenchSuite:
    def test_custom_suite_point_round_trips(self, tmp_path):
        suite = (BenchCase("tiny/a", lambda: {"Q": 3.0, "Qr": 1, "Qw": 1}),)
        results = run_suite(suite, repeats=1)
        assert results["tiny/a"]["Q"] == 3.0
        assert results["tiny/a"]["wall_s"] >= 0
        point = trajectory_point(results)
        assert point["schema"] == 1 and "version" in point
        path = write_point(tmp_path, point)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        assert load_point(path) == json.loads(json.dumps(point))

    def test_default_suite_names_are_stable(self):
        from repro.telemetry.bench import default_suite

        names = [c.name for c in default_suite()]
        assert names == sorted(set(names), key=names.index)  # unique
        assert any(n.startswith("sort/aem_mergesort") for n in names)
        assert any(n.startswith("permute/") for n in names)
        assert any(n.startswith("spmxv/") for n in names)

    def test_committed_baseline_matches_suite(self):
        """The committed baseline covers exactly the default suite, so
        the gate never silently skips a case."""
        from repro.telemetry.bench import BASELINE_PATH, default_suite

        baseline = load_point(BASELINE_PATH)
        assert set(baseline["benchmarks"]) == {c.name for c in default_suite()}
        for payload in baseline["benchmarks"].values():
            assert payload["wall_s"] > 0
            assert {"Q", "Qr", "Qw"} <= set(payload)

    def test_threshold_env_override(self, monkeypatch):
        from repro.telemetry.bench import THRESHOLD_ENV, default_threshold

        monkeypatch.setenv(THRESHOLD_ENV, "3.75")
        assert default_threshold() == 3.75
        monkeypatch.delenv(THRESHOLD_ENV)
        assert default_threshold() == 2.5
