"""The telemetry layer: metrics registry, machine/engine observers and
run manifests.

The load-bearing guarantees pinned here:

* attaching a :class:`MetricsObserver` is the only way its aggregation
  costs anything — a machine without one keeps its per-event callback
  lists exactly as short as before (the acceptance criterion for the
  empty-callback-list fast path);
* the observer's totals agree with the machine's own exact counters, so
  the manifest never disagrees with the CostRecord next to it;
* the engine's duck-typed ``telemetry`` hook records one span per
  measurement, cache hits as zero-width spans.
"""

import json

import numpy as np
import pytest

from repro.core.params import AEMParams
from repro.engine import ResultCache, SweepEngine
from repro.machine.aem import AEMMachine
from repro.sorting.base import SORTERS
from repro.telemetry import EngineTelemetry, MetricsObserver, MetricsRegistry
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
        adds zero per-I/O work to an unobserved run. The core charges its
        own ledger, so a default machine has no callbacks at all and
        never buffers; the observer adds exactly its overridden
        handlers, and detaching it takes them away again."""
        machine = AEMMachine(P)
        core = machine.core
        lists = ("on_read", "on_write", "on_touch", "on_phase_enter",
                 "on_phase_exit", "on_round_boundary")
        assert core._on_batch == [] and core._buffering is False
        assert all(not getattr(core, "_" + name) for name in lists)
        obs = MetricsObserver()
        machine.attach(obs)
        # It reads reads, costs, touches and phases from the ledger; it
        # counts per-block writes and rounds itself, once per event.
        assert {name: len(getattr(core, "_" + name)) for name in lists} == {
            name: int(name in ("on_write", "on_round_boundary")) for name in lists
        }
        assert core._on_batch == [] and core._buffering is False
        machine.detach(obs)
        assert all(not getattr(core, "_" + name) for name in lists)


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

