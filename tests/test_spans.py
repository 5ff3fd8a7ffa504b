"""End-to-end trace propagation (`repro.telemetry.spans`).

Covers the span-context identity type, the ambient propagation
machinery, automatic machine-segment recording via the machine-core
factory hook, engine-level propagation (serial and pool paths), the
Perfetto flow-event plumbing (``s``/``t``/``f``) with
:func:`validate_trace`'s flow-integrity checks, and the full serve
chain: one HTTP query → one flow-linked ``trace.json``.
"""

import json
import pickle

import pytest

from repro.api.measures import measure_sort
from repro.core.params import AEMParams
from repro.engine import SweepEngine
from repro.machine.aem import AEMMachine
from repro.machine.blockstore import BlockStore
from repro.machine.core import MachineCore
from repro.machine.internal import InternalMemory
from repro.telemetry import validate_trace
from repro.telemetry.perfetto import ChromeTraceBuilder
from repro.telemetry.spans import (
    FLOW_CAT,
    FLOW_NAME,
    SpanCollector,
    SpanContext,
    SpanPhaseRecorder,
    current_collector,
    current_span,
    render_machine_segments,
    set_collector,
    use_collector,
    use_span,
)

P = AEMParams(M=64, B=8, omega=4)


class TestSpanContext:
    def test_root_mints_fresh_ids(self):
        a, b = SpanContext.root(), SpanContext.root()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id
        assert a.parent_id is None
        assert a.flow_id == a.trace_id

    def test_child_shares_trace_and_parents_to_self(self):
        root = SpanContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        grandchild = child.child()
        assert grandchild.parent_id == child.span_id
        assert grandchild.trace_id == root.trace_id

    def test_dict_round_trip(self):
        span = SpanContext.root().child()
        assert SpanContext.from_dict(span.as_dict()) == span
        assert span.as_dict() == {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }

    def test_pickle_round_trip(self):
        span = SpanContext.root().child()
        assert pickle.loads(pickle.dumps(span)) == span


class TestAmbientPropagation:
    def test_use_span_nests_and_restores(self):
        assert current_span() is None
        outer, inner = SpanContext.root(), SpanContext.root()
        with use_span(outer):
            assert current_span() is outer
            with use_span(inner):
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_use_span_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_span(SpanContext.root()):
                raise RuntimeError("boom")
        assert current_span() is None

    def test_use_collector_nests_and_restores(self):
        assert current_collector() is None
        a, b = SpanCollector(), SpanCollector()
        with use_collector(a):
            assert current_collector() is a
            with use_collector(b):
                assert current_collector() is b
            assert current_collector() is a
        assert current_collector() is None

    def test_set_collector_returns_previous(self):
        a, b = SpanCollector(), SpanCollector()
        assert set_collector(a) is None
        assert set_collector(b) is a
        assert set_collector(None) is b
        assert current_collector() is None


class TestMachineAutoRecording:
    def test_machine_records_segment_inside_active_trace(self):
        span = SpanContext.root()
        collector = SpanCollector()
        with use_span(span), use_collector(collector):
            rec = measure_sort("aem_mergesort", 256, P)
        segments = collector.export()
        assert len(segments) >= 1
        seg = segments[0]
        assert seg["span"]["trace_id"] == span.trace_id
        assert sum(s["reads"] for s in segments) == rec["Qr"]
        assert sum(s["writes"] for s in segments) == rec["Qw"]
        # The phase timeline is balanced and tick-ordered.
        for seg in segments:
            depth, last_tick = 0, 0
            for kind, name, tick in seg["timeline"]:
                assert tick >= last_tick
                assert tick <= seg["io"]
                last_tick = tick
                depth += 1 if kind == "B" else -1
                assert depth >= 0
            assert depth == 0

    def test_machine_outside_trace_records_nothing(self):
        collector = SpanCollector()
        with use_collector(collector):  # collector but no span
            m = AEMMachine(P)
        assert not any(isinstance(o, SpanPhaseRecorder) for o in m.observers)
        assert len(collector) == 0

    def test_segments_pickle_across_process_boundary(self):
        span = SpanContext.root()
        collector = SpanCollector()
        with use_span(span), use_collector(collector):
            measure_sort("aem_mergesort", 128, P)
        shipped = pickle.loads(pickle.dumps(collector.export()))
        absorbed = SpanCollector()
        absorbed.extend(shipped)
        assert absorbed.export() == collector.export()


class TestEnginePropagation:
    def test_serial_map_ships_segments_to_ambient_collector(self):
        engine = SweepEngine()
        roots = [SpanContext.root(), SpanContext.root()]
        collector = SpanCollector()
        with use_collector(collector):
            engine.map(
                measure_sort,
                [{"sorter": "aem_mergesort", "N": 128, "params": P},
                 {"sorter": "em_mergesort", "N": 128, "params": P}],
                spans=roots,
            )
        segments = collector.export()
        traces = {seg["span"]["trace_id"] for seg in segments}
        assert traces == {r.trace_id for r in roots}
        # Each machine ran under a *child* of its request root.
        for seg in segments:
            root = next(r for r in roots if r.trace_id == seg["span"]["trace_id"])
            assert seg["span"]["parent_id"] == root.span_id

    def test_pool_map_ships_segments_back_from_workers(self):
        engine = SweepEngine(jobs=2)
        try:
            roots = [SpanContext.root(), SpanContext.root()]
            collector = SpanCollector()
            with use_collector(collector):
                results = engine.map(
                    measure_sort,
                    [{"sorter": "aem_mergesort", "N": 128, "params": P},
                     {"sorter": "em_mergesort", "N": 128, "params": P}],
                    spans=roots,
                )
            segments = collector.export()
            assert {seg["span"]["trace_id"] for seg in segments} == {
                r.trace_id for r in roots
            }
            assert sum(seg["reads"] for seg in segments) == sum(
                r["Qr"] for r in results
            )
        finally:
            engine.close()

    def test_spans_length_mismatch_rejected(self):
        from repro import api

        with pytest.raises(ValueError):
            api.sweep(
                [{"workload": "sort", "n": 64, "M": 64, "B": 8, "omega": 4}],
                spans=[],
            )


class TestFlowEvents:
    def test_flow_event_shapes(self):
        b = ChromeTraceBuilder()
        s = b.flow_start("query", 10.0, id="t1", pid=3, tid=1, cat="flow")
        t = b.flow_step("query", 20.0, id="t1", pid=2, tid=1, cat="flow")
        f = b.flow_end("query", 30.0, id="t1", pid=1, tid=1, cat="flow")
        assert (s["ph"], t["ph"], f["ph"]) == ("s", "t", "f")
        assert {e["id"] for e in (s, t, f)} == {"t1"}
        assert "bp" not in s and "bp" not in t
        assert f["bp"] == "e"  # terminate on the *enclosing* slice

    def _trace_with_chain(self, *, phases=("s", "t", "f")):
        b = ChromeTraceBuilder()
        for pid, (start, end) in ((3, (0, 100)), (2, (10, 90)), (1, (20, 80))):
            b.begin("work", start, pid=pid, tid=1)
            b.end("work", end, pid=pid, tid=1)
        if "s" in phases:
            b.flow_start(FLOW_NAME, 5.0, id="x", pid=3, tid=1, cat=FLOW_CAT)
        if "t" in phases:
            b.flow_step(FLOW_NAME, 15.0, id="x", pid=2, tid=1, cat=FLOW_CAT)
        if "f" in phases:
            b.flow_end(FLOW_NAME, 25.0, id="x", pid=1, tid=1, cat=FLOW_CAT)
        return b

    def test_validate_accepts_complete_chain(self):
        validate_trace(self._trace_with_chain().trace())

    def test_validate_rejects_chain_without_start(self):
        with pytest.raises(ValueError, match="'s' events"):
            validate_trace(self._trace_with_chain(phases=("t", "f")).trace())

    def test_validate_rejects_duplicate_start(self):
        b = self._trace_with_chain()
        b.flow_start(FLOW_NAME, 50.0, id="x", pid=3, tid=1, cat=FLOW_CAT)
        with pytest.raises(ValueError, match="'s' events"):
            validate_trace(b.trace())

    def test_validate_rejects_flow_off_slice(self):
        b = self._trace_with_chain()
        # A step at ts=95 on pid 2 lands after its only slice [10, 90].
        b.flow_step(FLOW_NAME, 95.0, id="x", pid=2, tid=1, cat=FLOW_CAT)
        with pytest.raises(ValueError, match="lands on no slice"):
            validate_trace(b.trace())

    def test_validate_rejects_events_after_termination(self):
        b = self._trace_with_chain()
        b.flow_step(FLOW_NAME, 50.0, id="x", pid=2, tid=1, cat=FLOW_CAT)
        with pytest.raises(ValueError, match="continues past"):
            validate_trace(b.trace())


class TestRenderMachineSegments:
    def _segment(self, span):
        core = MachineCore(BlockStore(8), InternalMemory(16), omega=4)
        recorder = core.attach(SpanPhaseRecorder(span))
        (addr,) = core.disk.load_items([1])
        with core.phase("sort"):
            core.release(core.read_block(addr, 1.0))
            with core.phase("merge"):
                core.acquire(1)
                core.write_block(addr, [2], 4.0)
        seg = recorder.export()
        assert seg["timeline"] == [
            ("B", "sort", 0), ("B", "merge", 1), ("E", "merge", 2), ("E", "sort", 2)
        ]
        return seg

    def test_segments_render_as_validated_lanes(self):
        span = SpanContext.root()
        b = ChromeTraceBuilder()
        seg = self._segment(span)
        render_machine_segments(b, [seg], t0=seg["wall_start"])
        trace = b.trace()
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "B"]
        assert names == ["machine run", "sort", "merge"]
        flows = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(flows) == 1
        assert flows[0]["id"] == span.flow_id
        root = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "B" and e["name"] == "machine run"
        )
        assert root["args"]["trace_id"] == span.trace_id
        assert root["args"]["Qr"] == 1 and root["args"]["Qw"] == 1

    def test_flow_false_renders_no_flow_events(self):
        seg = self._segment(SpanContext.root())
        b = ChromeTraceBuilder()
        render_machine_segments(b, [seg], t0=seg["wall_start"], flow=False)
        assert not [e for e in b.trace()["traceEvents"] if e["ph"] == "f"]

    def test_each_segment_gets_its_own_lane(self):
        segs = [self._segment(SpanContext.root()) for _ in range(3)]
        b = ChromeTraceBuilder()
        render_machine_segments(b, segs, t0=min(s["wall_start"] for s in segs))
        lanes = {
            e["tid"] for e in b.trace()["traceEvents"]
            if e["ph"] == "B" and e["name"] == "machine run"
        }
        assert lanes == {1, 2, 3}


class TestServeFlowChain:
    """One served query → one flow-linked, validated trace.json."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serve import ServeConfig
        from repro.serve.testing import ServerThread

        tmp = tmp_path_factory.mktemp("telemetry")
        with ServerThread(
            ServeConfig(port=0, counting=True, cache=False,
                        telemetry_dir=str(tmp))
        ) as srv:
            resp = srv.post(
                "/evaluate",
                {"workload": "sort", "n": 256, "M": 64, "B": 8, "omega": 4},
            )
        trace = json.loads((tmp / "trace.json").read_text())
        manifest = [
            json.loads(line)
            for line in (tmp / "manifest.jsonl").read_text().splitlines()
        ]
        return resp, trace, manifest

    def test_response_carries_span(self, served):
        resp, _, _ = served
        assert resp.status == 200
        span = resp.json()["span"]
        assert set(span) == {"trace_id", "span_id", "parent_id"}
        assert span["parent_id"] is None  # the request is the trace root

    def test_trace_validates_with_full_flow_chain(self, served):
        resp, trace, _ = served
        validate_trace(trace)
        flow_id = resp.json()["span"]["trace_id"]
        chain = [
            e for e in trace["traceEvents"]
            if e["ph"] in ("s", "t", "f") and e["id"] == flow_id
        ]
        assert [e["ph"] for e in chain] == ["s", "t", "f"]
        # One hop per layer: request lane (3) → engine (2) → machine (1).
        assert [e["pid"] for e in chain] == [3, 2, 1]
        assert all(e["name"] == FLOW_NAME and e["cat"] == FLOW_CAT
                   for e in chain)

    def test_manifest_records_trace_ids(self, served):
        resp, _, manifest = served
        record = next(r for r in manifest if r["command"] == "serve")
        traces = record["traces"]
        assert traces["count"] == 1
        assert traces["trace_ids"] == [resp.json()["span"]["trace_id"]]
