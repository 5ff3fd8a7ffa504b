"""The instrumentation bus: MachineCore dispatch and the shipped observers.

Pins the refactor's contract: event ordering matches execution order, the
TraceRecorder observer's ops match the machine's counters, WearMap totals
equal the cost counters, the flash machine emits through the same bus,
and a run with no extra observers costs exactly what the seed's
hard-wired counters reported.
"""

import io

import pytest

from repro.core.params import AEMParams
from repro.api.measures import measure_sort
from repro.machine.aem import AEMMachine
from repro.machine.core import MachineCore
from repro.machine.flash import FlashMachine
from repro.observe import (
    CostObserver,
    MachineObserver,
    ProgressObserver,
    TraceRecorder,
    WearMap,
)
from repro.sorting.base import SORTERS
from repro.trace.ops import ReadOp, WriteOp
from repro.workloads.generators import sort_input

P = AEMParams(M=64, B=8, omega=4)

# The pinned golden instance of test_golden_costs.py: aem_mergesort,
# N=2000 uniform keys, seed 42 on (M=64, B=8, omega=4).
GOLDEN_QR, GOLDEN_QW = 4848, 613


class EventLog(MachineObserver):
    """Record every event as a (name, payload) tuple, in order."""

    def __init__(self):
        self.events = []

    def on_read(self, addr, items, cost):
        self.events.append(("read", addr, len(items), cost))

    def on_write(self, addr, items, cost):
        self.events.append(("write", addr, len(items), cost))

    def on_acquire(self, k, what):
        self.events.append(("acquire", k, what))

    def on_release(self, k):
        self.events.append(("release", k))

    def on_touch(self, k):
        self.events.append(("touch", k))

    def on_phase_enter(self, name):
        self.events.append(("phase_enter", name))

    def on_phase_exit(self, name):
        self.events.append(("phase_exit", name))

    def on_round_boundary(self, index):
        self.events.append(("round", index))


def _sort_machine(**kwargs) -> tuple[AEMMachine, list]:
    atoms = sort_input(200, "uniform", __import__("numpy").random.default_rng(7))
    machine = AEMMachine.for_algorithm(P, **kwargs)
    addrs = machine.load_input(atoms)
    return machine, addrs


class TestDispatch:
    def test_event_ordering_follows_execution(self):
        log = EventLog()
        machine = AEMMachine(P, observers=[log])
        addrs = machine.load_input(range(8))  # placement emits nothing
        assert log.events == []
        with machine.phase("work"):
            items = machine.read(addrs[0])
            machine.touch(3)
            out = machine.allocate_one()
            machine.write(out, items)
        machine.acquire(2, "sums")
        machine.release(2)
        drained = machine.round_boundary()
        assert drained == 0
        assert log.events == [
            ("phase_enter", "work"),
            ("read", addrs[0], 8, 1),
            ("touch", 3),
            ("write", out, 8, P.omega),
            ("phase_exit", "work"),
            ("acquire", 2, "sums"),
            ("release", 2),
            ("round", 2),  # index = I/O count at the boundary
        ]

    def test_only_overridden_handlers_are_dispatched(self):
        class WritesOnly(MachineObserver):
            def __init__(self):
                self.writes = 0

            def on_write(self, addr, items, cost):
                self.writes += 1

        # Per-event delivery: only the overridden handler lands in a
        # per-event callback list, and it fires synchronously.
        obs = WritesOnly()
        obs.needs_events = True
        machine = AEMMachine(P, observers=[obs])
        core = machine.core
        assert obs.on_write in getattr(core, "_on_write")
        assert all(obs.on_read is not cb for cb in getattr(core, "_on_read"))
        machine.acquire(2)
        addr = machine.write_fresh([1, 2])
        machine.release(machine.read(addr))
        assert obs.writes == 1

    def test_legacy_observer_replayed_in_batched_mode(self):
        class WritesOnly(MachineObserver):
            def __init__(self):
                self.writes = 0

            def on_write(self, addr, items, cost):
                self.writes += 1

        obs = WritesOnly()
        machine = AEMMachine(P, observers=[obs])
        core = machine.core
        # A legacy observer is a batch consumer through the inherited
        # on_batch, which replays the columns to its handlers at flush
        # boundaries; it is on none of the per-event lists.
        assert obs.on_batch in core._on_batch
        assert core._record_columns is True
        assert all(obs.on_write != cb for cb in getattr(core, "_on_write"))
        machine.acquire(2)
        addr = machine.write_fresh([1, 2])
        machine.release(machine.read(addr))
        machine.flush()
        assert obs.writes == 1

    def test_attach_detach(self):
        machine = AEMMachine(P)
        wear = machine.attach(WearMap())
        machine.acquire(1)
        a = machine.write_fresh([1])
        machine.detach(wear)
        machine.read(a)
        machine.write(a, [2])
        assert wear.total_writes == 1  # only the write seen while attached
        assert wear not in machine.observers

    def test_double_attach_rejected(self):
        machine = AEMMachine(P)
        wear = machine.attach(WearMap())
        with pytest.raises(ValueError):
            machine.attach(wear)

    def test_on_attach_hook_receives_core(self):
        seen = []

        class Hooked(MachineObserver):
            def on_attach(self, core):
                seen.append(core)

        machine = AEMMachine(P, observers=[Hooked()])
        assert seen == [machine.core]

    def test_round_boundary_drains_memory(self):
        machine, addrs = _sort_machine()
        machine.read(addrs[0])
        assert machine.mem.occupancy > 0
        drained = machine.round_boundary()
        assert drained == 8
        assert machine.mem.occupancy == 0


class TestTraceRecorderEquivalence:
    def test_ops_match_machine_counters(self):
        rec = TraceRecorder()
        machine, addrs = _sort_machine(observers=[rec])
        SORTERS["aem_mergesort"](machine, addrs, P)
        assert sum(1 for op in rec.ops if op.is_read) == machine.reads
        assert sum(1 for op in rec.ops if not op.is_read) == machine.writes

    def test_trace_property_without_recorder_is_empty(self):
        machine = AEMMachine(P)
        assert machine.trace == [] and machine.recorder is None

    def test_round_boundaries_recorded_as_op_indices(self):
        rec = TraceRecorder()
        machine = AEMMachine(P, observers=[rec])
        machine.acquire(2)
        a = machine.write_fresh([1, 2])
        machine.round_boundary()
        machine.release(machine.read(a))
        machine.round_boundary()
        assert rec.round_boundaries == [1, 2]


class TestWearMap:
    def test_totals_equal_cost_snapshot_writes(self):
        wear = WearMap()
        machine, addrs = _sort_machine(observers=[wear])
        SORTERS["aem_mergesort"](machine, addrs, P)
        snap = machine.snapshot()
        assert wear.total_writes == snap.writes
        assert wear.stats().total_writes == machine.disk.wear().total_writes

    def test_histogram_and_hottest(self):
        wear = WearMap()
        machine = AEMMachine(P, observers=[wear])
        machine.acquire(1)
        a = machine.write_fresh([1])
        machine.read(a)
        machine.write(a, [2])
        machine.acquire(1)
        b = machine.write_fresh([3])
        assert wear.counts == {a: 2, b: 1}
        assert wear.hottest == a and wear.max_writes == 2
        assert wear.histogram() == {1: 1, 2: 1}
        wear.clear()
        assert wear.total_writes == 0 and wear.hottest is None


class TestCostObserver:
    def test_no_observer_run_matches_seed_golden_costs(self):
        """Acceptance: a plain measure_sort reports the exact pre-refactor
        (Qr, Qw, Q) — the pinned golden constants."""
        rec = measure_sort("aem_mergesort", 2000, P, seed=42)
        assert (rec["Qr"], rec["Qw"]) == (GOLDEN_QR, GOLDEN_QW)
        assert rec["Q"] == GOLDEN_QR + P.omega * GOLDEN_QW

    def test_extra_observers_do_not_change_costs(self):
        plain = measure_sort("aem_mergesort", 2000, P, seed=42)
        watched = measure_sort(
            "aem_mergesort",
            2000,
            P,
            seed=42,
            observers=[TraceRecorder(), WearMap(), EventLog()],
        )
        assert plain == watched

    def test_aem_read_write_costs(self):
        machine = AEMMachine(P)
        machine.acquire(2)
        a = machine.write_fresh([1, 2])
        machine.release(machine.read(a))
        cost = machine._cost
        assert cost.read_cost == 1 and cost.write_cost == P.omega
        assert cost.total_cost == 1 + P.omega


class TestFlashEvents:
    def test_flash_emits_through_the_same_bus(self):
        """Acceptance: FlashMachine drives the shared event stream."""
        log = EventLog()
        rec = TraceRecorder()
        fm = FlashMachine(M=64, Br=2, Bw=8, observers=[log, rec])
        addr = fm.write_fresh(list(range(8)))
        fm.read_small(addr, 1)
        fm.read_covering(addr, 3, 7)
        fm.flush()  # EventLog is a replayed (batch-buffered) consumer
        assert log.events[0] == ("write", addr, 8, 8)  # cost = Bw volume
        assert all(e[3] == 2 for e in log.events[1:])  # cost = Br volume
        # one explicit small read + three covering [3, 7) at Br=2
        assert [type(op) for op in rec.ops] == [WriteOp, ReadOp, ReadOp, ReadOp, ReadOp]
        assert fm.volume == 8 + 4 * 2
        assert fm.read_ops == 4 and fm.write_ops == 1

    def test_flash_volume_accounting_unchanged(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        fm.read_small(addr, 0)
        assert (fm.read_volume, fm.write_volume) == (2, 8)
        fm.read_volume = 0  # tests historically zero these in-place
        fm.read_ops = 0
        assert fm.read_volume == 0 and fm.read_ops == 0 and fm.volume == 8

    def test_wear_map_on_flash(self):
        wear = WearMap()
        fm = FlashMachine(M=64, Br=2, Bw=8, observers=[wear])
        addr = fm.write_fresh(list(range(8)))
        fm.write_block(addr, list(range(8)))
        assert wear.counts == {addr: 2}


class TestProgressObserver:
    def test_renders_counts_and_phase(self):
        buf = io.StringIO()
        prog = ProgressObserver(buf, every=1, label="run", live=True)
        machine = AEMMachine(P, observers=[prog])
        with machine.phase("scan"):
            machine.acquire(2)
            a = machine.write_fresh([1, 2])
            machine.release(machine.read(a))
        prog.close()
        out = buf.getvalue()
        assert "[run]" in out and "Qr=1" in out and "Qw=1" in out
        assert "phase=scan" in out
        assert out.endswith("\n")

    def test_rate_limiting(self):
        buf = io.StringIO()
        prog = ProgressObserver(buf, every=1000, live=True)
        machine = AEMMachine(P, observers=[prog])
        machine.acquire(1)
        a = machine.write_fresh([1])
        machine.release(machine.read(a))
        assert buf.getvalue() == ""  # below the render threshold

    def test_rejects_bad_every(self):
        with pytest.raises(ValueError):
            ProgressObserver(io.StringIO(), every=0)

    def test_non_tty_stream_suppresses_frames(self, monkeypatch):
        """A piped stream gets exactly one line, from close()."""
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        buf = io.StringIO()  # not a TTY
        prog = ProgressObserver(buf, every=1, label="run")
        assert prog.live is False
        machine = AEMMachine(P, observers=[prog])
        with machine.phase("scan"):
            machine.acquire(2)
            a = machine.write_fresh([1, 2])
            machine.release(machine.read(a))
        assert buf.getvalue() == ""  # no \r frames while running
        prog.close()
        out = buf.getvalue()
        # One final line, no \r; the visited (not current) phases.
        assert out == "[run] Qr=1 Qw=1 phase=- phases=scan\n"
        assert prog.reads == 1 and prog.writes == 1  # counting continued

    def test_nested_phases_render_full_paths(self):
        """Regression: inner phases used to overwrite the outer name."""
        buf = io.StringIO()
        prog = ProgressObserver(buf, every=1, label="run", live=True)
        machine = AEMMachine(P, observers=[prog])
        with machine.phase("sort"):
            with machine.phase("merge"):
                machine.acquire(2)
                a = machine.write_fresh([1, 2])
                machine.release(machine.read(a))
            machine.flush()
            assert machine.counter.path == ("sort",)
        assert "phase=sort/merge" in buf.getvalue()
        prog.close()
        assert "phases=sort,sort/merge" in buf.getvalue()

    def test_attached_inside_an_open_phase(self):
        """The ledger already knows the open path, so a late observer
        renders it, and closing after the phase exits is clean."""
        buf = io.StringIO()
        machine = AEMMachine(P)
        with machine.phase("sort"):
            prog = machine.attach(ProgressObserver(buf, every=1, live=True))
            with machine.phase("merge"):
                machine.acquire(2)
                a = machine.write_fresh([1, 2])
                machine.release(machine.read(a))
        prog.close()
        frames = buf.getvalue().split("\r")
        assert any("phase=sort/merge" in f for f in frames)
        assert frames[-1].rstrip() == "Qr=1 Qw=1 phase=- phases=sort,sort/merge"

    def test_env_forces_live_frames(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        buf = io.StringIO()
        prog = ProgressObserver(buf, every=1)
        assert prog.live is True
        machine = AEMMachine(P, observers=[prog])
        machine.acquire(1)
        a = machine.write_fresh([1])
        machine.release(machine.read(a))
        machine.flush()  # deliver buffered I/O events to the observer
        assert "\r" in buf.getvalue()  # frames rendered despite non-TTY

    def test_explicit_live_beats_autodetect(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        prog = ProgressObserver(io.StringIO(), live=False)
        assert prog.live is False


class TestHandlerNameValidation:
    def test_typoed_handler_rejected_at_attach(self):
        """Regression: a misspelled override fails loudly, not silently."""

        class Typo(MachineObserver):
            def on_raed(self, addr, items, cost):  # sic
                pass

        with pytest.raises(ValueError, match="on_raed"):
            AEMMachine(P, observers=[Typo()])

    def test_typo_in_base_class_also_rejected(self):
        class BadBase(MachineObserver):
            def on_rite(self, addr, items, cost):  # sic
                pass

        class Derived(BadBase):
            def on_read(self, addr, items, cost):
                pass

        machine = AEMMachine(P)
        with pytest.raises(ValueError, match="on_rite"):
            machine.attach(Derived())

    def test_lifecycle_hooks_allowed(self):
        class Hooked(MachineObserver):
            def on_attach(self, core):
                pass

            def on_detach(self, core):
                pass

        AEMMachine(P, observers=[Hooked()])  # must not raise

    def test_non_event_helpers_allowed(self):
        class Helper(MachineObserver):
            def summarize(self):
                return {}

            def _on_private(self):
                pass

        AEMMachine(P, observers=[Helper()])  # must not raise


class TestMachineCore:
    def test_standalone_core(self):
        from repro.machine.blockstore import BlockStore
        from repro.machine.internal import InternalMemory

        log = EventLog()
        core = MachineCore(BlockStore(4), InternalMemory(16), observers=[log])
        addr = core.disk.allocate_one()
        core.write_block(addr, [1, 2], 3.0, release=False)
        got = core.read_block(addr, 1.0)
        assert got == [1, 2]
        assert core.io_count == 2
        core.flush_events()  # the log observer is replayed at flush
        assert [e[0] for e in log.events] == ["write", "read"]

    def test_import_order_observe_first(self):
        """repro.observe must be importable before repro.machine."""
        import subprocess
        import sys

        code = "import repro.observe, repro.machine; print('ok')"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0 and out.stdout.strip() == "ok"


class TestMachineLifetime:
    """Observers hold their core weakly: a finished machine goes with its
    last reference, and what it still buffered reaches its observers."""

    # The global sanitizers are the referee and hold their core strongly.
    pytestmark = pytest.mark.no_sanitize

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    def test_core_freed_without_gc_after_sort(self, counting):
        import gc
        import weakref

        import numpy as np

        gc.disable()
        try:
            m = AEMMachine.for_algorithm(P, counting=counting)
            wear = m.attach(WearMap())
            atoms = sort_input(300, "uniform", np.random.default_rng(3))
            out = SORTERS["aem_mergesort"](m, m.load_input(atoms), P)
            assert len(m.collect_output(out)) == 300
            core = weakref.ref(m.core)
            del m
            assert core() is None, "the core outlived its machine"
        finally:
            gc.enable()
        assert wear.total_writes > 0

    def test_observers_outliving_machine_read_every_event(self):
        from repro.telemetry import MetricsObserver

        m = AEMMachine(P)
        cost, wear, metrics = CostObserver(omega=P.omega), WearMap(), MetricsObserver()
        for obs in (cost, wear, metrics):
            m.attach(obs)
        addrs = m.load_input(range(24))
        for a in addrs:
            m.read(a)
        m.write(addrs[0], [0] * P.B)
        m.touch(5)
        assert m.core.batch.n > 0, "the events must still be buffered"
        del m
        assert (cost.reads, cost.writes, cost.counter.touches) == (3, 1, 5)
        assert wear.counts == {addrs[0]: 1}
        (phase,) = metrics.per_phase().values()
        assert (phase["reads"], phase["writes"], phase["touches"]) == (3, 1, 5)

    def test_readouts_see_the_last_events_of_a_core_freed_in_a_cycle(self):
        """The cyclic collector clears weak references before it runs
        ``MachineCore.__del__``, whose flush still reaches the readouts."""
        import gc

        from repro.telemetry import CostProfiler, MetricsObserver

        gc.disable()
        try:
            m = AEMMachine(P)
            prof, metrics = m.attach(CostProfiler()), m.attach(MetricsObserver())
            for a in m.load_input(range(24)):
                m.release(m.read(a))
            m.touch(5)
            assert m.core.batch.n > 0, "the events must still be buffered"
            m.core.cycle = m.core  # only the cyclic collector can free it
            del m
            gc.collect()
        finally:
            gc.enable()
        assert (prof.ledger().Qr, prof.ledger().T) == (3, 5)
        assert prof.conservation_errors() == []
        assert metrics.per_phase() == {
            "-": {"reads": 3, "read_cost": 3.0, "touches": 5}
        }

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    def test_core_with_profiler_freed_without_gc(self, counting):
        import gc
        import weakref

        import numpy as np

        from repro.telemetry import CostProfiler

        prof = CostProfiler(root="sort")
        gc.disable()
        try:
            m = AEMMachine.for_algorithm(P, counting=counting, observers=[prof])
            atoms = sort_input(300, "uniform", np.random.default_rng(3))
            SORTERS["aem_mergesort"](m, m.load_input(atoms), P)
            snap, peak = m.snapshot(), m.mem.peak
            m.touch(5)
            assert m.core.batch.n > 0, "the touch must still be buffered"
            core = weakref.ref(m.core)
            del m
            assert core() is None, "the profiler kept the core alive"
        finally:
            gc.enable()
        ledger = prof.ledger()
        assert (ledger.Q, ledger.Qr, ledger.Qw, ledger.T, ledger.peak_mem) == (
            snap.Q, snap.reads, snap.writes, snap.touches + 5, peak
        )
        assert prof.conservation_errors() == []
