"""Batched dispatch against its per-event reference, in one run.

The columnar event bus is an optimization, not a semantic change: every
shipped batch consumer must end a run in the state its own per-event
handlers produce, at any flush granularity. Each test attaches every
consumer twice to one machine — once as shipped, and once as a *twin*
with ``needs_events = True`` set on the instance, which keeps it on the
synchronous per-event path with real payloads — and compares each pair
field by field:

* a scripted-op corpus (reads, writes, peeks, acquire/release, touch,
  nested phases, round boundaries, ragged blocks) on full, counting,
  and flash machines across flush sizes, with a legacy per-event
  observer exercising the inherited ``on_batch`` replay;
* sanitizer *violation* parity on a deliberately breaching run.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.flash import FlashMachine
from repro.observe.base import MachineObserver
from repro.observe.cost import CostObserver
from repro.observe.progress import ProgressObserver
from repro.observe.wear import WearMap
from repro.sanitize.capacity import CapacitySanitizer
from repro.sanitize.cost import CostSanitizer
from repro.sanitize.rounds import RoundFormSanitizer
from repro.telemetry.observer import MetricsObserver
from repro.telemetry.perfetto import PerfettoObserver
from repro.telemetry.profile import CostProfiler
from repro.telemetry.spans import SpanContext, SpanPhaseRecorder

P = AEMParams(M=64, B=8, omega=4)

#: Flush granularities to exercise: every event, mid-batch at awkward
#: offsets, and the default (one flush per boundary for this corpus).
FLUSH_SIZES = (1, 3, 512)

SPAN = SpanContext.root()


class EventLog(MachineObserver):
    """Legacy per-event observer: no ``on_batch`` override, so the
    inherited default replays each flushed batch to it and it must still
    see the exact event sequence (payload lengths included) in order."""

    def __init__(self):
        self.records = []

    def on_read(self, addr, items, cost):
        self.records.append(("read", addr, len(items), cost))

    def on_write(self, addr, items, cost):
        self.records.append(("write", addr, len(items), cost))

    def on_acquire(self, k, what):
        self.records.append(("acquire", k, what))

    def on_release(self, k):
        self.records.append(("release", k))

    def on_touch(self, k):
        self.records.append(("touch", k))

    def on_phase_enter(self, name):
        self.records.append(("enter", name))

    def on_phase_exit(self, name):
        self.records.append(("exit", name))

    def on_round_boundary(self, index):
        self.records.append(("round", index))


# ----------------------------------------------------------------------
# The consumers: a factory (given the machine) and a readout of
# everything the observer accumulated, as comparables.
# ----------------------------------------------------------------------
def _cost_sanitizer(machine) -> CostSanitizer:
    if isinstance(machine, FlashMachine):
        return CostSanitizer(read_cost=machine.Br, write_cost=machine.Bw)
    return CostSanitizer()


def _sanitizer_state(s, *fields) -> tuple:
    # ``ok`` first: it finalizes (ledger reconciliation, open rounds).
    return (s.ok, s.events, s.violations) + tuple(getattr(s, f) for f in fields)


def _progress_state(p: ProgressObserver) -> tuple:
    p.close()
    return p.reads, p.writes, p.rounds, p.stream.getvalue()


def _perfetto_state(p: PerfettoObserver) -> str:
    p.close()
    return json.dumps(p.builder.trace(), sort_keys=True)


CONSUMERS = {
    "cost": (
        lambda m: CostObserver(),
        lambda o: (
            o.snapshot(), (o.counter.phases, o.counter.paths()), o.read_cost,
            o.write_cost,
        ),
    ),
    "wear": (lambda m: WearMap(), lambda o: (dict(o.counts), o.histogram())),
    "progress": (
        lambda m: ProgressObserver(io.StringIO(), every=5, live=False),
        _progress_state,
    ),
    "metrics": (lambda m: MetricsObserver(), lambda o: o.collect()),
    "perfetto": (lambda m: PerfettoObserver(), _perfetto_state),
    "spans": (
        lambda m: SpanPhaseRecorder(SPAN),
        lambda o: {k: v for k, v in o.export().items() if k != "wall_start"},
    ),
    "capacity": (
        lambda m: CapacitySanitizer(),
        lambda o: _sanitizer_state(o, "peak"),
    ),
    "cost_sanitizer": (
        _cost_sanitizer,
        lambda o: _sanitizer_state(
            o, "reads", "writes", "touches", "read_cost_total",
            "write_cost_total", "phases",
        ),
    ),
    "rounds": (
        lambda m: RoundFormSanitizer(),
        lambda o: _sanitizer_state(o, "rounds", "max_round_cost"),
    ),
    "log": (lambda m: EventLog(), lambda o: o.records),
}


def attach_pairs(machine) -> dict:
    """Attach each consumer as shipped and as its per-event twin."""
    pairs = {}
    for label, (make, _readout) in CONSUMERS.items():
        batched = machine.attach(make(machine))
        twin = make(machine)
        twin.needs_events = True
        machine.attach(twin)
        pairs[label] = (batched, twin)
    return pairs


def readouts(pairs) -> tuple[dict, dict]:
    """``(batched states, per-event twin states)`` keyed by consumer."""
    batched, twins = {}, {}
    for label, (obs, twin) in pairs.items():
        readout = CONSUMERS[label][1]
        batched[label] = readout(obs)
        twins[label] = readout(twin)
    return batched, twins


def test_twins_really_take_the_per_event_path():
    machine = AEMMachine(P)
    pairs = attach_pairs(machine)
    core = machine.core
    for label, (obs, twin) in pairs.items():
        assert obs.on_batch in core._on_batch, label
        assert twin.on_batch not in core._on_batch, label
        assert any(getattr(twin, name) in getattr(core, "_" + name)
                   for name in ("on_read", "on_write")), label
    assert core._record_columns is True


@pytest.mark.no_sanitize  # the capacity/cost sanitizers read the columns
def test_columns_recorded_only_for_their_readers():
    """The ledger, metrics, wear and progress read batch aggregates and
    ``write_addrs`` only, and the profiler reads the ledger, so the core
    records no columns for them; a column reader attached beside them
    turns recording on, and detaching it turns it off again."""
    machine = AEMMachine(P)  # its own CostObserver is attached
    for obs in (
        CostProfiler(),
        MetricsObserver(),
        WearMap(),
        ProgressObserver(io.StringIO(), live=False),
    ):
        machine.attach(obs)
    core = machine.core
    assert core._record_columns is False
    for reader in (EventLog(),):
        machine.attach(reader)
        assert core._record_columns is True
        machine.detach(reader)
        assert core._record_columns is False


# ----------------------------------------------------------------------
# The scripted-op corpus.
# ----------------------------------------------------------------------
def drive(m) -> None:
    """Every event kind, nested phases, rounds, ragged blocks.

    Writing a block releases the written atoms (they move to external
    memory), so every write is preceded by an acquire of its payload.
    """
    B = P.B
    with m.phase("load"):
        addrs = []
        for i in range(4):
            items = [i * B + j for j in range(B)]
            m.acquire(items, "input")
            addrs.append(m.write_fresh(items))
        m.acquire(1, "input")
        addrs.append(m.write_fresh([999]))  # ragged block
        m.touch(3)
    with m.phase("work"):
        for r in range(2):
            with m.phase(f"round{r}"):
                for a in addrs[:4]:
                    m.release(m.read(a))
                m.acquire(5, "counters")
                m.touch(7)
                m.release(5)
                payload = list(range(r, r + B))
                m.acquire(payload, "staging")
                m.write(addrs[r], payload)
            m.round_boundary()
        m.peek(addrs[1])
        m.touch(0)  # zero-op touch: series-creation parity probe
    m.release(m.read(addrs[4]))


def assert_clean(states: dict) -> None:
    """The scripted corpus breaks no model rule (``ok`` leads each
    sanitizer readout)."""
    for label in ("capacity", "cost_sanitizer", "rounds"):
        assert states[label][0], (label, states[label])


def run_scripted(flush_every=None, *, counting=False, flush=False):
    """``(batched states, twin states, machine state)`` for one run."""
    machine = AEMMachine.for_algorithm(
        P, counting=counting, flush_every=flush_every
    )
    pairs = attach_pairs(machine)
    drive(machine)
    if flush:
        machine.flush()
        machine.flush()
    batched, twins = readouts(pairs)
    state = (machine.snapshot(), machine.core.io_count, machine.core.mem.peak)
    return batched, twins, state


# ----------------------------------------------------------------------
# AEM machines: full and counting, across flush granularities.
# ----------------------------------------------------------------------
class TestScriptedParity:
    @pytest.mark.parametrize("flush_every", FLUSH_SIZES)
    def test_full_machine(self, flush_every):
        batched, twins, _ = run_scripted(flush_every)
        assert batched == twins
        assert_clean(batched)

    @pytest.mark.parametrize("flush_every", FLUSH_SIZES)
    def test_counting_machine(self, flush_every):
        batched, twins, _ = run_scripted(flush_every, counting=True)
        assert batched == twins
        assert_clean(batched)

    def test_counting_batched_matches_full_events(self):
        # The two fast paths composed still reproduce the reference
        # stream: counting+batched vs full+per-event, same observer state.
        _, full_twins, full_state = run_scripted()
        fast, _, fast_state = run_scripted(counting=True)
        assert fast_state == full_state
        assert fast == full_twins

    def test_explicit_flush_is_idempotent(self):
        batched, twins, state = run_scripted(512, flush=True)
        assert batched == twins
        unflushed, _, unflushed_state = run_scripted(512)
        assert (batched, state) == (unflushed, unflushed_state)


# ----------------------------------------------------------------------
# Flash machines: volume-based costs through the same bus.
# ----------------------------------------------------------------------
class TestFlashParity:
    @staticmethod
    def drive_flash(fm) -> None:
        with fm.core.phase("load"):
            addrs = [
                fm.write_fresh([i * fm.Bw + j for j in range(fm.Bw)])
                for i in range(3)
            ]
        with fm.core.phase("reads"):
            for a in addrs:
                for j in range(fm.reads_per_write_block):
                    fm.read_small(a, j)
            fm.read_covering(addrs[0], 1, fm.Bw - 1)
        fm.write_block(addrs[2], [7, 8, 9])

    @pytest.mark.parametrize("flush_every", FLUSH_SIZES)
    @pytest.mark.parametrize("counting", [False, True])
    def test_flash_machine(self, flush_every, counting):
        fm = FlashMachine(
            M=64, Br=2, Bw=8, counting=counting, flush_every=flush_every
        )
        pairs = attach_pairs(fm)
        self.drive_flash(fm)
        batched, twins = readouts(pairs)
        assert batched == twins
        assert batched["cost_sanitizer"][0]
        assert batched["cost"][2:] == (fm.read_volume, fm.write_volume)


# ----------------------------------------------------------------------
# Violation parity: a breaching run reports the same verdicts either way.
# ----------------------------------------------------------------------
class TestViolationParity:
    @pytest.mark.parametrize("flush_every", FLUSH_SIZES)
    def test_capacity_breaches_identical(self, flush_every):
        machine = AEMMachine(P, enforce_capacity=False, flush_every=flush_every)
        cap = machine.attach(CapacitySanitizer())
        twin = CapacitySanitizer()
        twin.needs_events = True
        machine.attach(twin)
        addrs = []
        for i in range(2 * (P.M // P.B)):
            items = list(range(i, i + P.B))
            machine.acquire(items, "input")
            addrs.append(machine.write_fresh(items))
        for a in addrs:  # read everything, release nothing: occupancy 2M
            machine.read(a)
        assert cap.violations == twin.violations
        assert cap.violations  # the probe does breach
        assert all(v.rule == "CAPACITY" for v in cap.violations)
