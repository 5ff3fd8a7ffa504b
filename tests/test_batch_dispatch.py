"""The event bus's one delivery rule, checked on a scripted corpus.

An observer's overridden handlers are called once per event, unless it
overrides ``on_batch``: then its batchable events arrive as columnar
batches. Two kinds of check follow from that:

* the three ``on_batch`` consumers (``PerfettoObserver``, the capacity
  and cost sanitizers) must end a run in the state their own per-event
  handlers produce, at any flush granularity. Each is attached twice to
  one machine — as shipped, and as a *twin*, a test subclass whose
  ``on_batch`` is the base hook, so it takes the per-event path — and
  the pair is compared field by field;
* every other consumer has one path. The cost ledger, ``WearMap``,
  ``MetricsObserver``, ``ProgressObserver``, ``SpanPhaseRecorder``, the
  round-form sanitizer and an ``EventLog`` are checked against values
  derived from a per-event ``EventLog`` on the same run.

Both run on a scripted-op corpus (reads, writes, peeks, acquire/release,
touch, nested phases, round boundaries, ragged blocks) on full, counting
and flash machines across flush sizes, plus sanitizer *violation* parity
on a deliberately breaching run.
"""

from __future__ import annotations

import io
import json
from collections import Counter

import numpy as np
import pytest

from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.cost import CostSnapshot, PathStats
from repro.machine.flash import FlashMachine
from repro.observe.base import MachineObserver
from repro.observe.cost import CostObserver
from repro.observe.progress import ProgressObserver
from repro.observe.wear import WearMap
from repro.sanitize.capacity import CapacitySanitizer
from repro.sanitize.cost import CostSanitizer
from repro.sanitize.rounds import RoundFormSanitizer
from repro.sorting.base import SORTERS
from repro.telemetry.observer import NO_PHASE, MetricsObserver
from repro.telemetry.perfetto import PerfettoObserver
from repro.telemetry.profile import CostProfiler
from repro.telemetry.spans import SpanContext, SpanPhaseRecorder
from repro.workloads.generators import sort_input

P = AEMParams(M=64, B=8, omega=4)

#: Flush granularities to exercise: every event, mid-batch at awkward
#: offsets, and the core's interval (one flush per boundary for this
#: corpus).
FLUSH_SIZES = (1, 3, 512)

SPAN = SpanContext.root()

#: Cadence of the progress observers under test.
EVERY = 5


class EventLog(MachineObserver):
    """Per-event reference observer: every event, in order, with the
    slots a round boundary drained."""

    def __init__(self):
        self.records = []

    def on_attach(self, core):
        super().on_attach(core)
        self.core = core

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
        self.records.append(("round", index, self.core.last_drained))


# ----------------------------------------------------------------------
# The on_batch consumers and their per-event twins.
# ----------------------------------------------------------------------
def per_event_twin(cls: type) -> type:
    """A subclass of ``cls`` whose ``on_batch`` is the base hook, so the
    bus calls its per-event handlers instead."""
    return type(f"{cls.__name__}Twin", (cls,), {"on_batch": MachineObserver.on_batch})


def _cost_sanitizer(cls, machine) -> CostSanitizer:
    if isinstance(machine, FlashMachine):
        return cls(read_cost=machine.Br, write_cost=machine.Bw)
    return cls()


def _sanitizer_state(s, *fields) -> tuple:
    # ``ok`` first: it finalizes (ledger reconciliation, open rounds).
    return (s.ok, s.events, s.violations) + tuple(getattr(s, f) for f in fields)


def _perfetto_state(p: PerfettoObserver) -> str:
    p.close()
    return json.dumps(p.builder.trace(), sort_keys=True)


BATCH_CONSUMERS = {
    "perfetto": (
        PerfettoObserver,
        lambda cls, m: cls(),
        _perfetto_state,
    ),
    "capacity": (
        CapacitySanitizer,
        lambda cls, m: cls(),
        lambda o: _sanitizer_state(o, "peak"),
    ),
    "cost_sanitizer": (
        CostSanitizer,
        _cost_sanitizer,
        lambda o: _sanitizer_state(
            o, "reads", "writes", "touches", "read_cost_total",
            "write_cost_total", "phases",
        ),
    ),
}

TWINS = {label: per_event_twin(cls) for label, (cls, _, _) in BATCH_CONSUMERS.items()}


def attach_pairs(machine) -> dict:
    """Attach each ``on_batch`` consumer as shipped and as its twin."""
    pairs = {}
    for label, (cls, make, _readout) in BATCH_CONSUMERS.items():
        batched = machine.attach(make(cls, machine))
        twin = machine.attach(make(TWINS[label], machine))
        pairs[label] = (batched, twin)
    return pairs


def pair_readouts(pairs) -> tuple[dict, dict]:
    """``(batched states, per-event twin states)`` keyed by consumer."""
    batched, twins = {}, {}
    for label, (obs, twin) in pairs.items():
        readout = BATCH_CONSUMERS[label][2]
        batched[label] = readout(obs)
        twins[label] = readout(twin)
    return batched, twins


# ----------------------------------------------------------------------
# The one-path consumers, and what the event log says they must report.
# ----------------------------------------------------------------------
def attach_single(machine) -> dict:
    return {
        "cost": machine.attach(CostObserver()),
        "wear": machine.attach(WearMap()),
        "metrics": machine.attach(MetricsObserver()),
        "progress": machine.attach(
            ProgressObserver(io.StringIO(), every=EVERY, live=False)
        ),
        "progress_live": machine.attach(
            ProgressObserver(io.StringIO(), every=EVERY, live=True)
        ),
        "spans": machine.attach(SpanPhaseRecorder(SPAN)),
        "rounds": machine.attach(RoundFormSanitizer()),
        "log": machine.attach(EventLog()),
    }


def _progress_line(reads, writes, path, rounds) -> str:
    line = f"Qr={reads} Qw={writes} phase={'/'.join(path) or '-'}"
    return line + (f" rounds={rounds}" if rounds else "")


def _paths_by_innermost(paths: dict) -> dict:
    grouped: dict = {}
    for path, stats in paths.items():
        name = path[-1] if path else NO_PHASE
        grouped[name] = grouped[name].merged(stats) if name in grouped else stats
    return grouped


class Derived:
    """Everything the one-path consumers report, recomputed from an
    :class:`EventLog`'s records alone."""

    def __init__(self, records, *, omega: float, budget: float):
        path: tuple = ()
        buckets = {(): [0, 0, 0.0, 0.0, 0]}
        self.block_writes: dict = {}
        self.timeline: list = []
        self.frames: list = []
        self.rounds = 0
        self.round_costs = [0.0]
        self.drained: list = []
        reads = writes = pending = 0
        for rec in records:
            kind = rec[0]
            bucket = buckets[path]
            if kind in ("read", "write"):
                _, addr, _, cost = rec
                if kind == "read":
                    reads += 1
                    bucket[0] += 1
                    bucket[2] += cost
                else:
                    writes += 1
                    bucket[1] += 1
                    bucket[3] += cost
                    self.block_writes[addr] = self.block_writes.get(addr, 0) + 1
                self.round_costs[-1] += cost
                pending += 1
                if pending >= EVERY:
                    pending = 0
                    self.frames.append(
                        _progress_line(reads, writes, path, self.rounds)
                    )
            elif kind == "touch":
                bucket[4] += rec[1]
            elif kind == "enter":
                path += (rec[1],)
                buckets.setdefault(path, [0, 0, 0.0, 0.0, 0])
                self.timeline.append(("B", rec[1], reads + writes))
                pending = 0
                self.frames.append(_progress_line(reads, writes, path, self.rounds))
            elif kind == "exit":
                assert path[-1] == rec[1]
                path = path[:-1]
                self.timeline.append(("E", rec[1], reads + writes))
            elif kind == "round":
                self.rounds += 1
                self.drained.append(rec[2])
                self.round_costs.append(0.0)
        self.reads, self.writes = reads, writes
        self.paths = {p: PathStats(*bucket) for p, bucket in buckets.items()}
        totals = PathStats()
        for stats in self.paths.values():
            totals = totals.merged(stats)
        self.totals = totals
        self.omega = omega
        self.budget = budget
        self.close_line = _progress_line(reads, writes, (), self.rounds)
        visited = ["/".join(p) for p in self.paths if p]
        if visited:
            self.close_line += f" phases={','.join(visited)}"

    # Expected readouts, one per consumer --------------------------------
    def cost(self) -> tuple:
        t = self.totals
        snap = CostSnapshot(
            reads=t.reads, writes=t.writes, touches=t.touches, omega=self.omega
        )
        phases = {
            name: CostSnapshot(
                reads=s.reads, writes=s.writes, touches=s.touches, omega=self.omega
            )
            for name, s in _paths_by_innermost(
                {p: s for p, s in self.paths.items() if p}
            ).items()
        }
        return snap, phases, self.paths, t.read_cost, t.write_cost

    def wear(self) -> tuple:
        return self.block_writes, dict(Counter(self.block_writes.values()))

    def metrics(self) -> tuple:
        per_phase = {}
        for name, s in _paths_by_innermost(self.paths).items():
            fields: dict = {}
            if s.reads:
                fields.update(reads=s.reads, read_cost=s.read_cost)
            if s.writes:
                fields.update(writes=s.writes, write_cost=s.write_cost)
            if s.touches:
                fields["touches"] = s.touches
            if fields:
                per_phase[name] = fields
        return per_phase, list(self.block_writes.values()), self.rounds

    def progress(self) -> tuple:
        return self.reads, self.writes, self.rounds, self.close_line + "\n"

    def progress_live(self) -> str:
        return "".join("\r" + f.ljust(78) for f in self.frames) + (
            "\r" + self.close_line.ljust(78) + "\n"
        )

    def spans(self) -> dict:
        t = self.totals
        return {
            "span": SPAN.as_dict(),
            "io": t.io,
            "reads": t.reads,
            "writes": t.writes,
            "read_cost": t.read_cost,
            "write_cost": t.write_cost,
            "timeline": self.timeline,
        }

    def rounds_state(self) -> tuple:
        breaches = sum(1 for d in self.drained if d) + sum(
            1 for c in self.round_costs if c > self.budget + 1e-9
        )
        return (
            breaches == 0,
            self.reads + self.writes + self.rounds,
            breaches,
            self.rounds,
            max(self.round_costs),
        )


def single_readouts(single: dict) -> dict:
    cost, metrics = single["cost"], single["metrics"]
    single["progress"].close()
    single["progress_live"].close()
    rounds = single["rounds"]
    ok = rounds.ok
    return {
        "cost": (
            cost.snapshot(), cost.counter.phases, cost.counter.paths(),
            cost.read_cost, cost.write_cost,
        ),
        "wear": (single["wear"].counts, single["wear"].histogram()),
        "metrics": (
            metrics.per_phase(),
            metrics.wear_histogram().values,
            metrics.summary()["rounds"],
        ),
        "progress": (
            single["progress"].reads,
            single["progress"].writes,
            single["progress"].rounds,
            single["progress"].stream.getvalue(),
        ),
        "progress_live": single["progress_live"].stream.getvalue(),
        "spans": {
            k: v for k, v in single["spans"].export().items() if k != "wall_start"
        },
        "rounds": (
            ok, rounds.events, len(rounds.violations), rounds.rounds,
            rounds.max_round_cost,
        ),
    }


def expected_single(single: dict) -> dict:
    rounds = single["rounds"]
    derived = Derived(
        single["log"].records,
        omega=single["cost"].counter.omega,
        budget=rounds.budget,
    )
    return {
        "cost": derived.cost(),
        "wear": derived.wear(),
        "metrics": derived.metrics(),
        "progress": derived.progress(),
        "progress_live": derived.progress_live(),
        "spans": derived.spans(),
        "rounds": derived.rounds_state(),
    }


def check_log(machine, log: EventLog) -> None:
    """The log itself agrees with the machine: one record per I/O, the
    touches the ledger counted, round indices at the running I/O count."""
    io_seen = 0
    touches = 0
    for rec in log.records:
        if rec[0] in ("read", "write"):
            io_seen += 1
        elif rec[0] == "touch":
            touches += rec[1]
        elif rec[0] == "round":
            assert rec[1] == io_seen
    assert io_seen == machine.core.io_count
    assert touches == machine.core.counter.touches


def test_twins_really_take_the_per_event_path():
    machine = AEMMachine(P)
    pairs = attach_pairs(machine)
    core = machine.core
    for label, (obs, twin) in pairs.items():
        assert obs.on_batch in core._on_batch, label
        assert twin.on_batch not in core._on_batch, label
        assert all(obs.on_read != cb for cb in core._on_read), label
        assert any(getattr(twin, name) in getattr(core, "_" + name)
                   for name in ("on_read", "on_write")), label
    assert core._buffering is True


@pytest.mark.no_sanitize  # the capacity/cost sanitizers read the columns
def test_columns_recorded_only_for_their_readers():
    """Only an ``on_batch`` consumer makes the core buffer: with the
    ledger, the profiler, metrics, wear, progress, spans, the round-form
    sanitizer and a per-event log attached, nothing is appended to the
    batch; a column reader attached beside them turns buffering on, and
    detaching it turns it off again."""
    machine = AEMMachine(P)
    for obs in (
        CostProfiler(),
        MetricsObserver(),
        WearMap(),
        ProgressObserver(io.StringIO(), live=False),
        SpanPhaseRecorder(SPAN),
        RoundFormSanitizer(),
        EventLog(),
    ):
        machine.attach(obs)
    core = machine.core
    assert core._on_batch == [] and core._buffering is False
    machine.acquire(1)
    machine.write_fresh([1])
    assert core.batch.n == 0
    reader = machine.attach(PerfettoObserver())
    assert core._buffering is True
    machine.touch(2)
    assert core.batch.n == 1
    machine.detach(reader)
    assert core._buffering is False and core.batch.n == 0


class _NoAppend(list):
    def append(self, item):
        raise AssertionError("the core appended to the batch")


@pytest.mark.no_sanitize  # the capacity/cost sanitizers read the columns
@pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
@pytest.mark.parametrize("exp_observers", [False, True], ids=["default", "exp"])
def test_the_ledger_and_exp_observers_never_buffer(counting, exp_observers):
    """A default machine, and one carrying the profiler and metrics
    observers the experiments attach, sort without a batch consumer and
    without appending a single event to the batch."""
    observers = [CostProfiler(), MetricsObserver()] if exp_observers else []
    machine = AEMMachine.for_algorithm(P, counting=counting, observers=observers)
    core = machine.core
    for column in ("kinds", "addrs", "lengths", "costs", "occs", "whats"):
        setattr(core.batch, column, _NoAppend())
    assert core._on_batch == []
    atoms = sort_input(300, "uniform", np.random.default_rng(3))
    out = SORTERS["aem_mergesort"](machine, machine.load_input(atoms), P)
    assert len(machine.collect_output(out)) == 300
    assert core.batch.n == 0
    assert machine.reads > 0 and machine.writes > 0
    if exp_observers:
        assert observers[0].conservation_errors() == []
        assert sum(p.get("writes", 0) for p in observers[1].per_phase().values()) \
            == machine.writes


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


def assert_clean(batched: dict, single: dict) -> None:
    """The scripted corpus breaks no model rule (``ok`` leads each
    sanitizer readout)."""
    for label in ("capacity", "cost_sanitizer"):
        assert batched[label][0], (label, batched[label])
    assert single["rounds"][0], single["rounds"]


def run(machine, driver, flush_interval=None, *, flush=False):
    """``(batched states, twin states, one-path states, expected
    one-path states, machine state)`` for one driven machine."""
    if flush_interval is not None:
        machine.core.flush_interval = flush_interval
    pairs = attach_pairs(machine)
    single = attach_single(machine)
    driver(machine)
    if flush:
        machine.flush()
        machine.flush()
    batched, twins = pair_readouts(pairs)
    check_log(machine, single["log"])
    state = (
        machine.core.counter.snapshot(),
        machine.core.io_count,
        machine.core.mem.peak,
    )
    return batched, twins, single_readouts(single), expected_single(single), state


def run_scripted(flush_interval=None, *, counting=False, flush=False):
    machine = AEMMachine.for_algorithm(P, counting=counting)
    return run(machine, drive, flush_interval, flush=flush)


# ----------------------------------------------------------------------
# AEM machines: full and counting, across flush granularities.
# ----------------------------------------------------------------------
class TestScriptedParity:
    @pytest.mark.parametrize("flush_interval", FLUSH_SIZES)
    def test_full_machine(self, flush_interval):
        batched, twins, single, expected, _ = run_scripted(flush_interval)
        assert batched == twins
        assert single == expected
        assert_clean(batched, single)

    @pytest.mark.parametrize("flush_interval", FLUSH_SIZES)
    def test_counting_machine(self, flush_interval):
        batched, twins, single, expected, _ = run_scripted(
            flush_interval, counting=True
        )
        assert batched == twins
        assert single == expected
        assert_clean(batched, single)

    def test_counting_batched_matches_full_events(self):
        # The two modes composed still reproduce the reference stream:
        # counting+batched vs full+per-event, same observer state.
        _, full_twins, full_single, _, full_state = run_scripted()
        fast, _, fast_single, _, fast_state = run_scripted(counting=True)
        assert fast_state == full_state
        assert fast == full_twins
        assert fast_single == full_single

    def test_explicit_flush_is_idempotent(self):
        batched, twins, single, expected, state = run_scripted(512, flush=True)
        assert batched == twins and single == expected
        unflushed, _, unflushed_single, _, unflushed_state = run_scripted(512)
        assert (batched, single, state) == (
            unflushed, unflushed_single, unflushed_state
        )


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

    @pytest.mark.parametrize("flush_interval", FLUSH_SIZES)
    @pytest.mark.parametrize("counting", [False, True])
    def test_flash_machine(self, flush_interval, counting):
        fm = FlashMachine(M=64, Br=2, Bw=8, counting=counting)
        batched, twins, single, expected, _ = run(fm, self.drive_flash, flush_interval)
        assert batched == twins
        assert single == expected
        assert batched["cost_sanitizer"][0]
        assert single["cost"][3:] == (fm.read_volume, fm.write_volume)


# ----------------------------------------------------------------------
# Violation parity: a breaching run reports the same verdicts either way.
# ----------------------------------------------------------------------
class TestViolationParity:
    @pytest.mark.parametrize("flush_interval", FLUSH_SIZES)
    def test_capacity_breaches_identical(self, flush_interval):
        machine = AEMMachine(P, enforce_capacity=False)
        machine.core.flush_interval = flush_interval
        cap = machine.attach(CapacitySanitizer())
        twin = machine.attach(TWINS["capacity"]())
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
