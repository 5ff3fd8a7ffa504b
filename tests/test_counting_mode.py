"""Counting mode: payload-free machines with bit-identical cost streams.

The contract under test (PR 5): a machine built with ``counting=True``
runs on a :class:`~repro.machine.phantom.PhantomBlockStore`, materializes
no atom payloads, and emits the *exact* event stream of a full run —
same costs, same addresses, same block lengths, same io_count — so
every cost-level consumer (CostObserver, wear maps, sanitizers, metrics)
is oblivious to the mode. Consumers that do read payloads declare
``needs_payloads = True`` and are rejected at attach with a clear error.
"""

from __future__ import annotations

import pytest

from repro.core.params import AEMParams
from repro.engine import ExperimentConfig, ResultCache, SweepEngine
from repro.experiments import REGISTRY, run_experiment
from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.api.registry import WORKLOADS, normalize, workload_names
from repro.machine.aem import AEMMachine
from repro.machine.em import em_machine
from repro.machine.errors import AddressError
from repro.machine.flash import FlashMachine
from repro.machine.phantom import (
    PHANTOM,
    SELF_TOKEN_TYPES,
    PhantomBlock,
    PhantomBlockStore,
    token_of,
)
from repro.observe.base import MachineObserver
from repro.observe.trace import TraceRecorder
from repro.permute.base import PERMUTERS, PermuteVerificationError
from repro.sanitize.provenance import ProvenanceSanitizer
from repro.sanitize.suite import attach_sanitizers
from repro.sorting.base import SORTERS, SortVerificationError

P = AEMParams(M=64, B=8, omega=4)


def paired_machines(**kw):
    full = AEMMachine.for_algorithm(P, **kw)
    counting = AEMMachine.for_algorithm(P, counting=True, **kw)
    return full, counting


# ----------------------------------------------------------------------
# The phantom store itself.
# ----------------------------------------------------------------------
class TestPhantomBlockStore:
    def test_occupancy_only(self):
        # A written list reads back as its tuple; a phantom payload keeps
        # only its size and reads back as a PhantomBlock of that size.
        store = PhantomBlockStore(B=4)
        a, b = store.allocate(2)
        store.set(a, [10, 20, 30])
        assert store.get(a) == (10, 20, 30) and type(store.get(a)) is tuple
        store.set(b, PhantomBlock(3))
        blk = store.get(b)
        assert isinstance(blk, PhantomBlock) and len(blk) == 3
        assert blk[0] is PHANTOM
        assert len(blk[1:]) == 2

    def test_wear_counted(self):
        store = PhantomBlockStore(B=4)
        a = store.allocate_one()
        store.set(a, [1, 2])
        store.set(a, PhantomBlock(3))
        assert store.write_counts[a] == 2

    def test_dump_items_refuses(self):
        store = PhantomBlockStore(B=4)
        a, b, c = store.allocate(3)
        store.set(a, [(2, 0), (1, 1)])
        store.set(b, PhantomBlock(0))
        assert store.dump_items([a, b, c]) == [(2, 0), (1, 1)]
        store.set(b, PhantomBlock(2))
        with pytest.raises(AddressError, match="phantom payload"):
            store.dump_items([a, b])
        with pytest.raises(AddressError, match="unallocated"):
            store.dump_items([a, c + 1])

    def test_phantom_block_is_sized_sequence(self):
        blk = PhantomBlock(5)
        assert list(blk) == [PHANTOM] * 5
        assert blk == PhantomBlock(5) and blk != PhantomBlock(4)


# ----------------------------------------------------------------------
# Machine-level event-stream parity.
# ----------------------------------------------------------------------
class TestMachineParity:
    def test_scripted_ops_same_costs(self):
        full, counting = paired_machines()
        for m in (full, counting):
            addrs = m.load_input(range(24))
            held = []
            for a in addrs:
                held.extend(m.read(a))
            out = m.write_fresh(held[: P.B])
            m.release(len(held) - P.B)
            m.peek(out)
            m.touch(7)
        assert counting.snapshot() == full.snapshot()
        assert counting.core.io_count == full.core.io_count
        assert counting.mem.peak == full.mem.peak

    def test_scan_copy_b128_ragged_costs_match(self):
        """The streaming scan at a large block size, with a ragged last
        block: the counting fast path's whole-block chunking must charge
        exactly what the per-atom full path does."""
        from repro.atoms.atom import make_atoms
        from repro.machine.streams import scan_copy

        B = 128
        params = AEMParams(M=8 * B, B=B, omega=8)
        n = B * 37 + 51
        costs = []
        for counting in (False, True):
            m = AEMMachine.for_algorithm(params, counting=counting)
            run = m.load_input(make_atoms(range(n)))
            for _ in range(2):  # the second pass reads the first's output
                run = scan_copy(m, run)
            snap = m.snapshot()
            costs.append((snap.Q, snap.reads, snap.writes, snap.touches, m.mem.peak))
        assert costs[1] == costs[0]
        assert costs[0][1] == 2 * 38  # 38 blocks read per pass

    def test_read_returns_tokens_for_known_blocks(self):
        _, m = paired_machines()
        (addr,) = m.load_input([3, 1, 2])
        assert sorted(m.read(addr)) == [1, 2, 3]

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    @pytest.mark.parametrize("op", ["read", "peek"])
    def test_freed_unread_block_raises(self, counting, op):
        # Written, never read, then freed: no stale snapshot may survive.
        m = AEMMachine.for_algorithm(P, counting=counting)
        m.acquire(3)
        addr = m.write_fresh([3, 1, 2])
        m.free(addr)
        with pytest.raises(AddressError):
            getattr(m, op)(addr)
        assert m.reads == 0

    def test_unknown_block_reads_as_phantom(self):
        _, m = paired_machines()
        addr = m.allocate_one()
        m.acquire(4)
        m.write(addr, PhantomBlock(4))
        blk = m.read(addr)
        assert isinstance(blk, PhantomBlock) and len(blk) == 4

    def test_wear_identical(self):
        import numpy as np

        from repro.workloads.generators import sort_input

        atoms = sort_input(200, "uniform", np.random.default_rng(0))
        wears = []
        for counting in (False, True):
            m = AEMMachine.for_algorithm(P, counting=counting)
            addrs = m.load_input(atoms)
            SORTERS["aem_mergesort"](m, addrs, P)
            wears.append(m.wear())
        assert wears[0] == wears[1]

    def test_collect_output_returns_tokens(self):
        from repro.atoms.atom import make_atoms

        atoms = make_atoms([5, 3, 9, 1, 7, 2, 8, 6, 4, 0])
        full, counting = paired_machines()
        got = counting.collect_output(counting.load_input(atoms))
        assert got == [a.sort_token() for a in atoms]
        assert full.collect_output(full.load_input(atoms)) == atoms
        assert counting.reads == counting.writes == 0  # the referee is free

    def test_collect_output_refuses(self):
        # A block written as a phantom payload has no tokens to verify by.
        _, m = paired_machines()
        addrs = m.load_input(range(8))
        m.acquire(4)
        m.write(addrs[0], PhantomBlock(4))
        with pytest.raises(AddressError, match="phantom payload"):
            m.collect_output(addrs)

    def test_flash_counting_costs_match(self):
        runs = []
        for counting in (False, True):
            fm = FlashMachine(64, 2, 8, counting=counting)
            addrs = fm.load_input(list(range(20)))
            for a in addrs:
                fm.read_small(a, 0)
            fm.write_fresh(list(range(8)))
            runs.append((fm.volume, fm.read_ops, fm.write_ops, fm.core.io_count))
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# The needs_payloads contract.
# ----------------------------------------------------------------------
class _PayloadObserver(MachineObserver):
    needs_payloads = True


class TestNeedsPayloads:
    def test_payload_observer_rejected_on_counting_machine(self):
        _, m = paired_machines()
        with pytest.raises(ValueError, match="needs_payloads"):
            m.attach(_PayloadObserver())

    def test_payload_observer_fine_on_full_machine(self):
        full, _ = paired_machines()
        full.attach(_PayloadObserver())

    def test_trace_recorder_rejected_on_counting_machine(self):
        _, m = paired_machines()
        with pytest.raises(ValueError, match="counting"):
            m.attach(TraceRecorder())

    def test_provenance_sanitizer_declares_needs_payloads(self):
        assert ProvenanceSanitizer.needs_payloads is True
        assert TraceRecorder.needs_payloads is True
        assert MachineObserver.needs_payloads is False

    def test_attach_sanitizers_skips_provenance_when_counting(self):
        full, counting = paired_machines()
        assert any(
            isinstance(s, ProvenanceSanitizer) for s in attach_sanitizers(full)
        )
        suite = attach_sanitizers(counting)
        assert not any(isinstance(s, ProvenanceSanitizer) for s in suite)

    def test_rejected_at_construction_too(self):
        with pytest.raises(ValueError, match="needs_payloads"):
            AEMMachine(P, counting=True, observers=(_PayloadObserver(),))


def _detach_ledger_handle(machine):
    machine.detach(machine._cost)
    assert machine._cost not in machine.observers


def _write_read_rewrite(machine, B, midway):
    """Write one fresh block, call ``midway``, then read the block back
    and rewrite it in place."""
    machine.acquire(B)
    addr = machine.write_fresh(list(range(B)))
    midway(machine)
    machine.release(machine.read(addr))
    machine.acquire(B)
    machine.write(addr, list(range(B)))


def _write_read_small(machine, midway):
    """Write one fresh flash block, call ``midway``, then read a small
    block of it."""
    addr = machine.write_fresh(list(range(machine.Bw)))
    midway(machine)
    machine.read_small(addr, 0)


class TestDetachGuard:
    """Detaching is guard-free: the cost readouts live in the core's
    ledger, not in any observer, so detaching the ``CostObserver`` handle
    cannot take the ledger off the machine."""

    @pytest.mark.parametrize("counting", [False, True])
    def test_cost_observer_cannot_be_detached(self, counting):
        # The handle leaves the bus mid-run; the core keeps charging the
        # ledger, so the readouts count the I/Os on either side of it.
        m = AEMMachine(P, counting=counting)
        _write_read_rewrite(m, P.B, _detach_ledger_handle)
        assert (m.reads, m.writes, m.cost) == (1, 2, 1 + 2 * P.omega)

    def test_other_observers_detach_fine(self):
        m = AEMMachine(P)
        obs = m.attach(MachineObserver())
        m.detach(obs)
        assert obs not in m.observers

    @pytest.mark.parametrize(
        "make, run, readout, expected",
        [
            pytest.param(
                lambda: AEMMachine(P),
                lambda m, midway: _write_read_rewrite(m, P.B, midway),
                lambda m: (m.reads, m.writes, m.cost),
                (1, 2, 1 + 2 * P.omega),
                id="aem",
            ),
            pytest.param(
                lambda: em_machine(M=64, B=8),
                lambda m, midway: _write_read_rewrite(m, 8, midway),
                lambda m: (m.reads, m.writes, m.cost),
                (1, 2, 3),
                id="em",
            ),
            pytest.param(
                lambda: FlashMachine(M=64, Br=2, Bw=8),
                _write_read_small,
                lambda m: (m.read_ops, m.write_ops, m.volume),
                (1, 1, 2 + 8),
                id="flash",
            ),
        ],
    )
    def test_guard_is_uniform_across_machines(self, make, run, readout, expected):
        # No machine refuses to detach its CostObserver: each reads its
        # volume/cost from the core's ledger, which no detach can freeze.
        m = make()
        run(m, _detach_ledger_handle)
        assert readout(m) == expected
        # Foreign observers detach just as well.
        obs = m.attach(MachineObserver())
        m.detach(obs)
        assert obs not in m.observers


# ----------------------------------------------------------------------
# Algorithm-level parity through the measure helpers.
# ----------------------------------------------------------------------
class TestMeasureParity:
    @pytest.mark.parametrize("sorter", sorted(SORTERS))
    @pytest.mark.parametrize("distribution", ["uniform", "few_distinct"])
    def test_sort_costs_identical(self, sorter, distribution):
        full = measure_sort(sorter, 300, P, distribution=distribution, seed=3)
        fast = measure_sort(
            sorter, 300, P, distribution=distribution, seed=3, counting=True
        )
        assert fast == full

    @pytest.mark.parametrize("permuter", sorted(PERMUTERS))
    def test_permute_costs_identical(self, permuter):
        full = measure_permute(permuter, 160, P, seed=1)
        fast = measure_permute(permuter, 160, P, seed=1, counting=True)
        assert fast == full

    @pytest.mark.parametrize("algorithm", ["naive", "sort_based"])
    def test_spmxv_costs_identical(self, algorithm):
        full = measure_spmxv(algorithm, 64, 2, P, seed=2)
        fast = measure_spmxv(algorithm, 64, 2, P, seed=2, counting=True)
        assert fast == full

    @pytest.mark.parametrize("sorter", sorted(SORTERS))
    def test_every_sorter_runs_on_phantom_store(self, sorter):
        # No sorter falls back to a full machine when counting is asked.
        class StoreProbe(MachineObserver):
            def on_attach(self, core):
                self.disk = core.disk

        probe = StoreProbe()
        measure_sort(sorter, 200, P, counting=True, observers=[probe])
        assert isinstance(probe.disk, PhantomBlockStore)


def _swap_two(machine, addrs):
    """Rewrite the last of ``addrs`` holding two or more tokens with its
    first two swapped."""
    assert machine.counting, "the corruption must hit a counting run"
    addr = next(a for a in reversed(addrs) if machine.block_len(a) > 1)
    blk = list(machine.read(addr))
    blk[0], blk[1] = blk[1], blk[0]
    machine.write(addr, blk)


class TestCountingVerification:
    """A counting run verifies its own output from the stashed tokens, so
    a corrupted output fails it just as it fails a full run."""

    @pytest.mark.parametrize("sorter", sorted(SORTERS))
    def test_corrupted_sort_raises(self, sorter, monkeypatch):
        run = SORTERS[sorter]

        def corrupted(machine, addrs, params):
            out = run(machine, addrs, params)
            _swap_two(machine, out)
            return out

        monkeypatch.setitem(SORTERS, sorter, corrupted)
        with pytest.raises(SortVerificationError):
            measure_sort(sorter, 300, P, seed=3, counting=True)

    @pytest.mark.parametrize("permuter", sorted(PERMUTERS))
    def test_corrupted_permute_raises(self, permuter, monkeypatch):
        run = PERMUTERS[permuter]

        def corrupted(machine, addrs, perm, params):
            out = run(machine, addrs, perm, params)
            _swap_two(machine, out)
            return out

        monkeypatch.setitem(PERMUTERS, permuter, corrupted)
        with pytest.raises(PermuteVerificationError):
            measure_permute(permuter, 160, P, seed=1, counting=True)

    def test_corrupted_index_raises(self, monkeypatch):
        from repro.workloads.search import measures as search_measures
        from repro.workloads.search.index import IndexVerificationError

        build = search_measures.build_index

        def corrupted(machine, *args, **kwargs):
            index = build(machine, *args, **kwargs)
            _swap_two(machine, max(index.lexicon.values(), key=lambda p: p.df).addrs)
            return index

        monkeypatch.setattr(search_measures, "build_index", corrupted)
        with pytest.raises(IndexVerificationError):
            search_measures.measure_index_build(700, P, seed=13, counting=True)


# ----------------------------------------------------------------------
# Engine/config plumbing.
# ----------------------------------------------------------------------
def counting_aware_measure(x, counting=False):
    return {"x": x, "counting": counting}


def counting_blind_measure(x):
    return {"x": x}


class TestEngineInjection:
    def test_injects_when_measure_accepts(self):
        with SweepEngine(counting=True) as eng:
            out = eng.map(counting_aware_measure, [{"x": 1}, {"x": 2}])
        assert out == [{"x": 1, "counting": True}, {"x": 2, "counting": True}]

    def test_explicit_config_flag_wins(self):
        with SweepEngine(counting=True) as eng:
            out = eng.map(counting_aware_measure, [{"x": 1, "counting": False}])
        assert out == [{"x": 1, "counting": False}]

    def test_blind_measure_untouched(self):
        with SweepEngine(counting=True) as eng:
            out = eng.map(counting_blind_measure, [{"x": 5}])
        assert out == [{"x": 5}]

    def test_counting_and_full_never_alias_in_cache(self, tmp_path):
        configs = [{"x": 1}]
        with SweepEngine(cache=ResultCache(tmp_path, version="v")) as eng:
            full = eng.map(counting_aware_measure, configs)
        with SweepEngine(
            cache=ResultCache(tmp_path, version="v"), counting=True
        ) as eng:
            fast = eng.map(counting_aware_measure, configs)
            assert eng.stats.cache_hits == 0 and eng.stats.executed == 1
        assert full != fast
        assert len(ResultCache(tmp_path, version="v")) == 2

    def test_experiment_config_threads_counting(self):
        engine = ExperimentConfig(counting=True).make_engine()
        assert engine.counting is True
        assert ExperimentConfig().make_engine().counting is False


# ----------------------------------------------------------------------
# The headline acceptance: every experiment, counting vs full, at quick
# sizes — identical records and identical check verdicts. The full run is
# the session's shared one (``quick_experiment``), which
# tests/test_experiments.py asserts passes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("eid", sorted(REGISTRY))
def test_experiment_counting_parity(eid, quick_experiment):
    full = quick_experiment(eid)
    fast = run_experiment(eid, ExperimentConfig(budget="quick", counting=True))
    assert fast.records == full.records
    assert fast.checks == full.checks


# ----------------------------------------------------------------------
# token_of: the scheduling-token extractor counting machines stash.
# ----------------------------------------------------------------------
class TestTokenOf:
    def test_atom_uses_sort_token(self):
        from repro.atoms.atom import Atom

        a = Atom(7, 3)
        assert token_of(a) == a.sort_token()

    def test_plain_values_pass_through(self):
        assert token_of(5) == 5
        assert token_of((2, 9)) == (2, 9)


# ----------------------------------------------------------------------
# The token contract: a counting run handles atoms only as (key, uid)
# tokens, from its input to its stash.
# ----------------------------------------------------------------------
def _registry_queries():
    """Every registered workload at its defaults, then once per non-default
    choice of each of its choice fields (each sorter, key distribution,
    permutation and conformation family, SpMxV algorithm, query mode)."""
    for name in workload_names():
        yield name, {}
        for field in WORKLOADS[name].fields:
            for choice in field.choices or ():
                if choice != field.default:
                    yield name, {field.name: choice}


REGISTRY_QUERIES = list(_registry_queries())


@pytest.mark.parametrize(
    "workload,fields",
    REGISTRY_QUERIES,
    ids=[
        "-".join([w, *(f"{k}={v}" for k, v in f.items())])
        for w, f in REGISTRY_QUERIES
    ],
)
def test_counting_run_holds_only_tokens(workload, fields, monkeypatch):
    """No ``Atom`` is constructed on a counting run, and every item its
    machines stash is a token or the SpMxV output's ``PHANTOM``."""
    from repro.atoms.atom import Atom

    def no_atoms(self, *args, **kwargs):
        raise AssertionError("a counting run constructed an Atom")

    machines = []
    init = AEMMachine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        machines.append(self)

    spec, config = normalize(
        {"workload": workload, "n": 256, "M": 64, "B": 8, "omega": 4,
         "counting": True, **fields}
    )
    monkeypatch.setattr(Atom, "__init__", no_atoms)
    monkeypatch.setattr(AEMMachine, "__init__", recording_init)
    spec.measure(**config)
    assert machines and all(m.counting for m in machines)
    stashed = [item for m in machines for blk in m.disk._blocks.values()
               if type(blk) is tuple for item in blk]
    assert stashed
    strays = {type(item).__name__ for item in stashed
              if type(item) not in SELF_TOKEN_TYPES and item is not PHANTOM}
    assert not strays, f"non-token items stashed: {sorted(strays)}"


@pytest.mark.parametrize("n", [24, 29])
@pytest.mark.parametrize("make", [
    lambda: AEMMachine(P, counting=True),
    lambda: FlashMachine(64, 2, 8, counting=True),
], ids=["aem", "flash"])
def test_load_input_of_atoms_stashes_their_tokens(make, n):
    from repro.atoms.atom import make_atoms

    atoms = make_atoms(range(n, 0, -1))
    from_atoms, from_tokens = make(), make()
    assert from_atoms.load_input(atoms) == from_tokens.load_input(
        [a.sort_token() for a in atoms]
    )
    assert from_atoms.disk._blocks == from_tokens.disk._blocks
    assert all(type(blk) is tuple for blk in from_atoms.disk._blocks.values())


# ----------------------------------------------------------------------
# Full == counting, event for event: one kernel serves both modes.
# ----------------------------------------------------------------------
class EventStream(MachineObserver):
    """Every event in order, each with the occupancy at it."""

    def __init__(self):
        self.events = []

    def on_attach(self, core):
        self.mem = core.mem

    def _log(self, *event):
        self.events.append(event + (self.mem.occupancy,))

    def on_read(self, addr, items, cost):
        self._log("read", addr, len(items), cost)

    def on_write(self, addr, items, cost):
        self._log("write", addr, len(items), cost)

    def on_acquire(self, k, what):
        self._log("acquire", k, what)

    def on_release(self, k):
        self._log("release", k)

    def on_touch(self, k):
        self._log("touch", k)

    def on_phase_enter(self, name):
        self._log("enter", name)

    def on_phase_exit(self, name):
        self._log("exit", name)


def _event_stream(workload, params, n, distribution, counting):
    import numpy as np

    from repro.sorting.runs import run_of_input
    from repro.sorting.small import small_sort
    from repro.workloads.generators import sort_input
    from repro.workloads.search import (
        build_index,
        corpus_postings,
        posting_atoms,
        posting_tokens,
    )

    m = AEMMachine.for_algorithm(params, counting=counting)
    log = m.attach(EventStream())
    if workload == "index_build":
        corpus = corpus_postings(n, rng=5)
        items = posting_tokens(corpus) if counting else posting_atoms(corpus)
        build_index(
            m, m.load_input(items), params, n_docs=corpus.n_docs, n_terms=corpus.n_terms
        )
    else:
        atoms = sort_input(n, distribution, np.random.default_rng(5))
        addrs = m.load_input([token_of(a) for a in atoms] if counting else atoms)
        if workload == "small_sort":
            small_sort(m, run_of_input(m, addrs), params)
        else:
            SORTERS[workload](m, addrs, params)
    return log.events


#: (M, B, omega) points: omega < B, omega == B and omega > B.
EVENT_POINTS = [(64, 8, 4), (32, 4, 4), (32, 4, 8), (128, 16, 2)]

#: (workload, key distribution); the corpus draws its own keys.
EVENT_WORKLOADS = [
    (w, d)
    for w in (
        "aem_mergesort",
        "pointer_mergesort",
        "aem_samplesort",
        "aem_heapsort",
        "aem_pqsort",
        "small_sort",
    )
    for d in ("uniform", "few_distinct")
] + [("index_build", None)]


@pytest.mark.parametrize(
    "point", EVENT_POINTS, ids=["M{}B{}w{}".format(*p) for p in EVENT_POINTS]
)
@pytest.mark.parametrize(
    "workload,distribution",
    EVENT_WORKLOADS,
    ids=[w if d is None else f"{w}-{d}" for w, d in EVENT_WORKLOADS],
)
def test_full_and_counting_event_streams_equal(workload, distribution, point):
    """The merge and the base case charge per block on both machine modes,
    so a full run's events — touch and release grouping included — are
    the counting run's. The sizes leave the last block of every input
    ragged; ``few_distinct`` draws duplicate keys."""
    M, B, omega = point
    params = AEMParams(M=M, B=B, omega=omega)
    base = params.base_case_size()
    n = base - B + 3 if workload == "small_sort" else 3 * base + B // 2 + 1
    full = _event_stream(workload, params, n, distribution, counting=False)
    counting = _event_stream(workload, params, n, distribution, counting=True)
    assert any(e[0] == "touch" for e in full)
    assert full == counting
