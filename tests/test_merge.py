"""The Section 3.1 omega*m-way merge: correctness, Lemma 3.1, Theorem 3.2."""

from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms.atom import Atom, make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.errors import CapacityError
from repro.observe.base import MachineObserver
from repro.sorting.base import verify_sorted_output
from repro.sorting.merge import (
    ExternalPointerStore,
    InternalPointerStore,
    MergeStats,
    RoundBuffer,
    multiway_merge,
)
from repro.sorting.runs import Run


def build_runs(machine, lengths, seed=0):
    """Sorted runs with the given lengths; returns (runs, all_atoms)."""
    rng = np.random.default_rng(seed)
    runs, all_atoms = [], []
    uid = 0
    for length in lengths:
        keys = np.sort(rng.integers(0, 10**8, length))
        atoms = [Atom(int(k), uid + t) for t, k in enumerate(keys)]
        uid += length
        all_atoms.extend(atoms)
        runs.append(Run.of(machine.load_input(atoms), length))
    return runs, all_atoms


@pytest.fixture
def p():
    return AEMParams(M=32, B=4, omega=4)


class TestPointerStores:
    def test_external_scan_roundtrip(self, p):
        m = AEMMachine.for_algorithm(p)
        ps = ExternalPointerStore(m, 10)
        assert [v for _, v in ps.scan()] == [0] * 10

    def test_external_update_only_dirty_blocks(self, p):
        m = AEMMachine.for_algorithm(p)
        ps = ExternalPointerStore(m, 12)  # 3 pointer blocks of B=4
        before = m.writes
        dirty = ps.update({0: 5, 1: 6})  # both in block 0
        assert dirty == 1
        assert m.writes == before + 1
        values = dict(ps.scan())
        assert values[0] == 5 and values[1] == 6 and values[2] == 0

    def test_external_update_empty_is_free(self, p):
        m = AEMMachine.for_algorithm(p)
        ps = ExternalPointerStore(m, 4)
        before = m.cost
        assert ps.update({}) == 0
        assert m.cost == before

    def test_external_init_cost_is_blocks(self, p):
        m = AEMMachine.for_algorithm(p)
        ExternalPointerStore(m, 12)
        assert m.writes == 3 and m.reads == 0

    def test_internal_acquires_table(self, p):
        m = AEMMachine.for_algorithm(p)
        ps = InternalPointerStore(m, 10)
        assert m.mem.occupancy == 10
        ps.close()
        assert m.mem.occupancy == 0

    def test_internal_overflows_when_table_too_big(self, p):
        m = AEMMachine.for_algorithm(p, slack=1.0)
        with pytest.raises(CapacityError):
            InternalPointerStore(m, p.M + 1)

    def test_internal_scan_and_update_free(self, p):
        m = AEMMachine.for_algorithm(p)
        ps = InternalPointerStore(m, 5)
        ps.update({3: 7})
        assert dict(ps.scan())[3] == 7
        assert m.cost == 0
        ps.close()


class TestCorrectness:
    def test_merges_full_fanout(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, atoms = build_runs(m, [40] * p.fanout)
        out = multiway_merge(m, runs, p)
        verify_sorted_output(m, atoms, out.addrs)

    def test_merges_two_runs(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, atoms = build_runs(m, [50, 70])
        out = multiway_merge(m, runs, p)
        verify_sorted_output(m, atoms, out.addrs)

    def test_merges_skewed_lengths(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, atoms = build_runs(m, [1, 200, 3, 150, 7])
        out = multiway_merge(m, runs, p)
        verify_sorted_output(m, atoms, out.addrs)

    def test_single_run_passthrough(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, atoms = build_runs(m, [30])
        out = multiway_merge(m, runs, p)
        verify_sorted_output(m, atoms, out.addrs)

    def test_empty_input(self, p):
        m = AEMMachine.for_algorithm(p)
        out = multiway_merge(m, [], p)
        assert out.is_empty()

    def test_drops_empty_runs(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, atoms = build_runs(m, [20, 25])
        out = multiway_merge(m, [Run.of((), 0)] + runs, p)
        verify_sorted_output(m, atoms, out.addrs)

    def test_interleaved_duplicate_keys(self, p):
        m = AEMMachine.for_algorithm(p)
        uid = 0
        runs, all_atoms = [], []
        for _ in range(4):
            atoms = [Atom(k // 3, uid + t) for t, k in enumerate(range(60))]
            uid += 60
            all_atoms.extend(atoms)
            runs.append(Run.of(m.load_input(atoms), 60))
        out = multiway_merge(m, runs, p)
        verify_sorted_output(m, all_atoms, out.addrs)

    def test_rejects_fanin_beyond_omega_m(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [4] * (p.fanout + 1))
        with pytest.raises(ValueError, match="fan-in"):
            multiway_merge(m, runs, p)

    def test_internal_pointer_mode_same_result(self, p):
        m1 = AEMMachine.for_algorithm(p)
        runs1, atoms1 = build_runs(m1, [40, 60, 30], seed=5)
        out1 = multiway_merge(m1, runs1, p, pointer_mode="external")
        m2 = AEMMachine.for_algorithm(p)
        runs2, atoms2 = build_runs(m2, [40, 60, 30], seed=5)
        out2 = multiway_merge(m2, runs2, p, pointer_mode="internal")
        assert [a.uid for a in m1.collect_output(out1.addrs)] == [
            a.uid for a in m2.collect_output(out2.addrs)
        ]

    def test_unknown_pointer_mode(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [10])
        with pytest.raises(ValueError, match="pointer_mode"):
            multiway_merge(m, runs, p, pointer_mode="quantum")


class TestLemma31:
    def test_active_runs_never_exceed_m(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [300] * 4)
        stats = MergeStats()
        multiway_merge(m, runs, p, stats=stats)
        assert 0 < stats.max_active <= p.m

    def test_active_runs_bounded_at_full_fanout(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [60] * p.fanout)
        stats = MergeStats()
        multiway_merge(m, runs, p, stats=stats)
        assert stats.max_active <= p.m


class TestTheorem32:
    def test_cost_bounds_full_fanout(self, p):
        m = AEMMachine.for_algorithm(p)
        per = 50
        runs, _ = build_runs(m, [per] * p.fanout)
        N = per * p.fanout
        multiway_merge(m, runs, p)
        n = p.n(N)
        # Theorem 3.2: O(omega(n+m)) reads, O(n+m) writes. Constants from
        # the implementation: <= ~8 for reads, <= ~3 for writes.
        assert m.reads <= 8 * p.omega * (n + p.m)
        assert m.writes <= 3 * (n + p.m)

    def test_rounds_emit_m_atoms(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [100] * 4)
        stats = MergeStats()
        multiway_merge(m, runs, p, stats=stats)
        # Every non-final round outputs exactly M atoms.
        for r in stats.rounds[:-1]:
            assert r.emitted == p.M
        assert sum(r.emitted for r in stats.rounds) == 400

    def test_memory_peak_bounded(self, p):
        m = AEMMachine.for_algorithm(p)
        runs, _ = build_runs(m, [100] * p.fanout)
        multiway_merge(m, runs, p)
        assert m.mem.peak <= 4 * p.M

    def test_write_cost_independent_of_omega(self):
        # Same data merged under different omega: writes should not grow.
        writes = []
        for omega in (1, 16):
            p = AEMParams(M=32, B=4, omega=omega)
            m = AEMMachine.for_algorithm(p)
            runs, _ = build_runs(m, [100] * 8, seed=3)
            multiway_merge(m, runs, p)
            writes.append(m.writes)
        assert writes[1] <= 1.5 * writes[0]


class PointerLogMeter(MachineObserver):
    """Counts "pointer log" word acquisitions as they happen, with their
    ``what`` labels exact and in order."""

    def __init__(self):
        self.words = 0
        self.events = 0

    def on_acquire(self, k, what):
        if what == "pointer log":
            self.words += k
            self.events += 1


class TestPointerLogAccounting:
    """Phase B/E pointer-log budget: the merge logs (block, max) pairs for
    pointer advancement and must release every word in Phase E — total
    acquisitions stay O(n) words, the paper's pointer-write budget.
    Catches double-acquire drift at the two Phase B sites and the Phase C
    site in src/repro/sorting/merge.py."""

    @pytest.mark.parametrize("fanin", [2, 4, 8])
    def test_budget_and_balance_across_fanin_sweep(self, fanin):
        p = AEMParams(M=32, B=4, omega=8)
        meter = PointerLogMeter()
        m = AEMMachine.for_algorithm(p, observers=[meter])
        runs, atoms = build_runs(m, [60] * fanin, seed=fanin)
        out = multiway_merge(m, runs, p)
        total = sum(r.length for r in runs)
        n_blocks = sum(r.blocks for r in runs)
        rounds = -(-total // p.M)  # ceil
        # Every log entry is 2 words; Phase B adds at most 2 entries per
        # active run (<= m of them) per round, Phase C one entry per data
        # block read. Each data block contributes O(1) entries overall.
        budget = 4 * n_blocks + 8 * p.m * rounds
        assert meter.words > 0, "merge never logged a pointer entry"
        assert meter.words <= budget, (
            f"pointer log acquired {meter.words} words, budget {budget} "
            f"(fanin={fanin}, blocks={n_blocks}, rounds={rounds})"
        )
        # Balance: Phase E released everything (no leaked log words).
        assert m.mem.occupancy == 0
        verify_sorted_output(m, atoms, list(out.addrs))

    def test_log_words_scale_linearly_not_quadratically(self):
        p = AEMParams(M=32, B=4, omega=8)
        words = []
        for scale in (1, 2, 4):
            meter = PointerLogMeter()
            m = AEMMachine.for_algorithm(p, observers=[meter])
            runs, _ = build_runs(m, [60 * scale] * 4, seed=9)
            multiway_merge(m, runs, p)
            words.append(meter.words)
        # Doubling the data at fixed fan-in should roughly double the log
        # traffic — allow 3x slack per doubling, far below quadratic.
        assert words[1] <= 3 * words[0]
        assert words[2] <= 3 * words[1]


# ----------------------------------------------------------------------
# The round buffer against the per-atom selection model.
# ----------------------------------------------------------------------
def reference_feed(buffer, blk, threshold, M):
    """The per-atom insort/evict selection: the round buffer's reference.

    Merges one block's atoms into the sorted ``buffer`` (at most M
    atoms, strictly above ``threshold``): one touch per atom, one release
    per rejected or evicted atom. Returns the block's (touches, releases).
    """
    touches = releases = 0
    for atom in blk:
        touches += 1
        if threshold is not None and atom.sort_token() <= threshold:
            releases += 1
        elif len(buffer) < M:
            insort(buffer, atom)
        elif atom < buffer[-1]:
            buffer.pop()  # evict the largest candidate
            insort(buffer, atom)
            releases += 1
        else:
            releases += 1
    return touches, releases


class Tally:
    """Stands in for the machine: the round buffer only touches and releases."""

    def __init__(self):
        self.touches = self.releases = 0

    def touch(self, k):
        self.touches += k

    def release(self, k):
        self.releases += k


@st.composite
def selection_cases(draw):
    """Sorted blocks of atoms with duplicate keys, a threshold and an M."""
    keys = draw(st.lists(st.integers(0, 12), min_size=1, max_size=80))
    atoms = make_atoms(keys)
    order = draw(st.permutations(range(len(atoms))))
    cuts = sorted(draw(st.lists(st.integers(1, len(atoms)), max_size=12)))
    blocks, lo = [], 0
    for hi in cuts + [len(atoms)]:
        if hi > lo:
            blocks.append(sorted(atoms[i] for i in order[lo:hi]))
            lo = hi
    threshold = draw(
        st.none() | st.sampled_from([a.sort_token() for a in atoms])
    )
    return blocks, threshold, draw(st.integers(1, 24))


class TestRoundBufferMatchesPerAtomModel:
    """Both machine modes run the merge's block-at-a-time kernel; the
    per-atom loop is its reference: same buffer after every block, same
    touch and release totals per block."""

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    @settings(max_examples=60, deadline=None)
    @given(case=selection_cases())
    def test_settled_after_every_block(self, counting, case):
        blocks, threshold, M = case
        model, tally = [], Tally()
        key = None if counting else Atom.sort_token
        buf = RoundBuffer(tally, M, threshold, key)
        for blk in blocks:
            expected = reference_feed(model, blk, threshold, M)
            before = (tally.touches, tally.releases)
            buf.feed([a.sort_token() for a in blk] if counting else blk)
            buf.settle()
            got = (tally.touches - before[0], tally.releases - before[1])
            assert got == expected
            assert buf.tokens == [a.sort_token() for a in model]
            assert buf.atoms == (buf.tokens if counting else model)
            assert buf.held == len(model)

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    @settings(max_examples=60, deadline=None)
    @given(case=selection_cases())
    def test_settled_once_per_round(self, counting, case):
        # Phase A: every block fed first, one selection at the end.
        blocks, threshold, M = case
        model, tally = [], Tally()
        key = None if counting else Atom.sort_token
        buf = RoundBuffer(tally, M, threshold, key)
        for blk in blocks:
            expected = reference_feed(model, blk, threshold, M)
            before = (tally.touches, tally.releases)
            buf.feed([a.sort_token() for a in blk] if counting else blk)
            assert (tally.touches - before[0], tally.releases - before[1]) == expected
            assert buf.held == len(model)
        buf.settle()
        assert buf.tokens == [a.sort_token() for a in model]
        assert buf.atoms == (buf.tokens if counting else model)
