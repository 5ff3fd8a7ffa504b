"""The external priority queue: model-based and invariant tests."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.atoms.atom import Atom, make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.sorting.base import verify_sorted_output
from repro.structures.pq import ExternalPQ, PQError, pq_sort
from repro.workloads.generators import sort_input


@pytest.fixture
def p():
    return AEMParams(M=64, B=8, omega=4)


def fresh_pq(p, **kw):
    machine = AEMMachine.for_algorithm(p)
    return machine, ExternalPQ(machine, p, **kw)


class TestBasics:
    def test_empty_queue(self, p):
        machine, pq = fresh_pq(p)
        assert len(pq) == 0
        assert pq.peek() is None
        with pytest.raises(PQError):
            pq.pop()

    def test_push_pop_single(self, p):
        machine, pq = fresh_pq(p)
        pq.push_new(Atom(5, 0))
        assert len(pq) == 1
        assert pq.peek().key == 5
        got = pq.pop()
        assert got.key == 5 and len(pq) == 0
        machine.release(1)

    def test_pops_in_order_small(self, p):
        machine, pq = fresh_pq(p)
        for i, k in enumerate([5, 1, 4, 1, 3]):
            pq.push_new(Atom(k, i))
        keys = []
        while len(pq):
            keys.append(pq.pop().key)
            machine.release(1)
        assert keys == sorted([5, 1, 4, 1, 3])
        pq.close()
        assert machine.mem.occupancy == 0

    def test_spills_beyond_memory(self, p):
        machine, pq = fresh_pq(p)
        N = 10 * p.M  # far beyond any in-memory buffer
        for i in range(N):
            pq.push_new(Atom((i * 7919) % 1000, i))
        assert len(pq) == N
        assert machine.writes > 0  # runs were written out
        last = None
        for _ in range(N):
            atom = pq.pop()
            token = atom.sort_token()
            assert last is None or token > last
            last = token
            machine.release(1)
        pq.close()
        assert machine.mem.occupancy == 0

    def test_duplicate_keys_fifo_by_uid(self, p):
        machine, pq = fresh_pq(p)
        for i in range(3 * p.M):
            pq.push_new(Atom(7, i))
        uids = []
        while len(pq):
            uids.append(pq.pop().uid)
            machine.release(1)
        assert uids == sorted(uids)
        pq.close()

    def test_close_releases_everything(self, p):
        machine, pq = fresh_pq(p)
        for i in range(5 * p.M):
            pq.push_new(Atom(i % 97, i))
        pq.pop()
        machine.release(1)
        pq.close()
        assert machine.mem.occupancy == 0
        assert len(pq) == 0

    def test_rejects_tiny_fan_in(self, p):
        machine = AEMMachine.for_algorithm(p)
        with pytest.raises(PQError):
            ExternalPQ(machine, p, fan_in=1)

    def test_delete_buffer_trim_path(self, p):
        """Force a spill whose below-threshold part overflows the delete
        buffer, exercising the trim-into-own-run branch."""
        machine, pq = fresh_pq(p, insert_capacity=8, delete_capacity=8)
        uid = 0
        # Stage: large keys spill to runs, then a refill fills the delete
        # buffer with the smallest of them.
        for k in range(40):
            pq.push_new(Atom(1_000 + k, uid))
            uid += 1
        first = pq.pop()  # triggers a refill
        machine.release(1)
        assert first.key == 1_000
        # Now push many keys *below* the delete-buffer maximum: the next
        # spill must merge them in and trim the overflow into a run.
        for k in range(30):
            pq.push_new(Atom(k, uid))
            uid += 1
        expected = sorted([1_000 + k for k in range(1, 40)] + list(range(30)))
        got = []
        while len(pq):
            got.append(pq.pop().key)
            machine.release(1)
        assert got == expected
        pq.close()
        assert machine.mem.occupancy == 0

    def test_tiny_buffers_still_correct(self, p):
        machine, pq = fresh_pq(p, insert_capacity=p.B, delete_capacity=p.B)
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 500, 300).tolist()
        for i, k in enumerate(keys):
            pq.push_new(Atom(int(k), i))
        result = []
        while len(pq):
            result.append(pq.pop().key)
            machine.release(1)
        assert result == sorted(keys)
        pq.close()


class TestInterleaving:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleaving_matches_heap(self, p, seed):
        rng = np.random.default_rng(seed)
        machine, pq = fresh_pq(p)
        ref: list = []
        uid = 0
        for _ in range(2_000):
            if rng.random() < 0.6 or not ref:
                k = int(rng.integers(0, 10**6))
                pq.push_new(Atom(k, uid))
                heapq.heappush(ref, (k, uid))
                uid += 1
            else:
                got = pq.pop()
                machine.release(1)
                assert (got.key, got.uid) == heapq.heappop(ref)
        while ref:
            got = pq.pop()
            machine.release(1)
            assert (got.key, got.uid) == heapq.heappop(ref)
        pq.close()
        assert machine.mem.occupancy == 0

    def test_sawtooth_pattern(self, p):
        # Bursts of pushes then bursts of pops: exercises refill + spill
        # threshold interplay repeatedly.
        machine, pq = fresh_pq(p)
        ref: list = []
        uid = 0
        rng = np.random.default_rng(9)
        for burst in range(6):
            for _ in range(300):
                k = int(rng.integers(0, 10**6))
                pq.push_new(Atom(k, uid))
                heapq.heappush(ref, (k, uid))
                uid += 1
            for _ in range(200):
                got = pq.pop()
                machine.release(1)
                assert (got.key, got.uid) == heapq.heappop(ref)
        pq.close()


class TestPQSort:
    @pytest.mark.parametrize(
        "distribution", ["uniform", "sorted", "reversed", "few_distinct"]
    )
    def test_sorts(self, p, distribution):
        atoms = sort_input(1_500, distribution, np.random.default_rng(3))
        machine = AEMMachine.for_algorithm(p)
        addrs = machine.load_input(atoms)
        out = pq_sort(machine, addrs, p)
        verify_sorted_output(machine, atoms, out)
        assert machine.mem.occupancy == 0

    def test_cost_reasonable(self, p):
        atoms = sort_input(4_000, "uniform", np.random.default_rng(4))
        machine = AEMMachine.for_algorithm(p)
        addrs = machine.load_input(atoms)
        pq_sort(machine, addrs, p)
        n = p.n(4_000)
        # log_k levels with k = m-1: generous constant cap.
        assert machine.cost <= 30 * (1 + p.omega) * n

    def test_huge_omega(self):
        p = AEMParams(M=64, B=8, omega=64)
        atoms = sort_input(800, "uniform", np.random.default_rng(5))
        machine = AEMMachine.for_algorithm(p)
        addrs = machine.load_input(atoms)
        out = pq_sort(machine, addrs, p)
        verify_sorted_output(machine, atoms, out)


@settings(max_examples=20, deadline=None)
@given(
    keys=st.lists(st.integers(-100, 100), max_size=400),
    p=st.sampled_from(
        [AEMParams(M=16, B=4, omega=2), AEMParams(M=32, B=8, omega=4)]
    ),
)
def test_property_pq_sort_contract(keys, p):
    atoms = make_atoms(keys)
    machine = AEMMachine.for_algorithm(p)
    addrs = machine.load_input(atoms)
    out = pq_sort(machine, addrs, p)
    verify_sorted_output(machine, atoms, out)
    assert machine.mem.occupancy == 0


class PQMachine(RuleBasedStateMachine):
    """Stateful model test: the external PQ against a Python heap."""

    def __init__(self):
        super().__init__()
        self.params = AEMParams(M=16, B=4, omega=2)
        self.machine = AEMMachine.for_algorithm(self.params)
        self.pq = ExternalPQ(self.machine, self.params)
        self.model: list = []
        self.uid = 0

    @rule(key=st.integers(-50, 50))
    def push(self, key):
        self.pq.push_new(Atom(key, self.uid))
        heapq.heappush(self.model, (key, self.uid))
        self.uid += 1

    @precondition(lambda self: self.model)
    @rule()
    def pop(self):
        got = self.pq.pop()
        self.machine.release(1)
        assert (got.key, got.uid) == heapq.heappop(self.model)

    @rule()
    def peek(self):
        got = self.pq.peek()
        if self.model:
            assert (got.key, got.uid) == min(self.model)
        else:
            assert got is None

    @invariant()
    def sizes_agree(self):
        assert len(self.pq) == len(self.model)

    def teardown(self):
        self.pq.close()
        assert self.machine.mem.occupancy == 0


TestPQStateful = PQMachine.TestCase
TestPQStateful.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None
)
