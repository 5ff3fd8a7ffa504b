"""External stack and queue: model tests and amortized cost bounds."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.atoms.atom import Atom
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.structures.stack_queue import (
    ExternalQueue,
    ExternalStack,
    StructureEmptyError,
)


@pytest.fixture
def p():
    return AEMParams(M=32, B=4, omega=4)


def fresh(p, cls):
    machine = AEMMachine.for_algorithm(p)
    return machine, cls(machine, p)


class TestStack:
    def test_lifo_order(self, p):
        machine, stack = fresh(p, ExternalStack)
        for i in range(50):
            stack.push_new(Atom(i, i))
        out = []
        while len(stack):
            out.append(stack.pop().key)
            machine.release(1)
        assert out == list(range(49, -1, -1))
        stack.close()
        assert machine.mem.occupancy == 0

    def test_empty_pop_raises(self, p):
        _, stack = fresh(p, ExternalStack)
        with pytest.raises(StructureEmptyError):
            stack.pop()

    def test_peek(self, p):
        machine, stack = fresh(p, ExternalStack)
        assert stack.peek() is None
        stack.push_new(Atom(7, 0))
        assert stack.peek().key == 7
        assert len(stack) == 1
        stack.close()

    def test_amortized_io_per_op(self, p):
        machine, stack = fresh(p, ExternalStack)
        ops = 2_000
        for i in range(ops):
            stack.push_new(Atom(i, i))
        while len(stack):
            stack.pop()
            machine.release(1)
        # Each atom crosses the boundary at most once each way.
        assert machine.reads <= ops / p.B + 2
        assert machine.writes <= ops / p.B + 2
        stack.close()

    def test_boundary_thrash_resistant(self, p):
        """Alternating push/pop at a block boundary must not cost one I/O
        per operation (the double-buffer property)."""
        machine, stack = fresh(p, ExternalStack)
        for i in range(2 * p.B - 1):
            stack.push_new(Atom(i, i))
        start = machine.counter.io
        for j in range(100):
            stack.push_new(Atom(999, 10_000 + j))
            got = stack.pop()
            machine.release(1)
            assert got.key == 999
        assert machine.counter.io - start <= 4
        stack.close()

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.integers(-1, 100), max_size=150))
    def test_property_matches_list(self, ops):
        p = AEMParams(M=16, B=4, omega=2)
        machine, stack = fresh(p, ExternalStack)
        model = []
        uid = 0
        for op in ops:
            if op >= 0:
                stack.push_new(Atom(op, uid))
                model.append((op, uid))
                uid += 1
            elif model:
                got = stack.pop()
                machine.release(1)
                assert (got.key, got.uid) == model.pop()
            assert len(stack) == len(model)
        stack.close()
        assert machine.mem.occupancy == 0


class TestQueue:
    def test_fifo_order(self, p):
        machine, q = fresh(p, ExternalQueue)
        for i in range(50):
            q.push_new(Atom(i, i))
        out = []
        while len(q):
            out.append(q.pop().key)
            machine.release(1)
        assert out == list(range(50))
        q.close()
        assert machine.mem.occupancy == 0

    def test_empty_pop_raises(self, p):
        _, q = fresh(p, ExternalQueue)
        with pytest.raises(StructureEmptyError):
            q.pop()

    def test_peek_variants(self, p):
        machine, q = fresh(p, ExternalQueue)
        assert q.peek() is None
        q.push_new(Atom(1, 0))
        assert q.peek().key == 1  # tail-only case
        for i in range(2, 2 + 3 * p.B):
            q.push_new(Atom(i, i))
        assert q.peek().key == 1  # via head/middle
        q.close()

    def test_amortized_io_per_op(self, p):
        machine, q = fresh(p, ExternalQueue)
        ops = 2_000
        for i in range(ops):
            q.push_new(Atom(i, i))
        while len(q):
            q.pop()
            machine.release(1)
        assert machine.reads <= ops / p.B + 2
        assert machine.writes <= ops / p.B + 2
        q.close()

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.integers(-1, 100), max_size=150))
    def test_property_matches_deque(self, ops):
        from collections import deque

        p = AEMParams(M=16, B=4, omega=2)
        machine, q = fresh(p, ExternalQueue)
        model: deque = deque()
        uid = 0
        for op in ops:
            if op >= 0:
                q.push_new(Atom(op, uid))
                model.append((op, uid))
                uid += 1
            elif model:
                got = q.pop()
                machine.release(1)
                assert (got.key, got.uid) == model.popleft()
            assert len(q) == len(model)
        q.close()
        assert machine.mem.occupancy == 0


class MixedStructureMachine(RuleBasedStateMachine):
    """Stateful: a stack and a queue sharing one machine's ledger."""

    def __init__(self):
        super().__init__()
        p = AEMParams(M=16, B=4, omega=2)
        self.machine = AEMMachine.for_algorithm(p, slack=8.0)
        self.stack = ExternalStack(self.machine, p)
        self.queue = ExternalQueue(self.machine, p)
        self.stack_model: list = []
        self.queue_model: list = []
        self.uid = 0

    @rule(key=st.integers(0, 99))
    def push_stack(self, key):
        self.stack.push_new(Atom(key, self.uid))
        self.stack_model.append((key, self.uid))
        self.uid += 1

    @rule(key=st.integers(0, 99))
    def push_queue(self, key):
        self.queue.push_new(Atom(key, self.uid))
        self.queue_model.append((key, self.uid))
        self.uid += 1

    @precondition(lambda self: self.stack_model)
    @rule()
    def pop_stack(self):
        got = self.stack.pop()
        self.machine.release(1)
        assert (got.key, got.uid) == self.stack_model.pop()

    @precondition(lambda self: self.queue_model)
    @rule()
    def pop_queue(self):
        got = self.queue.pop()
        self.machine.release(1)
        assert (got.key, got.uid) == self.queue_model.pop(0)

    @invariant()
    def sizes_agree(self):
        assert len(self.stack) == len(self.stack_model)
        assert len(self.queue) == len(self.queue_model)

    def teardown(self):
        self.stack.close()
        self.queue.close()
        assert self.machine.mem.occupancy == 0


TestMixedStateful = MixedStructureMachine.TestCase
TestMixedStateful.settings = __import__("hypothesis").settings(
    max_examples=20, stateful_step_count=50, deadline=None
)
