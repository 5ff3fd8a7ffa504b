"""AEMMachine: the core simulator's I/O semantics, costs, and tracing."""

import pytest

from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.errors import BlockSizeError, CapacityError
from repro.observe import TraceRecorder
from repro.trace.ops import ReadOp, WriteOp


@pytest.fixture
def m():
    return AEMMachine(AEMParams(M=32, B=4, omega=4))


class TestCosts:
    def test_read_costs_one(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        m.read(addrs[0])
        assert m.cost == 1 and m.reads == 1

    def test_write_costs_omega(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        blk = m.read(addrs[0])
        m.write_fresh(blk)
        assert m.cost == 1 + 4

    def test_load_input_is_free(self, m):
        m.load_input(make_atoms(range(40)))
        assert m.cost == 0

    def test_collect_output_is_free(self, m):
        addrs = m.load_input(make_atoms(range(8)))
        out = m.collect_output(addrs)
        assert m.cost == 0 and len(out) == 8

    def test_peek_costs_one_but_keeps_nothing(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        m.peek(addrs[0])
        assert m.reads == 1 and m.mem.occupancy == 0


class TestMemorySemantics:
    def test_read_stages_atoms(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        m.read(addrs[0])
        assert m.mem.occupancy == 4

    def test_write_releases_atoms(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        blk = m.read(addrs[0])
        m.write_fresh(blk)
        assert m.mem.occupancy == 0

    def test_release_frees_staged(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        blk = m.read(addrs[0])
        m.release(blk)
        assert m.mem.occupancy == 0

    def test_capacity_enforced_on_read(self):
        machine = AEMMachine(AEMParams(M=4, B=4, omega=1))
        addrs = machine.load_input(make_atoms(range(8)))
        machine.read(addrs[0])
        with pytest.raises(CapacityError):
            machine.read(addrs[1])

    def test_enforcement_can_be_disabled(self):
        machine = AEMMachine(AEMParams(M=4, B=4, omega=1), enforce_capacity=False)
        addrs = machine.load_input(make_atoms(range(8)))
        machine.read(addrs[0])
        machine.read(addrs[1])
        assert machine.mem.peak == 8

    def test_oversized_write_rejected(self, m):
        atoms = make_atoms(range(5))
        m.acquire(atoms)
        with pytest.raises(BlockSizeError):
            m.write_fresh(atoms)

    def test_read_is_copy_not_move(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        blk = m.read(addrs[0])
        m.release(blk)
        assert len(m.disk.get(addrs[0])) == 4


class TestForAlgorithm:
    def test_slack_multiplies_capacity(self):
        p = AEMParams(M=64, B=8, omega=4)
        machine = AEMMachine.for_algorithm(p, slack=4.0)
        assert machine.params.M == 256

    def test_slack_floors_at_block(self):
        p = AEMParams(M=8, B=8)
        machine = AEMMachine.for_algorithm(p, slack=0.01)
        assert machine.params.M >= 8


class TestTracing:
    def test_trace_records_ops_in_order(self):
        machine = AEMMachine(AEMParams(M=32, B=4, omega=2), observers=[TraceRecorder()])
        addrs = machine.load_input(make_atoms(range(4)))
        blk = machine.read(addrs[0])
        out = machine.write_fresh(blk)
        assert len(machine.trace) == 2
        assert isinstance(machine.trace[0], ReadOp)
        assert isinstance(machine.trace[1], WriteOp)
        assert machine.trace[0].addr == addrs[0]
        assert machine.trace[1].addr == out

    def test_trace_captures_uids_and_items(self):
        machine = AEMMachine(AEMParams(M=32, B=4, omega=2), observers=[TraceRecorder()])
        atoms = make_atoms([10, 20])
        addrs = machine.load_input(atoms)
        blk = machine.read(addrs[0])
        machine.write_fresh(blk)
        assert machine.trace[0].uids == (0, 1)
        assert machine.trace[1].items == tuple(blk)

    def test_no_recording_by_default(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        m.peek(addrs[0])
        assert m.trace == []

    def test_phase_scoping(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        with m.phase("work"):
            m.peek(addrs[0])
        assert m.counter.phase_snapshot("work").reads == 1
