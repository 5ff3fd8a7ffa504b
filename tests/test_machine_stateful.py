"""Stateful model test of the AEM machine itself.

Random interleavings of allocate/read/write/release/peek against a Python
model of the disk and the slot ledger: contents round-trip exactly, costs
count exactly, occupancy never drifts. This is the substrate every result
in the repository stands on, so it gets the adversarial treatment.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.atoms.atom import Atom
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.errors import CapacityError


class MachineModel(RuleBasedStateMachine):
    blocks = Bundle("blocks")

    def __init__(self):
        super().__init__()
        self.params = AEMParams(M=24, B=4, omega=3)
        self.machine = AEMMachine(self.params, record=True)
        self.disk_model: dict[int, tuple] = {}
        self.held = 0  # atoms we currently hold (model of occupancy)
        self.expected_reads = 0
        self.expected_writes = 0
        self.uid = 0

    # ----------------------------------------------------------------
    @rule(target=blocks, size=st.integers(0, 4))
    def allocate_and_write(self, size):
        """Create atoms in memory and write them to a fresh block."""
        if self.held + size > self.params.M:
            return None  # would overflow; skip (filtered by returning None)
        atoms = tuple(Atom(i, self.uid + i) for i in range(size))
        self.uid += size
        self.machine.acquire(size)
        addr = self.machine.write_fresh(list(atoms))
        self.expected_writes += 1
        self.disk_model[addr] = atoms
        return addr

    @rule(addr=blocks)
    def read_and_release(self, addr):
        if addr is None:
            return
        want = self.disk_model[addr]
        if self.held + len(want) > self.params.M:
            with pytest.raises(CapacityError):
                self.machine.read(addr)
            return
        got = self.machine.read(addr)
        self.expected_reads += 1
        assert tuple(got) == want
        self.machine.release(got)

    @rule(addr=blocks)
    def peek_matches(self, addr):
        if addr is None:
            return
        got = self.machine.peek(addr)
        self.expected_reads += 1
        assert tuple(got) == self.disk_model[addr]

    @rule(addr=blocks, extra=st.integers(0, 3))
    def overwrite(self, addr, extra):
        if addr is None:
            return
        if self.held + extra > self.params.M:
            return
        atoms = tuple(Atom(99, self.uid + i) for i in range(extra))
        self.uid += extra
        self.machine.acquire(extra)
        self.machine.write(addr, list(atoms))
        self.expected_writes += 1
        self.disk_model[addr] = atoms

    # ----------------------------------------------------------------
    @invariant()
    def ledger_exact(self):
        # Every rule fully releases what it acquires, so between rules the
        # machine ledger must agree with the model (both normally zero).
        assert self.machine.mem.occupancy == self.held

    @invariant()
    def costs_exact(self):
        assert self.machine.reads == self.expected_reads
        assert self.machine.writes == self.expected_writes
        assert self.machine.cost == (
            self.expected_reads + self.params.omega * self.expected_writes
        )

    @invariant()
    def trace_length_matches(self):
        assert len(self.machine.trace) == self.expected_reads + self.expected_writes

    @invariant()
    def disk_matches_model(self):
        for addr, want in self.disk_model.items():
            assert tuple(self.machine.disk.get(addr)) == want


TestMachineStateful = MachineModel.TestCase
TestMachineStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
