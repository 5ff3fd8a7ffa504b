"""The model sanitizers: injected violations are caught, clean runs pass.

Each live sanitizer gets a test that synthetically breaks *exactly its*
invariant — overfull memory, a read of a block nothing wrote, a
mis-charged I/O, a tampered ledger, a non-empty round boundary, a forged
reduction report — and asserts the targeted sanitizer flags it while the
others stay clean. Hypothesis drives the magnitudes so the checks hold
across the violation space, not just one hand-picked instance.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.atom import Atom, make_atoms
from repro.core.params import AEMParams
from repro.flashred.reduction import FlashReductionReport, lemma_4_3_bound
from repro.machine.aem import AEMMachine
from repro.sanitize import (
    MAX_VIOLATIONS,
    CapacitySanitizer,
    CostSanitizer,
    ReductionSanitizer,
    RoundFormProgramSanitizer,
    RoundFormSanitizer,
    SanitizerError,
    SanitizerSuite,
    attach_sanitizers,
)
from repro.sanitize.runner import BATTERY_PARAMS, _permute_program
from repro.sorting.mergesort import aem_mergesort

P = AEMParams(M=64, B=8, omega=4)


def sanitized(machine: AEMMachine) -> SanitizerSuite:
    return attach_sanitizers(machine)


def rules_flagged(suite: SanitizerSuite) -> set[str]:
    return {v.rule for v in suite.violations}


def run_sort(machine: AEMMachine, n: int = 120) -> None:
    atoms = make_atoms([(n - i) % 17 for i in range(n)])
    addrs = machine.load_input(atoms)
    aem_mergesort(machine, addrs, P)


# ----------------------------------------------------------------------
# Clean runs: a real algorithm under the full suite raises nothing.
# ----------------------------------------------------------------------
class TestCleanRuns:
    def test_real_sort_is_clean(self):
        machine = AEMMachine.for_algorithm(P)
        suite = sanitized(machine)
        run_sort(machine)
        assert suite.ok
        suite.verify()  # must not raise

    def test_fixture_clean_run(self, sanitized_machine, p_small):
        machine = sanitized_machine(p_small)
        run_sort(machine, n=60)

    def test_suite_getitem_and_describe(self):
        machine = AEMMachine.for_algorithm(P)
        suite = sanitized(machine)
        run_sort(machine, n=40)
        assert isinstance(suite[CostSanitizer], CostSanitizer)
        assert suite[CapacitySanitizer].peak > 0
        assert "clean" in suite.describe()
        with pytest.raises(KeyError):
            suite[RoundFormSanitizer]


# ----------------------------------------------------------------------
# CAPACITY: overfull internal memory, oversized block transfers.
# ----------------------------------------------------------------------
class TestCapacitySanitizer:
    @settings(max_examples=15, deadline=None)
    @given(extra_blocks=st.integers(min_value=1, max_value=6))
    def test_overfull_memory_is_flagged(self, extra_blocks):
        # Enforcement off: the machine happily exceeds M; the sanitizer,
        # watching from the outside, must not.
        machine = AEMMachine(P, enforce_capacity=False)
        suite = sanitized(machine)
        blocks_to_overflow = P.M // P.B + extra_blocks
        addrs = machine.load_input(make_atoms(range(blocks_to_overflow * P.B)))
        for a in addrs:
            machine.read(a)  # atoms stay resident; occupancy climbs past M
        assert "CAPACITY" in rules_flagged(suite)
        assert rules_flagged(suite) == {"CAPACITY"}
        cap = suite[CapacitySanitizer]
        assert cap.peak == blocks_to_overflow * P.B > P.M
        with pytest.raises(SanitizerError):
            suite.verify()

    def test_oversized_block_is_flagged(self):
        machine = AEMMachine(P, enforce_capacity=False)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        fat = make_atoms(range(1000, 1000 + P.B + 3))
        # Emit a raw oversized transfer on the bus, B+3 atoms in one I/O.
        machine.core.emit_write(addrs[0], fat, P.omega)
        assert any(
            "exceeds" in v.message and v.rule == "CAPACITY"
            for v in suite.violations
        )

    def test_clean_machine_not_flagged(self):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(3 * P.B)))
        for a in addrs:
            items = machine.read(a)
            machine.write(a, items)
        assert suite.ok


# ----------------------------------------------------------------------
# COST: per-event mischarges and after-the-fact ledger tampering.
# ----------------------------------------------------------------------
class TestCostSanitizer:
    # Injects cost violations on purpose; REPRO_SANITIZE=1 must not
    # re-flag them at teardown.
    pytestmark = pytest.mark.no_sanitize
    @settings(max_examples=15, deadline=None)
    @given(wrong=st.floats(min_value=0.0, max_value=100.0).filter(
        lambda c: abs(c - 1.0) > 1e-6))
    def test_miscounted_read_cost_is_flagged(self, wrong):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        items = machine.disk.get(addrs[0])
        machine.core.emit_read(addrs[0], items, wrong)  # model says cost 1
        assert rules_flagged(suite) == {"COST"}
        assert any("charged" in v.message for v in suite.violations)

    def test_miscounted_write_cost_is_flagged(self):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        items = machine.read(addrs[0])  # read first: provenance stays clean
        machine.core.emit_write(addrs[0], items, P.omega / 2)
        assert rules_flagged(suite) == {"COST"}

    @settings(max_examples=10, deadline=None)
    @given(delta=st.integers(min_value=1, max_value=50))
    def test_ledger_tampering_is_flagged(self, delta):
        machine = AEMMachine.for_algorithm(P)
        suite = sanitized(machine)
        run_sort(machine, n=40)
        machine.counter.reads += delta  # cook the books after the run
        assert "COST" in rules_flagged(suite)
        assert any("Qr" in v.message for v in suite.violations)
        assert "CAPACITY" not in rules_flagged(suite)
        assert "PROVENANCE" not in rules_flagged(suite)

    def test_cost_charged_to_the_wrong_path_is_flagged(self):
        """Same totals, same innermost phase, wrong path: the ledger is
        told of a phase the bus never opened."""
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        machine.counter.enter_phase("elsewhere")
        with machine.phase("scan"):
            machine.release(machine.read(addrs[0]))
        machine.counter.exit_phase("elsewhere")
        assert rules_flagged(suite) == {"COST"}
        messages = [v.message for v in suite.violations]
        assert any("'scan' seen on the bus but missing" in m for m in messages)
        assert any("'elsewhere/scan': ledger says reads=1" in m for m in messages)

    def test_cost_moved_between_paths_is_flagged(self):
        """Same counts and totals per path, but a unit of read cost moved
        from outside any phase into ``scan``."""
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        with machine.phase("scan"):
            machine.release(machine.read(addrs[0]))
            machine.counter.add_read(0, cost=1)
        machine.counter.add_read(0, cost=-1)
        assert rules_flagged(suite) == {"COST"}
        messages = [v.message for v in suite.violations]
        assert any("'scan': ledger says reads=1 writes=0 read_cost=2" in m for m in messages)
        assert any("'(no phase)': ledger says reads=0 writes=0 read_cost=-1" in m for m in messages)

    def test_recomputed_totals_match_ledger(self):
        machine = AEMMachine.for_algorithm(P)
        suite = sanitized(machine)
        run_sort(machine)
        cost = suite[CostSanitizer]
        assert cost.reads == machine.reads
        assert cost.writes == machine.writes
        assert cost.Q == pytest.approx(machine.cost)
        assert any(cost.phases)  # the sort runs under named phases


# ----------------------------------------------------------------------
# PROVENANCE: reads of unwritten blocks, teleported atoms.
# ----------------------------------------------------------------------
class TestProvenanceSanitizer:
    pytestmark = pytest.mark.no_sanitize
    def test_read_of_never_written_block_is_flagged(self):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        machine.load_input(make_atoms(range(P.B)))
        ghost = [Atom(0, uid=10_000)]
        machine.core.emit_read(777_777, ghost, 1)  # nothing ever wrote 777777
        assert rules_flagged(suite) == {"PROVENANCE"}
        assert any("neither" in v.message for v in suite.violations)

    def test_teleported_atom_is_flagged(self):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(2 * P.B)))
        machine.read(addrs[0])  # ensure the lazy snapshot is taken
        smuggled = machine.disk.get(addrs[1])  # input atoms, never read
        machine.core.emit_write(addrs[0], smuggled, P.omega)
        assert rules_flagged(suite) == {"PROVENANCE"}
        assert any("teleported" in v.message for v in suite.violations)

    def test_read_after_write_is_clean(self):
        machine = AEMMachine(P)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(P.B)))
        items = machine.read(addrs[0])
        fresh = machine.write_fresh(items)  # write releases the atoms
        machine.read(fresh)
        machine.release(len(items))
        assert suite.ok

    def test_program_output_completeness(self):
        program = _permute_program(128, "naive")
        from repro.sanitize import ProgramProvenanceSanitizer

        assert ProgramProvenanceSanitizer().check_program(program) == []


# ----------------------------------------------------------------------
# ROUNDFORM: Lemma 4.1's normal form, live and on recorded programs.
# ----------------------------------------------------------------------
class TestRoundFormSanitizer:
    def test_nonempty_boundary_is_flagged(self):
        machine = AEMMachine(P)
        rf = machine.attach(RoundFormSanitizer())
        addrs = machine.load_input(make_atoms(range(P.B)))
        machine.read(addrs[0])  # atoms stay resident...
        machine.round_boundary()  # ...across the declared boundary
        assert not rf.ok
        assert any("still in" in v.message for v in rf.violations)

    @settings(max_examples=10, deadline=None)
    @given(reads=st.integers(min_value=2, max_value=8))
    def test_over_budget_round_is_flagged(self, reads):
        machine = AEMMachine(P)
        rf = machine.attach(RoundFormSanitizer(budget=1))
        addrs = machine.load_input(make_atoms(range(reads * P.B)))
        for a in addrs:
            machine.peek(a)  # cost `reads` > budget 1, memory stays empty
        machine.round_boundary()
        assert not rf.ok
        assert any("budget" in v.message for v in rf.violations)
        assert rf.max_round_cost == pytest.approx(reads)

    def test_trailing_partial_round_checked_at_finalize(self):
        machine = AEMMachine(P)
        rf = machine.attach(RoundFormSanitizer(budget=1))
        addrs = machine.load_input(make_atoms(range(3 * P.B)))
        for a in addrs:
            machine.peek(a)
        # No boundary declared: _finalize must still audit the open round.
        with pytest.raises(SanitizerError):
            rf.verify()

    def test_drained_boundary_is_clean(self):
        machine = AEMMachine(P)
        rf = machine.attach(RoundFormSanitizer())
        addrs = machine.load_input(make_atoms(range(P.B)))
        items = machine.read(addrs[0])
        machine.write(addrs[0], items)
        machine.round_boundary()
        assert rf.ok
        assert rf.rounds == 1

    def test_converted_program_passes_raw_program_fails(self):
        from repro.rounds.convert import to_round_based

        program = _permute_program(128, "naive")
        converted, _ = to_round_based(program)
        assert (
            RoundFormProgramSanitizer().check_program(
                converted, reference=program
            )
            == []
        )
        # The unconverted program cannot satisfy a tiny round budget.
        found = RoundFormProgramSanitizer().check_program(program, budget=1)
        assert found and found[0].rule == "ROUNDFORM"


# ----------------------------------------------------------------------
# REDUCTION: Lemma 4.3's volume bound on real and forged reports.
# ----------------------------------------------------------------------
class TestReductionSanitizer:
    def test_real_reduction_is_clean(self):
        program = _permute_program(128, "naive")
        assert ReductionSanitizer().check_program(program) == []

    @settings(max_examples=15, deadline=None)
    @given(overrun=st.integers(min_value=1, max_value=10_000))
    def test_volume_overrun_is_flagged(self, overrun):
        N, Q, B, omega = 100, 500.0, BATTERY_PARAMS.B, BATTERY_PARAMS.omega
        bound = lemma_4_3_bound(N, Q, B, omega)
        forged = FlashReductionReport(
            N=N, aem_cost=Q, volume=int(bound) + overrun,
            read_volume=0, write_volume=0, read_ops=0, write_ops=0,
            bound=bound,
        )
        found = ReductionSanitizer().check_report(forged, B=B, omega=omega)
        assert found and all(v.rule == "REDUCTION" for v in found)
        assert any("exceeds" in v.message for v in found)

    def test_forged_bound_field_is_flagged(self):
        N, Q, B, omega = 100, 500.0, BATTERY_PARAMS.B, BATTERY_PARAMS.omega
        forged = FlashReductionReport(
            N=N, aem_cost=Q, volume=10,
            read_volume=5, write_volume=5, read_ops=1, write_ops=1,
            bound=1e9,  # inflated so any volume "passes"
        )
        found = ReductionSanitizer().check_report(forged, B=B, omega=omega)
        assert any("disagrees" in v.message for v in found)


# ----------------------------------------------------------------------
# Plumbing: error type, violation cap, pickling across process pools.
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_sanitizer_error_pickles(self):
        machine = AEMMachine(P, enforce_capacity=False)
        suite = sanitized(machine)
        addrs = machine.load_input(make_atoms(range(10 * P.B)))
        for a in addrs:
            machine.read(a)
        with pytest.raises(SanitizerError) as exc_info:
            suite.verify()
        clone = pickle.loads(pickle.dumps(exc_info.value))
        assert isinstance(clone, SanitizerError)
        assert clone.violations == exc_info.value.violations

    def test_violation_cap_suppresses_not_drops(self):
        machine = AEMMachine(P, enforce_capacity=False)
        cap = machine.attach(CapacitySanitizer())
        addrs = machine.load_input(
            make_atoms(range((P.M // P.B + MAX_VIOLATIONS + 10) * P.B))
        )
        for a in addrs:
            machine.read(a)
        assert len(cap.violations) == MAX_VIOLATIONS
        assert cap.suppressed > 0
        # describe() reports the true total, cap included.
        assert str(MAX_VIOLATIONS + cap.suppressed) in cap.describe()

    def test_flash_machine_gets_volume_costs(self):
        from repro.machine.flash import FlashMachine

        fm = FlashMachine.for_aem_reduction(M=64, B=8, omega=4)
        suite = attach_sanitizers(fm)
        cost = suite[CostSanitizer]
        assert cost.read_cost == fm.Br
        assert cost.write_cost == fm.Bw
