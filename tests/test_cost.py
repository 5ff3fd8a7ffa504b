"""CostCounter and CostSnapshot: the Q = Qr + omega*Qw accounting."""

import pytest

from repro.machine.cost import CostCounter, CostSnapshot
from repro.machine.errors import PhaseError


class TestCounter:
    def test_starts_at_zero(self):
        c = CostCounter(omega=4)
        assert c.reads == 0 and c.writes == 0 and c.Q == 0

    def test_read_costs_one(self):
        c = CostCounter(omega=4)
        c.add_read()
        assert c.Q == 1

    def test_write_costs_omega(self):
        c = CostCounter(omega=4)
        c.add_write()
        assert c.Q == 4

    def test_combined_cost(self):
        c = CostCounter(omega=8)
        c.add_read(3)
        c.add_write(2)
        assert c.Q == 3 + 8 * 2
        assert c.io == 5

    def test_touch_not_in_cost(self):
        c = CostCounter(omega=4)
        c.touch(100)
        assert c.Q == 0 and c.touches == 100

    def test_rejects_negative(self):
        c = CostCounter()
        with pytest.raises(ValueError):
            c.add_read(-1)
        with pytest.raises(ValueError):
            c.add_write(-1)
        with pytest.raises(ValueError):
            c.touch(-1)

    def test_rejects_omega_below_one(self):
        with pytest.raises(ValueError):
            CostCounter(omega=0.5)


class TestSnapshots:
    def test_snapshot_diff_measures_region(self):
        c = CostCounter(omega=4)
        c.add_read(5)
        before = c.snapshot()
        c.add_read(2)
        c.add_write(1)
        delta = c.snapshot() - before
        assert delta.reads == 2 and delta.writes == 1 and delta.Q == 6

    def test_diff_requires_same_omega(self):
        a = CostSnapshot(1, 1, 0, omega=2)
        b = CostSnapshot(0, 0, 0, omega=4)
        with pytest.raises(ValueError):
            a - b

    def test_describe(self):
        snap = CostSnapshot(reads=2, writes=1, touches=0, omega=4)
        s = snap.describe()
        assert "Qr=2" in s and "Qw=1" in s and "Q=6" in s


class TestPhases:
    def test_phase_attribution(self):
        c = CostCounter(omega=4)
        with c.phase("a"):
            c.add_read(2)
        with c.phase("b"):
            c.add_write(1)
        assert c.phase_snapshot("a").reads == 2
        assert c.phase_snapshot("b").writes == 1
        assert c.phase_snapshot("a").writes == 0

    def test_nested_phase_goes_to_innermost(self):
        c = CostCounter()
        with c.phase("outer"):
            c.add_read()
            with c.phase("inner"):
                c.add_read()
        assert c.phase_snapshot("outer").reads == 1
        assert c.phase_snapshot("inner").reads == 1

    def test_unknown_phase_is_zero(self):
        c = CostCounter()
        assert c.phase_snapshot("nope").Q == 0

    def test_phase_reentry_accumulates(self):
        c = CostCounter()
        for _ in range(3):
            with c.phase("x"):
                c.add_read()
        assert c.phase_snapshot("x").reads == 3

    def test_phases_property(self):
        c = CostCounter()
        with c.phase("p"):
            c.add_write()
        assert set(c.phases) == {"p"}

    def test_explicit_enter_exit(self):
        c = CostCounter()
        c.enter_phase("scan")
        c.add_read()
        c.exit_phase("scan")
        assert c.phase_snapshot("scan").reads == 1

    def test_exit_without_enter_raises(self):
        c = CostCounter()
        with pytest.raises(PhaseError, match="no phase active"):
            c.exit_phase("scan")
        with pytest.raises(PhaseError, match="no phase active"):
            c.exit_phase()

    def test_mismatched_exit_raises(self):
        c = CostCounter()
        c.enter_phase("outer")
        c.enter_phase("inner")
        with pytest.raises(PhaseError, match="innermost"):
            c.exit_phase("outer")
        # attribution is uncorrupted: "inner" is still the active phase
        c.add_read()
        assert c.phase_snapshot("inner").reads == 1

    def test_anonymous_exit_pops_innermost(self):
        c = CostCounter()
        c.enter_phase("a")
        c.enter_phase("b")
        c.exit_phase()
        c.add_read()
        assert c.phase_snapshot("a").reads == 1
