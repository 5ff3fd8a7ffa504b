"""FlashMachine: the unit-cost flash model of Ajwani et al. (Section 4.1)."""

import pytest

from repro.machine.errors import BlockSizeError, ModelViolationError
from repro.machine.flash import FlashMachine


class TestConstruction:
    def test_basic(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        assert fm.reads_per_write_block == 4

    def test_rejects_misaligned_blocks(self):
        with pytest.raises(ModelViolationError):
            FlashMachine(M=64, Br=3, Bw=8)

    def test_rejects_memory_below_write_block(self):
        with pytest.raises(ValueError):
            FlashMachine(M=4, Br=2, Bw=8)

    def test_for_aem_reduction_instantiation(self):
        fm = FlashMachine.for_aem_reduction(M=64, B=8, omega=4)
        assert fm.Br == 2 and fm.Bw == 8

    def test_reduction_requires_b_greater_than_omega(self):
        with pytest.raises(ModelViolationError, match="B > omega"):
            FlashMachine.for_aem_reduction(M=64, B=4, omega=4)

    def test_reduction_requires_divisibility(self):
        with pytest.raises(ModelViolationError, match="omega"):
            FlashMachine.for_aem_reduction(M=64, B=10, omega=4)

    def test_reduction_requires_integer_omega(self):
        with pytest.raises(ModelViolationError):
            FlashMachine.for_aem_reduction(M=64, B=8, omega=2.5)  # type: ignore


class TestVolumeAccounting:
    def test_write_costs_bw(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        fm.write_fresh(list(range(8)))
        assert fm.volume == 8 and fm.write_ops == 1

    def test_read_small_costs_br(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        got = fm.read_small(addr, 1)
        assert got == (2, 3)
        assert fm.read_volume == 2 and fm.read_ops == 1

    def test_read_small_out_of_range(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        with pytest.raises(ModelViolationError):
            fm.read_small(addr, 4)

    def test_oversized_write_rejected(self):
        fm = FlashMachine(M=64, Br=2, Bw=4)
        with pytest.raises(BlockSizeError):
            fm.write_fresh(list(range(5)))


class TestCoveringReads:
    def test_exact_alignment_reads_minimum(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        got = fm.read_covering(addr, 2, 6)
        assert got == (2, 3, 4, 5)
        assert fm.read_ops == 2

    def test_misaligned_interval_over_covers(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        got = fm.read_covering(addr, 1, 3)
        assert got == (0, 1, 2, 3)  # two small blocks cover [1, 3)
        assert fm.read_ops == 2

    def test_empty_interval_is_free(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        assert fm.read_covering(addr, 3, 3) == ()
        assert fm.read_ops == 0

    def test_bad_interval_rejected(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addr = fm.write_fresh(list(range(8)))
        with pytest.raises(ModelViolationError):
            fm.read_covering(addr, 5, 3)
        with pytest.raises(ModelViolationError):
            fm.read_covering(addr, 0, 9)

    def test_at_most_two_partial_small_blocks(self):
        # The Lemma 4.3 argument: a covering read wastes at most 2*Br.
        fm = FlashMachine(M=64, Br=4, Bw=16)
        addr = fm.write_fresh(list(range(16)))
        for lo in range(16):
            for hi in range(lo, 17):
                before = fm.read_volume
                fm.read_covering(addr, lo, hi)
                if hi > lo:
                    assert fm.read_volume - before <= (hi - lo) + 2 * fm.Br


class TestIO:
    def test_load_and_collect(self):
        fm = FlashMachine(M=64, Br=2, Bw=8)
        addrs = fm.load_input(list(range(20)))
        assert fm.collect_output(addrs) == list(range(20))
        assert fm.volume == 0  # placement is the problem statement
