"""Regime analysis: case boundaries and crossover detection."""

from repro.core.params import AEMParams
from repro.core.regimes import (
    Crossover,
    Regime,
    boundary_B,
    classify,
    find_crossover,
    min_branch,
    upper_bound_winner,
)


class TestBoundary:
    def test_grows_with_omega(self):
        N = 1 << 16
        b1 = boundary_B(N, AEMParams(M=64, B=8, omega=2))
        b2 = boundary_B(N, AEMParams(M=64, B=8, omega=16))
        assert b2 > b1

    def test_grows_with_n(self):
        p = AEMParams(M=64, B=8, omega=4)
        assert boundary_B(1 << 20, p) > boundary_B(1 << 10, p)

    def test_tiny_n_zero(self):
        assert boundary_B(1, AEMParams(M=64, B=8)) == 0.0


class TestClassify:
    def test_big_block_is_sorting_case(self):
        p = AEMParams(M=1024, B=128, omega=2)
        assert classify(1 << 16, p) is Regime.SORTING

    def test_small_block_huge_omega_is_naive_case(self):
        p = AEMParams(M=16, B=2, omega=64)
        assert classify(1 << 16, p) is Regime.NAIVE

    def test_min_branch_consistent_with_terms(self):
        # Wherever the sorting term is tiny, the min takes it.
        p = AEMParams(M=1024, B=128, omega=1)
        assert min_branch(1 << 20, p) is Regime.SORTING
        p2 = AEMParams(M=8, B=2, omega=64)
        assert min_branch(1 << 20, p2) is Regime.NAIVE

    def test_upper_bound_winner_matches_shapes(self):
        p = AEMParams(M=512, B=64, omega=8)
        assert upper_bound_winner(1 << 14, p) in (Regime.NAIVE, Regime.SORTING)


class TestCrossover:
    def test_finds_first_flip(self):
        c = find_crossover([1, 2, 3, 4, 5], lambda x: x >= 3, "x")
        assert c.at == 3 and c.before == 2

    def test_never_flips(self):
        c = find_crossover([1, 2], lambda x: False)
        assert c.flip_index is None and c.at is None and c.before is None

    def test_flips_at_start(self):
        c = find_crossover([1, 2], lambda x: True)
        assert c.at == 1 and c.before is None

    def test_is_dataclass_record(self):
        c = Crossover(parameter="B", values=(1, 2), flip_index=1)
        assert c.at == 2
