"""The Section 3 AEM mergesort end to end."""

import numpy as np
import pytest

from repro.core.bounds import sort_read_shape, sort_upper_shape, sort_write_shape
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.errors import CapacityError
from repro.sorting.base import verify_sorted_output
from repro.sorting.merge import MergeStats
from repro.sorting.mergesort import aem_mergesort, pointer_mergesort
from repro.workloads.generators import sort_input


def run_sort(p, N, *, distribution="uniform", seed=0, slack=4.0, sorter=aem_mergesort, **kw):
    atoms = sort_input(N, distribution, np.random.default_rng(seed))
    m = AEMMachine.for_algorithm(p, slack=slack)
    addrs = m.load_input(atoms)
    out = sorter(m, addrs, p, **kw)
    verify_sorted_output(m, atoms, out)
    return m


@pytest.fixture
def p():
    return AEMParams(M=64, B=8, omega=4)


class TestCorrectness:
    @pytest.mark.parametrize(
        "distribution", ["uniform", "sorted", "reversed", "few_distinct", "zipf"]
    )
    def test_sorts_every_distribution(self, p, distribution):
        run_sort(p, 1_500, distribution=distribution)

    @pytest.mark.parametrize("N", [0, 1, 7, 8, 9, 255, 256, 257, 1000])
    def test_boundary_sizes(self, p, N):
        run_sort(p, N)  # 256 = omega*M is the base-case boundary

    def test_symmetric_em_case(self):
        run_sort(AEMParams(M=64, B=8, omega=1), 2_000)

    def test_aram_case(self):
        run_sort(AEMParams.aram(32, 8), 400)

    def test_huge_omega(self):
        run_sort(AEMParams(M=64, B=8, omega=64), 3_000)

    def test_block_size_one(self):
        run_sort(AEMParams(M=16, B=1, omega=4), 300)

    def test_deep_recursion_small_fanout(self):
        # fanout = omega*m = 2: a binary mergesort, many levels.
        run_sort(AEMParams(M=16, B=8, omega=1), 2_000)


class TestCostBounds:
    def test_cost_tracks_shape_over_sweep(self, p):
        ratios = []
        for N in (1_000, 2_000, 4_000, 8_000):
            m = run_sort(p, N, seed=N)
            ratios.append(m.cost / sort_upper_shape(N, p))
        assert max(ratios) / min(ratios) < 2.5
        assert max(ratios) < 8

    def test_write_shape(self, p):
        N = 4_000
        m = run_sort(p, N)
        assert m.writes <= 3 * sort_write_shape(N, p)

    def test_read_shape(self, p):
        N = 4_000
        m = run_sort(p, N)
        assert m.reads <= 8 * sort_read_shape(N, p)

    def test_base_case_only_cost(self, p):
        # N <= omega*M: one small-sort, cost O(omega * n).
        N = p.base_case_size()
        m = run_sort(p, N)
        assert m.cost <= 3 * p.omega * p.n(N)

    def test_memory_within_slack(self, p):
        m = run_sort(p, 4_000)
        assert m.mem.peak <= m.params.M


class TestPointerVariant:
    def test_matches_cost_when_omega_small(self, p):
        m1 = run_sort(p, 3_000, seed=1)
        m2 = run_sort(p, 3_000, seed=1, sorter=pointer_mergesort)
        # Same rounds, pointer I/O saved: never more expensive.
        assert m2.cost <= m1.cost

    def test_fails_when_omega_huge(self):
        p = AEMParams(M=64, B=8, omega=32)  # omega*m = 256 pointers
        with pytest.raises(CapacityError):
            run_sort(p, 3_000, slack=2.0, sorter=pointer_mergesort)

    def test_paper_variant_succeeds_same_machine(self):
        p = AEMParams(M=64, B=8, omega=32)
        run_sort(p, 3_000, slack=2.0)  # must not raise


class TestStats:
    def test_stats_collected_across_levels(self, p):
        atoms = sort_input(4_000, "uniform", np.random.default_rng(0))
        m = AEMMachine.for_algorithm(p)
        addrs = m.load_input(atoms)
        stats = MergeStats()
        out = aem_mergesort(m, addrs, p, stats=stats)
        verify_sorted_output(m, atoms, out)
        assert stats.rounds  # merges happened
        assert stats.max_active <= p.m
        assert sum(r.emitted for r in stats.rounds) >= 4_000  # >= one pass
