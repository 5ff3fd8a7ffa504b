"""Sample sort, heapsort, EM mergesort: the comparator algorithms."""

import numpy as np
import pytest

from repro.atoms.atom import Atom, make_atoms
from repro.core.bounds import em_sort_shape, sort_upper_shape
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.sorting.base import (
    SORTERS,
    SortVerificationError,
    run_sorter,
    verify_sorted_output,
)
from repro.sorting.heapsort import _replacement_selection
from repro.sorting.runs import run_of_input
from repro.workloads.generators import sort_input


def run(name, p, N, *, distribution="uniform", seed=0):
    atoms = sort_input(N, distribution, np.random.default_rng(seed))
    m = AEMMachine.for_algorithm(p)
    addrs = m.load_input(atoms)
    out = run_sorter(name, m, addrs, p)
    verify_sorted_output(m, atoms, out)
    return m


@pytest.fixture
def p():
    return AEMParams(M=64, B=8, omega=4)


class TestRegistry:
    def test_all_six_registered(self):
        assert set(SORTERS) == {
            "aem_mergesort",
            "aem_samplesort",
            "aem_heapsort",
            "aem_pqsort",
            "em_mergesort",
            "pointer_mergesort",
        }

    def test_unknown_sorter_rejected(self, p):
        m = AEMMachine.for_algorithm(p)
        with pytest.raises(KeyError, match="unknown sorter"):
            run_sorter("bogosort", m, [], p)


@pytest.mark.parametrize("name", ["aem_samplesort", "aem_heapsort", "em_mergesort"])
class TestComparators:
    @pytest.mark.parametrize(
        "distribution", ["uniform", "sorted", "reversed", "few_distinct"]
    )
    def test_sorts_distributions(self, name, p, distribution):
        run(name, p, 1_200, distribution=distribution)

    @pytest.mark.parametrize("N", [0, 1, 8, 63, 64, 65, 500])
    def test_boundary_sizes(self, name, p, N):
        run(name, p, N)

    def test_huge_omega(self, name):
        run(name, AEMParams(M=64, B=8, omega=64), 1_500)

    def test_symmetric_case(self, name):
        run(name, AEMParams(M=64, B=8, omega=1), 1_500)


class TestSamplesortCosts:
    def test_cost_within_shape(self, p):
        for N in (2_000, 4_000):
            m = run("aem_samplesort", p, N, seed=N)
            assert m.cost <= 8 * sort_upper_shape(N, p)

    def test_duplicates_do_not_blow_up(self, p):
        uniform = run("aem_samplesort", p, 2_000, distribution="uniform").cost
        dupes = run("aem_samplesort", p, 2_000, distribution="few_distinct").cost
        assert dupes <= 2 * uniform


class TestHeapsort:
    def test_replacement_selection_run_lengths(self, p):
        atoms = sort_input(2_000, "uniform", np.random.default_rng(4))
        m = AEMMachine.for_algorithm(p)
        addrs = m.load_input(atoms)
        runs = _replacement_selection(m, run_of_input(m, addrs), p)
        # All but the last run hold at least M atoms; expectation ~2M.
        assert all(r.length >= p.M for r in runs[:-1])
        assert sum(r.length for r in runs) == 2_000
        avg = 2_000 / len(runs)
        assert avg >= 1.2 * p.M  # the classic ~2M effect, loosely

    def test_sorted_input_single_run(self, p):
        atoms = sort_input(1_000, "sorted", np.random.default_rng(5))
        m = AEMMachine.for_algorithm(p)
        addrs = m.load_input(atoms)
        runs = _replacement_selection(m, run_of_input(m, addrs), p)
        assert len(runs) == 1

    def test_run_formation_cost_is_one_pass(self, p):
        atoms = sort_input(1_600, "uniform", np.random.default_rng(6))
        m = AEMMachine.for_algorithm(p)
        addrs = m.load_input(atoms)
        runs = _replacement_selection(m, run_of_input(m, addrs), p)
        n = p.n(1_600)
        assert m.reads == n
        assert m.writes <= n + len(runs)  # one ragged tail block per run

    def test_cost_within_shape(self, p):
        m = run("aem_heapsort", p, 4_000)
        assert m.cost <= 8 * sort_upper_shape(4_000, p)


class TestEmMergesort:
    def test_cost_within_em_shape(self, p):
        N = 4_000
        m = run("em_mergesort", p, N)
        assert m.cost <= 3 * em_sort_shape(N, p)

    def test_reads_equal_writes(self, p):
        # The symmetric algorithm reads and writes every block once per pass.
        m = run("em_mergesort", p, 3_000)
        assert m.reads == m.writes

    def test_pays_omega_on_every_level(self):
        # EM mergesort cost grows ~(1+omega); ours grows slower.
        costs = {}
        for omega in (1, 16):
            p = AEMParams(M=64, B=8, omega=omega)
            costs[omega] = run("em_mergesort", p, 2_000, seed=1).cost
        assert costs[16] >= 7 * costs[1]


class TestVerifySortedOutput:
    """The referee's three verdicts, each provoked by a forged output."""

    def check(self, atoms, output):
        m = AEMMachine.for_algorithm(AEMParams(M=64, B=8, omega=4))
        return verify_sorted_output(m, atoms, m.load_input(output))

    def atoms(self):
        # Duplicate keys: uids alone tell the atoms apart.
        return make_atoms([5, 3, 5, 1, 3, 5, 2, 2, 4, 0, 5, 1])

    def test_correct_output_returned(self):
        atoms = self.atoms()
        assert self.check(atoms, sorted(atoms)) == sorted(atoms)

    def test_short_output(self):
        atoms = self.atoms()
        with pytest.raises(SortVerificationError, match="output holds 11 atoms, input had 12"):
            self.check(atoms, sorted(atoms)[:-1])

    def test_unsorted_output(self):
        out = sorted(self.atoms())
        out[6], out[7] = out[7], out[6]
        with pytest.raises(SortVerificationError, match="not sorted at position 6"):
            self.check(self.atoms(), out)

    def test_duplicated_atom(self):
        out = sorted(self.atoms())
        out[4] = out[3]  # sorted and the right length, one atom twice
        with pytest.raises(SortVerificationError, match="not exactly the input atoms"):
            self.check(self.atoms(), out)

    def test_fabricated_atom(self):
        atoms = self.atoms()
        out = sorted(atoms)
        out[-1] = Atom(out[-1].key, 99)  # same key, an identity nobody had
        with pytest.raises(SortVerificationError, match="not exactly the input atoms"):
            self.check(atoms, out)
