"""Scan primitives and the tiled transpose."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms.atom import Atom, make_atoms
from repro.atoms.permutation import Permutation
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.permute.base import verify_permutation_output
from repro.primitives.scan import (
    filter_scan,
    map_blocks,
    partition_scan,
    prefix_sums,
    reduce_scan,
    zip_scan,
)
from repro.primitives.transpose import tiles_fit, transpose
from repro.spmxv.semiring import INTEGER, MAX_PLUS


@pytest.fixture
def p():
    return AEMParams(M=32, B=4, omega=4)


@pytest.fixture
def m(p):
    return AEMMachine.for_algorithm(p)


class TestMapFilter:
    def test_map_transforms_all(self, m):
        addrs = m.load_input(make_atoms(range(10)))
        out = map_blocks(m, addrs, lambda a: Atom(a.key * 2, a.uid))
        assert [a.key for a in m.collect_output(out)] == [2 * k for k in range(10)]

    def test_map_costs_two_passes(self, m, p):
        addrs = m.load_input(make_atoms(range(16)))
        before = m.snapshot()
        map_blocks(m, addrs, lambda a: a)
        spent = m.snapshot() - before
        assert spent.reads == p.n(16) and spent.writes == p.n(16)

    def test_filter_keeps_matching(self, m):
        addrs = m.load_input(make_atoms(range(20)))
        out = filter_scan(m, addrs, lambda a: a.key % 2 == 0)
        assert [a.key for a in m.collect_output(out)] == list(range(0, 20, 2))
        assert m.mem.occupancy == 0

    def test_filter_empty_result(self, m):
        addrs = m.load_input(make_atoms(range(8)))
        assert filter_scan(m, addrs, lambda a: False) == []

    def test_partition_covers_input(self, m):
        atoms = make_atoms(range(21))
        addrs = m.load_input(atoms)
        yes, no = partition_scan(m, addrs, lambda a: a.key % 3 == 0)
        got = m.collect_output(yes) + m.collect_output(no)
        assert sorted(a.key for a in got) == list(range(21))


class TestReducePrefix:
    def test_reduce_sums(self, m):
        addrs = m.load_input(list(range(10)))
        assert reduce_scan(m, addrs, INTEGER) == 45
        assert m.writes == 0

    def test_reduce_with_key(self, m):
        addrs = m.load_input(make_atoms(range(5)))
        assert reduce_scan(m, addrs, INTEGER, key=lambda a: a.key) == 10

    def test_reduce_max_plus(self, m):
        addrs = m.load_input([3.0, 9.0, 1.0])
        assert reduce_scan(m, addrs, MAX_PLUS) == 9.0

    def test_prefix_inclusive(self, m):
        addrs = m.load_input([1, 2, 3, 4])
        out = prefix_sums(m, addrs, INTEGER)
        assert m.collect_output(out) == [1, 3, 6, 10]

    def test_prefix_exclusive(self, m):
        addrs = m.load_input([1, 2, 3, 4])
        out = prefix_sums(m, addrs, INTEGER, inclusive=False)
        assert m.collect_output(out) == [0, 1, 3, 6]

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(-50, 50), max_size=60))
    def test_property_prefix_matches_numpy(self, values):
        p = AEMParams(M=32, B=4, omega=2)
        m = AEMMachine.for_algorithm(p)
        addrs = m.load_input(values)
        out = prefix_sums(m, addrs, INTEGER)
        assert m.collect_output(out) == list(np.cumsum(values)) if values else out == []
        assert m.mem.occupancy == 0


class TestZip:
    def test_zip_combines(self, m):
        a = m.load_input([1, 2, 3])
        b = m.load_input([10, 20, 30])
        out = zip_scan(m, a, b, lambda x, y: x + y)
        assert m.collect_output(out) == [11, 22, 33]

    def test_zip_length_mismatch(self, m):
        a = m.load_input([1, 2, 3])
        b = m.load_input([1])
        with pytest.raises(ValueError):
            zip_scan(m, a, b, lambda x, y: x)


class TestTranspose:
    def test_tiles_fit(self):
        assert tiles_fit(AEMParams(M=32, B=4))  # 16 + 4 <= 32
        assert not tiles_fit(AEMParams(M=32, B=8))  # 64 + 8 > 32

    @pytest.mark.parametrize("rows,cols", [(4, 4), (8, 4), (4, 8), (12, 8)])
    def test_tiled_transpose_correct(self, rows, cols):
        p = AEMParams(M=32, B=4, omega=4)
        machine = AEMMachine.for_algorithm(p)
        atoms = make_atoms(range(rows * cols))
        addrs = machine.load_input(atoms)
        out = transpose(machine, addrs, rows, cols, p)
        perm = Permutation.transpose(rows, cols)
        verify_permutation_output(machine, atoms, out, perm)

    def test_tiled_transpose_single_pass_cost(self):
        p = AEMParams(M=32, B=4, omega=8)
        machine = AEMMachine.for_algorithm(p)
        rows = cols = 32
        atoms = make_atoms(range(rows * cols))
        addrs = machine.load_input(atoms)
        transpose(machine, addrs, rows, cols, p)
        n = p.n(rows * cols)
        assert machine.reads == n and machine.writes == n

    def test_fallback_when_tiles_do_not_fit(self):
        p = AEMParams(M=32, B=8, omega=2)  # B^2 = 64 > M
        machine = AEMMachine.for_algorithm(p)
        atoms = make_atoms(range(16 * 8))
        addrs = machine.load_input(atoms)
        out = transpose(machine, addrs, 16, 8, p)
        perm = Permutation.transpose(16, 8)
        verify_permutation_output(machine, atoms, out, perm)

    def test_fallback_on_unaligned_dimensions(self):
        p = AEMParams(M=32, B=4, omega=2)
        machine = AEMMachine.for_algorithm(p)
        atoms = make_atoms(range(6 * 10))  # 6 % 4 != 0
        addrs = machine.load_input(atoms)
        out = transpose(machine, addrs, 6, 10, p)
        perm = Permutation.transpose(6, 10)
        verify_permutation_output(machine, atoms, out, perm)

    def test_size_mismatch_rejected(self, m, p):
        addrs = m.load_input(make_atoms(range(10)))
        with pytest.raises(ValueError, match="expected"):
            transpose(m, addrs, 4, 4, p)

    def test_empty(self, m, p):
        assert transpose(m, [], 0, 0, p) == []

    @settings(max_examples=15, deadline=None)
    @given(
        rb=st.integers(1, 5),
        cb=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_tiled_equals_permutation(self, rb, cb, seed):
        p = AEMParams(M=32, B=4, omega=4)
        rows, cols = rb * p.B, cb * p.B
        rng = np.random.default_rng(seed)
        atoms = [Atom(int(k), i) for i, k in enumerate(rng.integers(0, 99, rows * cols))]
        machine = AEMMachine.for_algorithm(p)
        addrs = machine.load_input(atoms)
        out = transpose(machine, addrs, rows, cols, p)
        perm = Permutation.transpose(rows, cols)
        verify_permutation_output(machine, atoms, out, perm)
        assert machine.mem.occupancy == 0
