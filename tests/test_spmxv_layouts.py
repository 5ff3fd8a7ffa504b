"""Row-major layout and its direct algorithm (the A3 ablation substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.spmxv.layouts import (
    load_matrix_row_major,
    row_major_entries,
    spmxv_naive_row_major,
)
from repro.spmxv.matrix import Conformation, load_matrix, load_vector, reference_product
from repro.spmxv.naive import spmxv_naive
from repro.spmxv.semiring import MAX_PLUS


@pytest.fixture
def p():
    return AEMParams(M=64, B=8, omega=4)


class TestRowMajorEntries:
    def test_sorted_by_row_then_column(self):
        conf = Conformation.random(12, 3, 0)
        entries = row_major_entries(conf, [0.0] * conf.H)
        coords = [(e.value[0], e.value[1]) for e in entries]
        assert coords == sorted(coords)

    def test_same_triples_as_column_major(self):
        rng = np.random.default_rng(1)
        conf = Conformation.random(10, 2, rng)
        values = rng.standard_normal(conf.H).tolist()
        col = {e.value for e in conf.column_major_entries(values)}
        row = {e.value for e in row_major_entries(conf, values)}
        assert col == row

    def test_value_count_checked(self):
        conf = Conformation.random(4, 1, 0)
        with pytest.raises(ValueError):
            row_major_entries(conf, [1.0])


class TestRowMajorAlgorithm:
    @settings(max_examples=15, deadline=None)
    @given(
        N=st.integers(2, 40),
        delta=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_matches_reference(self, N, delta, seed):
        p = AEMParams(M=32, B=4, omega=4)
        delta = min(delta, N)
        rng = np.random.default_rng(seed)
        conf = Conformation.random(N, delta, rng)
        values = rng.standard_normal(conf.H).tolist()
        x = rng.standard_normal(N).tolist()
        m = AEMMachine.for_algorithm(p)
        ma = load_matrix_row_major(m, conf, values)
        xa = load_vector(m, x)
        out = spmxv_naive_row_major(m, ma, xa, conf, p)
        assert np.allclose(m.collect_output(out), reference_product(conf, values, x))

    def test_empty_rows_get_zero(self, p):
        # delta=1, all entries in row 0: every other row must emit zero.
        conf = Conformation(N=4, delta=1, cols=((0,), (0,), (0,), (0,)))
        m = AEMMachine.for_algorithm(p)
        ma = load_matrix_row_major(m, conf, [1.0, 1.0, 1.0, 1.0])
        xa = load_vector(m, [1.0, 2.0, 3.0, 4.0])
        out = spmxv_naive_row_major(m, ma, xa, conf, p)
        assert m.collect_output(out) == [10.0, 0.0, 0.0, 0.0]

    def test_max_plus(self, p):
        rng = np.random.default_rng(5)
        conf = Conformation.random(16, 2, rng)
        values = rng.standard_normal(conf.H).tolist()
        x = rng.standard_normal(16).tolist()
        m = AEMMachine.for_algorithm(p)
        ma = load_matrix_row_major(m, conf, values)
        xa = load_vector(m, x)
        out = spmxv_naive_row_major(m, ma, xa, conf, p, MAX_PLUS)
        assert m.collect_output(out) == reference_product(conf, values, x, MAX_PLUS)

    def test_matrix_reads_are_one_scan(self, p):
        rng = np.random.default_rng(7)
        N, delta = 128, 4
        conf = Conformation.random(N, delta, rng)
        values = rng.standard_normal(conf.H).tolist()
        x = rng.standard_normal(N).tolist()
        m = AEMMachine.for_algorithm(p)
        ma = load_matrix_row_major(m, conf, values)
        xa = load_vector(m, x)
        spmxv_naive_row_major(m, ma, xa, conf, p)
        h = p.n(conf.H)
        # Matrix contributes h sequential reads; everything beyond is x.
        assert m.reads <= h + conf.H
        assert m.writes == p.n(N)

    def test_cheaper_than_column_major_on_random(self, p):
        rng = np.random.default_rng(9)
        N, delta = 256, 4
        conf = Conformation.random(N, delta, rng)
        values = rng.standard_normal(conf.H).tolist()
        x = rng.standard_normal(N).tolist()

        m_row = AEMMachine.for_algorithm(p)
        out = spmxv_naive_row_major(
            m_row,
            load_matrix_row_major(m_row, conf, values),
            load_vector(m_row, x),
            conf,
            p,
        )
        assert np.allclose(
            m_row.collect_output(out), reference_product(conf, values, x)
        )

        m_col = AEMMachine.for_algorithm(p)
        spmxv_naive(
            m_col,
            load_matrix(m_col, conf, values),
            load_vector(m_col, x),
            conf,
            p,
        )
        assert m_row.cost < m_col.cost

    def test_memory_released(self, p):
        rng = np.random.default_rng(11)
        conf = Conformation.random(32, 2, rng)
        values = rng.standard_normal(conf.H).tolist()
        m = AEMMachine.for_algorithm(p)
        ma = load_matrix_row_major(m, conf, values)
        xa = load_vector(m, rng.standard_normal(32).tolist())
        spmxv_naive_row_major(m, ma, xa, conf, p)
        assert m.mem.occupancy == 0
