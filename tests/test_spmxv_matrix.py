"""Sparse conformations and the column-major layout (Section 5 setting)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms.atom import uids_of
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.spmxv.matrix import Conformation, load_matrix, load_vector, reference_product
from repro.spmxv.semiring import BOOLEAN, MAX_PLUS, REAL


class TestValidation:
    def test_accepts_valid(self):
        Conformation(N=3, delta=1, cols=((0,), (1,), (2,)))

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="columns"):
            Conformation(N=3, delta=1, cols=((0,), (1,)))

    def test_rejects_wrong_delta(self):
        with pytest.raises(ValueError, match="delta"):
            Conformation(N=2, delta=2, cols=((0,), (0, 1)))

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError, match="outside"):
            Conformation(N=2, delta=1, cols=((0,), (5,)))

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="increasing"):
            Conformation(N=2, delta=2, cols=((1, 0), (0, 1)))

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="increasing"):
            Conformation(N=2, delta=2, cols=((0, 0), (0, 1)))


class TestGenerators:
    @settings(max_examples=20, deadline=None)
    @given(
        N=st.integers(1, 60),
        delta=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_has_exactly_delta_per_column(self, N, delta, seed):
        delta = min(delta, N)
        conf = Conformation.random(N, delta, seed)
        assert all(len(c) == delta for c in conf.cols)
        assert conf.H == delta * N

    def test_random_is_seeded(self):
        assert Conformation.random(20, 3, 7).cols == Conformation.random(20, 3, 7).cols

    def test_random_rejects_delta_above_n(self):
        with pytest.raises(ValueError):
            Conformation.random(3, 4)

    def test_banded_is_local(self):
        conf = Conformation.banded(10, 3)
        assert conf.cols[0] == (0, 1, 2)
        assert conf.cols[9] == (0, 1, 9)  # wraps

    def test_strided_spreads_rows(self):
        conf = Conformation.transpose_like(16, 4)
        spread = max(conf.cols[0]) - min(conf.cols[0])
        assert spread >= 8


class TestLayout:
    def test_column_major_order(self):
        conf = Conformation(N=2, delta=2, cols=((0, 1), (0, 1)))
        entries = conf.column_major_entries([1.0, 2.0, 3.0, 4.0])
        assert [e.value for e in entries] == [
            (0, 0, 1.0),
            (1, 0, 2.0),
            (0, 1, 3.0),
            (1, 1, 4.0),
        ]
        assert uids_of(entries) == [0, 1, 2, 3]

    def test_column_major_tokens_are_the_entries_tokens(self):
        conf = Conformation.random(12, 3, 1)
        entries = conf.column_major_entries([0.5] * conf.H)
        assert conf.column_major_tokens() == [e.sort_token() for e in entries]

    def test_value_count_checked(self):
        conf = Conformation.random(4, 2, 0)
        with pytest.raises(ValueError):
            conf.column_major_entries([1.0])

    def test_positions_by_row_inverts_layout(self):
        conf = Conformation.random(12, 3, 1)
        by_row = conf.positions_by_row()
        entries = conf.column_major_entries([0.0] * conf.H)
        for i, lst in enumerate(by_row):
            for pos, j in lst:
                ei, ej, _ = entries[pos].value
                assert ei == i and ej == j

    def test_to_dense_matches_layout(self):
        conf = Conformation.random(8, 2, 2)
        values = list(range(1, conf.H + 1))
        A = conf.to_dense(values)
        assert A.shape == (8, 8)
        assert np.count_nonzero(A) == conf.H

    def test_load_matrix_and_vector_free(self):
        p = AEMParams(M=32, B=4, omega=2)
        m = AEMMachine.for_algorithm(p)
        conf = Conformation.random(8, 2, 3)
        load_matrix(m, conf, [1.0] * conf.H)
        load_vector(m, [1.0] * 8)
        assert m.cost == 0


class TestReferenceProduct:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        conf = Conformation.random(16, 3, rng)
        values = rng.standard_normal(conf.H).tolist()
        x = rng.standard_normal(16).tolist()
        expected = conf.to_dense(values) @ np.asarray(x)
        got = reference_product(conf, values, x)
        assert np.allclose(got, expected)

    def test_all_ones_vector_sums_rows(self):
        conf = Conformation.random(10, 2, 0)
        values = [1.0] * conf.H
        y = reference_product(conf, values, [1.0] * 10)
        assert sum(y) == conf.H

    def test_max_plus_semiring(self):
        conf = Conformation(N=2, delta=2, cols=((0, 1), (0, 1)))
        y = reference_product(conf, [1.0, 2.0, 3.0, 4.0], [0.0, 0.0], MAX_PLUS)
        assert y == [3.0, 4.0]

    def test_boolean_semiring(self):
        conf = Conformation(N=2, delta=1, cols=((0,), (1,)))
        y = reference_product(conf, [True, False], [True, True], BOOLEAN)
        assert y == [True, False]

    def test_real_semiring_ops(self):
        assert REAL.sum([1.0, 2.0, 3.0]) == 6.0
        assert REAL.mul(2.0, 4.0) == 8.0
