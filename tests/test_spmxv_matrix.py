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

    def test_names_the_first_failing_column(self):
        with pytest.raises(ValueError, match="column 1 has row indices outside"):
            Conformation(N=3, delta=1, cols=((0,), (-1,), (1, 2)))
        with pytest.raises(ValueError, match="column 2 rows not strictly"):
            Conformation(N=3, delta=2, cols=((0, 1), (1, 2), (2, 2)))

    def test_non_int_rows_checked_per_column(self):
        # The array check vouches for int rows only; these go through the
        # per-column checks, which accept ordered in-range numbers as before.
        Conformation(N=2, delta=2, cols=((0.5, 1.0), (0, 1.5)))
        with pytest.raises(ValueError, match="outside"):
            Conformation(N=2, delta=1, cols=((-0.5,), (1,)))
        with pytest.raises(ValueError, match="outside"):
            Conformation(N=2, delta=1, cols=((0,), (2**70,)))


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


def choice_loop_cols(N, delta, rng):
    """The reference: one ``rng.choice`` call per column."""
    return tuple(
        tuple(sorted(rng.choice(N, size=delta, replace=False).tolist()))
        for _ in range(N)
    )


#: Small N at every delta, larger N at a few, and both sides of numpy's
#: switch from Floyd's algorithm to a tail shuffle (N > 10000 and
#: delta > N // 50).
CHOICE_CASES = (
    [(1, d) for d in (0, 1)]
    + [(17, d) for d in range(18)]
    + [(64, d) for d in (1, 2, 3, 4, 8, 31, 63, 64)]
    + [(2048, d) for d in (1, 4, 16)]
    + [(4096, d) for d in (4, 40)]
    + [(10001, 200), (10001, 201)]
)


class TestRandomMatchesChoiceLoop:
    """``Conformation.random`` draws every column at once, yet consumes
    the generator exactly as the per-column ``rng.choice`` loop does."""

    @pytest.mark.parametrize("N,delta", CHOICE_CASES)
    def test_columns_and_generator_state(self, N, delta):
        ref_rng = np.random.default_rng(N + delta)
        expect = choice_loop_cols(N, delta, ref_rng)
        rng = np.random.default_rng(N + delta)
        assert Conformation.random(N, delta, rng).cols == expect
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("N,delta", [(64, 3), (4096, 4)])
    def test_spmxv_instance_matches_reference(self, N, delta):
        from repro.workloads.generators import spmxv_instance

        ref_rng = np.random.default_rng(11)
        cols = choice_loop_cols(N, delta, ref_rng)
        values = ref_rng.standard_normal(N * delta).tolist()
        x = ref_rng.standard_normal(N).tolist()
        conf, got_values, got_x = spmxv_instance(N, delta, "random", 11)
        assert (conf.cols, got_values, got_x) == (cols, values, x)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Conformation.random(5, -1)


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
