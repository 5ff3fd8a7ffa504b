"""Permutation: algebra, constructors, verification."""

import pytest
from hypothesis import given, strategies as st

from repro.atoms.permutation import Permutation, verify_permuted


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(4).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation([0, 3])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Permutation([[0, 1]])

    def test_random_is_seeded(self):
        assert Permutation.random(50, 7) == Permutation.random(50, 7)
        assert Permutation.random(50, 7) != Permutation.random(50, 8)

    def test_reversal(self):
        p = Permutation.reversal(4)
        assert list(p) == [3, 2, 1, 0]

    def test_cyclic_shift(self):
        p = Permutation.cyclic_shift(5, 2)
        assert p[0] == 2 and p[4] == 1

    def test_transpose_is_involution_on_square(self):
        p = Permutation.transpose(4, 4)
        assert p.compose(p).is_identity()

    def test_transpose_maps_row_major_to_col_major(self):
        p = Permutation.transpose(2, 3)
        # element (r=0, c=1) at position 1 goes to position 1*2+0 = 2
        assert p[1] == 2

    def test_bit_reversal_is_involution(self):
        p = Permutation.bit_reversal(4)
        assert p.compose(p).is_identity()


class TestAlgebra:
    @given(st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_inverse_composes_to_identity(self, n, seed):
        p = Permutation.random(n, seed)
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()

    def test_compose_applies_right_first(self):
        shift = Permutation.cyclic_shift(4, 1)
        rev = Permutation.reversal(4)
        combined = rev.compose(shift)
        assert list(combined) == [rev[shift[i]] for i in range(4)]

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_apply_places_items(self):
        p = Permutation([2, 0, 1])
        assert p.apply(["a", "b", "c"]) == ["b", "c", "a"]

    def test_apply_length_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).apply([1, 2])

    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_apply_matches_definition(self, n, seed):
        p = Permutation.random(n, seed)
        items = list(range(1000, 1000 + n))
        out = p.apply(items)
        assert all(out[p[i]] == items[i] for i in range(n))


class TestDiagnostics:
    def test_cycle_type_partitions_n(self):
        p = Permutation.random(37, 3)
        assert sum(p.cycle_type()) == 37

    def test_identity_cycle_type(self):
        assert Permutation.identity(5).cycle_type() == [1] * 5

    def test_fixed_points(self):
        assert Permutation.identity(6).fixed_points() == 6
        assert Permutation.reversal(6).fixed_points() == 0

    def test_hash_consistency(self):
        assert hash(Permutation.identity(8)) == hash(Permutation.identity(8))


class TestVerify:
    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_correct_output_verifies(self, n, seed):
        p = Permutation.random(n, seed)
        uids = list(range(100, 100 + n))
        out = p.apply(uids)
        assert verify_permuted(p, uids, out)

    def test_wrong_output_rejected(self):
        p = Permutation([1, 0, 2])
        assert not verify_permuted(p, [7, 8, 9], [7, 8, 9])

    def test_length_mismatch_rejected(self):
        p = Permutation.identity(3)
        assert not verify_permuted(p, [1, 2, 3], [1, 2])
