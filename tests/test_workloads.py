"""Workload generators: determinism, registries, shapes."""

import numpy as np
import pytest

from repro.workloads.generators import (
    CONFORMATION_FAMILIES,
    DEFAULT_SEED,
    KEY_DISTRIBUTIONS,
    PERMUTATION_FAMILIES,
    _rng,
    conformation,
    ksorted_keys,
    natural_runs_keys,
    organ_pipe_keys,
    permutation,
    sort_input,
    spmxv_instance,
    uniform_keys,
)


class TestSeedlessDeterminism:
    """Regression: ``_rng(None)`` used to hand back an *unseeded*
    ``default_rng``, silently breaking the module's reproducibility
    promise on every call site that omitted a seed."""

    def test_rng_none_is_deterministic(self):
        a = _rng(None).integers(0, 1 << 30, size=16).tolist()
        b = _rng(None).integers(0, 1 << 30, size=16).tolist()
        assert a == b

    def test_rng_none_equals_default_seed(self):
        a = _rng(None).integers(0, 1 << 30, size=16).tolist()
        b = _rng(DEFAULT_SEED).integers(0, 1 << 30, size=16).tolist()
        assert a == b

    def test_seedless_generator_calls_reproduce(self):
        assert uniform_keys(64) == uniform_keys(64)
        assert sort_input(64) == sort_input(64)

    def test_generator_instances_pass_through(self):
        gen = np.random.default_rng(123)
        assert _rng(gen) is gen


class TestKeys:
    @pytest.mark.parametrize("name", sorted(KEY_DISTRIBUTIONS))
    def test_every_distribution_yields_n_keys(self, name):
        keys = KEY_DISTRIBUTIONS[name](100, np.random.default_rng(0))
        assert len(keys) == 100

    def test_sorted_is_sorted(self):
        keys = KEY_DISTRIBUTIONS["sorted"](50, np.random.default_rng(1))
        assert keys == sorted(keys)

    def test_reversed_is_reversed(self):
        keys = KEY_DISTRIBUTIONS["reversed"](50, np.random.default_rng(1))
        assert keys == sorted(keys, reverse=True)

    def test_few_distinct(self):
        keys = KEY_DISTRIBUTIONS["few_distinct"](200, np.random.default_rng(2))
        assert len(set(keys)) <= 8

    def test_organ_pipe_shape(self):
        keys = organ_pipe_keys(10)
        assert len(keys) == 10
        assert keys[:5] == sorted(keys[:5])
        assert keys[5:] == sorted(keys[5:], reverse=True)

    def test_ksorted_bounded_displacement(self):
        keys = ksorted_keys(500, np.random.default_rng(3), k=8)
        ranks = np.argsort(np.argsort(keys, kind="stable"), kind="stable")
        displacement = np.abs(ranks - np.arange(500))
        assert displacement.max() <= 3 * 8  # noise of +-4k over steps of 4

    def test_natural_runs_segments_sorted(self):
        keys = natural_runs_keys(80, np.random.default_rng(4), runs=4)
        seg = 20
        for s in range(0, 80, seg):
            assert keys[s : s + seg] == sorted(keys[s : s + seg])

    def test_natural_runs_exact_length_with_remainder(self):
        assert len(natural_runs_keys(83, np.random.default_rng(5), runs=4)) == 83

    def test_sort_input_deterministic(self):
        a = sort_input(64, "uniform", np.random.default_rng(5))
        b = sort_input(64, "uniform", np.random.default_rng(5))
        assert [x.key for x in a] == [x.key for x in b]

    @pytest.mark.parametrize("name", sorted(KEY_DISTRIBUTIONS))
    def test_counting_sort_input_is_the_atoms_tokens(self, name):
        atoms = sort_input(64, name, np.random.default_rng(6))
        tokens = sort_input(64, name, np.random.default_rng(6), counting=True)
        assert tokens == [a.sort_token() for a in atoms]

    def test_sort_input_unknown_distribution(self):
        with pytest.raises(KeyError, match="unknown distribution"):
            sort_input(10, "quantum")


class TestPermutations:
    @pytest.mark.parametrize("name", sorted(PERMUTATION_FAMILIES))
    def test_every_family_is_valid(self, name):
        p = permutation(60, name, np.random.default_rng(0))
        assert len(p) == 60
        assert sorted(p) == list(range(60))

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown permutation"):
            permutation(10, "alien")

    def test_transpose_family_handles_primes(self):
        p = permutation(13, "transpose", np.random.default_rng(0))
        assert sorted(p) == list(range(13))


class TestConformations:
    @pytest.mark.parametrize("name", sorted(CONFORMATION_FAMILIES))
    def test_every_family_is_valid(self, name):
        conf = conformation(24, 3, name, np.random.default_rng(0))
        assert conf.N == 24 and conf.delta == 3

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown conformation"):
            conformation(10, 2, "alien")

    def test_spmxv_instance_shapes(self):
        conf, values, x = spmxv_instance(20, 2, "random", 7)
        assert len(values) == conf.H and len(x) == 20

    def test_spmxv_instance_deterministic(self):
        a = spmxv_instance(20, 2, "random", 7)
        b = spmxv_instance(20, 2, "random", 7)
        assert a[0].cols == b[0].cols and a[1] == b[1] and a[2] == b[2]
