"""Native flash-model mergesort."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.flashmodel.sort import flash_mergesort
from repro.machine.flash import FlashMachine


def machine(M=64, Br=2, Bw=8):
    return FlashMachine(M=M, Br=Br, Bw=Bw)


class TestCorrectness:
    def test_sorts_random(self):
        fm = machine()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 10**6, 500).tolist()
        out = flash_mergesort(fm, fm.load_input(data))
        assert fm.collect_output(out) == sorted(data)

    def test_empty(self):
        fm = machine()
        assert flash_mergesort(fm, fm.load_input([])) == []

    def test_single_element(self):
        fm = machine()
        out = flash_mergesort(fm, fm.load_input([7]))
        assert fm.collect_output(out) == [7]

    def test_already_sorted(self):
        fm = machine()
        data = list(range(300))
        out = flash_mergesort(fm, fm.load_input(data))
        assert fm.collect_output(out) == data

    def test_duplicates(self):
        fm = machine()
        data = [3, 1, 3, 1, 2] * 50
        out = flash_mergesort(fm, fm.load_input(data))
        assert fm.collect_output(out) == sorted(data)

    def test_custom_key(self):
        fm = machine()
        data = list(range(100))
        out = flash_mergesort(fm, fm.load_input(data), key=lambda x: -x)
        assert fm.collect_output(out) == sorted(data, reverse=True)

    @settings(max_examples=25, deadline=None)
    @given(data=st.lists(st.integers(-999, 999), max_size=400))
    def test_property_sorts_anything(self, data):
        fm = machine(M=32, Br=2, Bw=8)
        out = flash_mergesort(fm, fm.load_input(data))
        assert fm.collect_output(out) == sorted(data)


class TestVolume:
    def test_volume_tracks_levels(self):
        fm = machine(M=64, Br=2, Bw=8)
        N = 2_000
        rng = np.random.default_rng(1)
        data = rng.integers(0, 10**6, N).tolist()
        flash_mergesort(fm, fm.load_input(data))
        fan = max(2, (fm.M - fm.Bw) // fm.Br // 2)
        levels = 1 + math.ceil(math.log(N / fm.M, fan))
        # ~2N volume per level (read + write), with rounding slack.
        assert fm.volume <= 2.5 * N * (levels + 1)
        assert fm.volume >= 2 * N  # at least one full pass

    def test_more_memory_less_volume(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 10**6, 4_000).tolist()
        small = machine(M=32, Br=2, Bw=8)
        big = machine(M=256, Br=2, Bw=8)
        flash_mergesort(small, small.load_input(data))
        flash_mergesort(big, big.load_input(data))
        assert big.volume < small.volume
