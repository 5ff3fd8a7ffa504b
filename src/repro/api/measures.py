"""The canonical measurement functions behind :mod:`repro.api`.

One function per workload family — sort, permute, SpMxV. Each builds a
fresh machine, runs the named algorithm, verifies the output, and
returns a typed :class:`~repro.machine.cost.CostRecord`. They are
top-level functions taking only picklable arguments, so the sweep engine
can fan them out to worker processes and memoize them by content hash.

These used to live in :mod:`repro.experiments.common`; that module keeps
deprecation shims so old call paths still work. New code — the CLI, the
experiments, the cost-oracle server — routes here through the
:mod:`repro.api` facade (:func:`repro.api.evaluate` /
:func:`repro.api.sweep`), which adds query validation and engine routing
on top.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..atoms.atom import make_atoms, make_tokens
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.cost import CostRecord, CostSnapshot
from ..observe.base import MachineObserver
from ..permute.base import PERMUTERS, verify_permutation_output
from ..sorting.base import SORTERS, verify_sorted_output
from ..spmxv.matrix import load_matrix, load_vector, verify_spmxv_output
from ..spmxv.naive import spmxv_naive
from ..spmxv.sort_based import spmxv_sort_based
from ..workloads.generators import permutation, sort_input, spmxv_instance


def measure_sort(
    sorter: str,
    N: int,
    params: AEMParams,
    *,
    distribution: str = "uniform",
    seed: int = 0,
    slack: float = 4.0,
    verify: bool = True,
    observers: Sequence[MachineObserver] = (),
    counting: bool = False,
) -> CostRecord:
    """Run a registered sorter on a fresh machine; returns cost fields.

    ``counting=True`` runs on the payload-free fast path, which every
    registered sorter supports: the input is built as ``(key, uid)``
    tokens, and no atom is ever constructed. Verification runs in both
    modes: a counting run is checked on its output's tokens.
    """
    items = sort_input(
        N, distribution, np.random.default_rng(seed), counting=counting
    )
    machine = AEMMachine.for_algorithm(
        params, slack=slack, observers=observers, counting=counting
    )
    addrs = machine.load_input(items)
    out = SORTERS[sorter](machine, addrs, params)
    if verify:
        verify_sorted_output(machine, items, out)
    return _cost_fields(machine.snapshot(), peak=machine.mem.peak)


def measure_permute(
    permuter: str,
    N: int,
    params: AEMParams,
    *,
    family: str = "random",
    seed: int = 0,
    slack: float = 4.0,
    verify: bool = True,
    observers: Sequence[MachineObserver] = (),
    counting: bool = False,
) -> CostRecord:
    """Run a registered permuter on a fresh machine; returns cost fields.

    Every registered permuter supports ``counting=True`` (payload-free fast
    path, its input built as ``(key, uid)`` tokens). Verification runs in
    both modes; a counting run is checked on its output's uids (see
    :func:`~repro.permute.base.verify_permutation_output`).
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 8 * N, N).tolist()
    items = make_tokens(keys) if counting else make_atoms(keys)
    perm = permutation(N, family, rng)
    machine = AEMMachine.for_algorithm(
        params, slack=slack, observers=observers, counting=counting
    )
    addrs = machine.load_input(items)
    out = PERMUTERS[permuter](machine, addrs, perm, params)
    if verify:
        verify_permutation_output(machine, items, out, perm)
    return _cost_fields(machine.snapshot(), peak=machine.mem.peak)


def measure_spmxv(
    algorithm: str,
    N: int,
    delta: int,
    params: AEMParams,
    *,
    family: str = "random",
    seed: int = 0,
    slack: float = 4.0,
    verify: bool = True,
    observers: Sequence[MachineObserver] = (),
    counting: bool = False,
) -> CostRecord:
    """Run an SpMxV algorithm on a fresh machine; returns cost fields.

    Both algorithms support ``counting=True`` (payload-free fast path;
    :func:`~repro.spmxv.matrix.load_matrix` places the entries' tokens).
    Verification is full-mode only: the output vector's values are
    payload, which a counting machine never computes.
    """
    conf, values, x = spmxv_instance(N, delta, family, np.random.default_rng(seed))
    machine = AEMMachine.for_algorithm(
        params, slack=slack, observers=observers, counting=counting
    )
    ma = load_matrix(machine, conf, values)
    xa = load_vector(machine, x)
    fn = {"naive": spmxv_naive, "sort_based": spmxv_sort_based}[algorithm]
    out = fn(machine, ma, xa, conf, params)
    if verify and not counting:
        verify_spmxv_output(machine, conf, values, x, out)
    return _cost_fields(machine.snapshot(), peak=machine.mem.peak)


def _cost_fields(snap: CostSnapshot, *, peak: int) -> CostRecord:
    return CostRecord.from_snapshot(snap, peak=peak)
