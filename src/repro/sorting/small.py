"""The small-array base case: sort N' <= omega*M atoms cheaply.

Section 3 bottoms out its recursion with the algorithm of Blelloch et al.
[7, Lemma 4.2]: an array of ``N' <= omega*M`` elements can be sorted with
``O(omega * n')`` read I/Os but only ``O(n')`` write I/Os (total cost
``O(omega * n')``), i.e. writing each element only once while re-reading
the input up to ``omega`` times.

The implementation is multi-pass selection: the input fits in at most
``ceil(N'/M) <= omega`` memoryloads, and pass ``t`` scans the entire input
(``n'`` reads), keeps the M smallest atoms greater than the previous pass's
threshold in an internal buffer, and appends them to the output
(``~M/B`` writes). Totals: ``ceil(N'/M) * n' <= omega * n'`` reads and
``n' (+1)`` writes — exactly the lemma's budget.

The selection itself is computed once, on both machine modes. After
block j of a pass the buffer holds ``min(M, c)`` atoms, ``c`` being the
atoms read so far in the pass whose global rank is at least the number
already emitted; the pass then emits the next ``min(M, N' - emitted)``
ranks. So pass 0 ranks the atoms it reads by sort token once (equal
tokens keep distinct ranks), and every pass charges per block one
``read``, one ``touch(n)`` and one ``release(n + old - new)`` — the
per-atom selection loop's totals, grouped per block — with ``new`` from
a bisect count over the block's ranks. The rank table is simulator
bookkeeping like the token stash: model memory still holds at most M
atoms, and every re-read is charged.

The strict ``(key, uid)`` order makes thresholds unambiguous even with
duplicate keys.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from ..atoms.atom import Atom
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.streams import BlockWriter
from .runs import Run, run_of_input


def small_sort(
    machine: AEMMachine,
    run: Run,
    params: AEMParams,
    *,
    writer: Optional[BlockWriter] = None,
) -> Run:
    """Sort a run of at most ``omega * M`` atoms (Blelloch et al. Lemma 4.2).

    Parameters
    ----------
    machine:
        The AEM machine (its physical capacity should exceed ``params.M``
        by a small constant factor to hold the buffer plus one staging
        block; see :meth:`AEMMachine.for_algorithm`).
    run:
        The input run (need not be sorted).
    params:
        Logical model parameters; the selection buffer holds ``params.M``
        atoms.
    writer:
        Optional output writer to append to (used when a caller chains
        base-case outputs); a fresh contiguous run is written otherwise.

    Returns the sorted output run.
    """
    N = run.length
    if N > params.base_case_size():
        raise ValueError(
            f"small_sort handles at most omega*M = {params.base_case_size()} atoms, "
            f"got {N}"
        )
    own_writer = writer is None
    out = writer or BlockWriter(machine)
    if N == 0:
        return Run.of(out.close() if own_writer else [], 0)

    M = params.M
    key = None if machine.counting else Atom.sort_token
    items: list = []  # the run's atoms in read order (tokens when counting)
    bounds = [0]  # block j holds items[bounds[j]:bounds[j + 1]]
    held = 0  # the selection buffer's length
    with machine.phase("small_sort/scan"):
        for addr in run.addrs:
            blk = machine.read(addr)
            n = len(blk)
            machine.touch(n)
            items.extend(blk)
            bounds.append(len(items))
            new = min(M, held + n)
            machine.release(n + held - new)
            held = new
        tokens = items if key is None else list(map(key, items))
        by_rank = sorted(range(len(items)), key=tokens.__getitem__)
        block_ranks: list[list[int]] = [[] for _ in run.addrs]
        for r, pos in enumerate(by_rank):  # ascending, so each list is sorted
            block_ranks[bisect_right(bounds, pos) - 1].append(r)
        order = [items[pos] for pos in by_rank]
    emitted = 0
    while True:
        with machine.phase("small_sort/emit"):
            out.extend(order[emitted : emitted + held])
            emitted += held
        if emitted == len(order):
            break
        held = 0
        with machine.phase("small_sort/scan"):
            for addr, ranks in zip(run.addrs, block_ranks):
                n = len(machine.read(addr))
                machine.touch(n)
                new = min(M, held + n - bisect_left(ranks, emitted))
                machine.release(n + held - new)
                held = new
    if own_writer:
        return Run.of(out.close(), N)
    return Run.of((), N)


def small_sort_addrs(
    machine: AEMMachine, addrs, params: AEMParams
) -> list[int]:
    """Convenience wrapper taking and returning raw block addresses."""
    result = small_sort(machine, run_of_input(machine, addrs), params)
    return list(result.addrs)
