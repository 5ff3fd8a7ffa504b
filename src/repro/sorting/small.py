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

The strict ``(key, uid)`` order makes thresholds unambiguous even with
duplicate keys.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Optional

from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
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
    if machine.counting:
        _counting_passes(machine, run, M, out)
        return Run.of(out.close() if own_writer else (), N)
    threshold = None  # (key, uid) of the last atom emitted so far
    emitted = 0
    while emitted < N:
        # One selection pass: keep the M smallest atoms above the threshold.
        buffer: list = []  # sorted ascending by (key, uid); <= M atoms
        with machine.phase("small_sort/scan"):
            for addr in run.addrs:
                blk = machine.read(addr)
                kept = 0
                for atom in blk:
                    machine.touch()
                    if threshold is not None and atom.sort_token() <= threshold:
                        continue
                    if len(buffer) < M:
                        insort(buffer, atom)
                        kept += 1
                    elif atom < buffer[-1]:
                        # Replace the current largest candidate.
                        evicted = buffer.pop()
                        insort(buffer, atom)
                        machine.release([evicted])
                        kept += 1
                    # else: atom cannot be among this pass's M smallest.
                machine.release(len(blk) - kept)
        with machine.phase("small_sort/emit"):
            out.extend(buffer)
            emitted += len(buffer)
            threshold = token_of(buffer[-1])
    if own_writer:
        addrs = out.close()
        return Run.of(addrs, N)
    return Run.of((), N)


def _counting_passes(
    machine: AEMMachine, run: Run, M: int, out: BlockWriter
) -> None:
    """The selection passes on a counting machine, from one sort.

    After block j of a pass, the selection buffer holds ``min(M, c)``
    atoms, ``c`` being the tokens read so far in the pass whose global
    rank is at least the number already emitted; the pass then emits the
    next ``min(M, N - emitted)`` ranks. So pass 0 sorts the tokens it
    reads once, ranking positions (equal tokens stay distinct), and
    keeps each block's sorted ranks. Every pass issues, per block, one
    ``read``, one ``touch(n)`` and one ``release(n + old - new)`` — the
    per-atom loop's totals, grouped per block — with ``new`` from a
    bisect count. The rank table is simulator bookkeeping like the
    token stash: model memory still holds at most M atoms, and every
    re-read is charged.
    """
    tokens: list = []
    bounds = [0]  # block j holds tokens[bounds[j]:bounds[j + 1]]
    held = 0  # the selection buffer's length
    with machine.phase("small_sort/scan"):
        for addr in run.addrs:
            blk = machine.read(addr)
            n = len(blk)
            machine.touch(n)
            tokens.extend(blk)
            bounds.append(len(tokens))
            new = min(M, held + n)
            machine.release(n + held - new)
            held = new
        by_rank = sorted(range(len(tokens)), key=tokens.__getitem__)
        block_ranks: list[list[int]] = [[] for _ in run.addrs]
        for r, pos in enumerate(by_rank):  # ascending, so each list is sorted
            block_ranks[bisect_right(bounds, pos) - 1].append(r)
        order = [tokens[pos] for pos in by_rank]
    emitted = 0
    while True:
        with machine.phase("small_sort/emit"):
            out.extend(order[emitted : emitted + held])
            emitted += held
        if emitted == len(order):
            return
        held = 0
        with machine.phase("small_sort/scan"):
            for addr, ranks in zip(run.addrs, block_ranks):
                n = len(machine.read(addr))
                machine.touch(n)
                new = min(M, held + n - bisect_left(ranks, emitted))
                machine.release(n + held - new)
                held = new


def small_sort_addrs(
    machine: AEMMachine, addrs, params: AEMParams
) -> list[int]:
    """Convenience wrapper taking and returning raw block addresses."""
    result = small_sort(machine, run_of_input(machine, addrs), params)
    return list(result.addrs)
