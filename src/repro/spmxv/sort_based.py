"""The sorting-based SpMxV algorithm.

Section 5's second upper bound, ``O(omega*h*log_{omega m}(N/max{delta,B})
+ omega*n)``:

1. **Elementary products** — a simultaneous scan of A (column-major, so
   the needed x_j arrive in order) and x, replacing each entry ``a_ij``
   with the product ``a_ij * x_j`` keyed by its row: ``h + n`` reads,
   ``h`` writes.
2. **Meta columns** — the product stream splits into ``delta`` meta
   columns of N entries each (exactly N, since every column holds delta
   entries); each is sorted by row with the Section 3 mergesort.
3. **Combine** — duplicates within a sorted meta column are added in one
   scan, yielding ``delta`` partial vectors sorted by row.
4. **Add up** — the partial vectors are merged-with-addition in a tree of
   fan-in ``~m`` (streaming, one block per input resident); the volume
   shrinks geometrically up the tree.
5. **Densify** — the final combined vector is written as N dense values.

Our base-case runs have length ``omega*M`` (the mergesort base case) rather
than the paper's ``delta`` (pre-sorted columns), which matches the paper's
bound whenever ``delta <= omega*M`` — all experiment regimes — and is
documented in DESIGN.md.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from ..atoms.atom import Atom
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.phantom import PHANTOM
from ..machine.streams import BlockReader, BlockWriter
from ..sorting.mergesort import sort_run
from ..sorting.runs import Run, split_run
from .matrix import Conformation
from .naive import _BlockCache
from .semiring import REAL, Semiring


class _UidCounter:
    """Fresh uids for atoms created by the semiring program."""

    def __init__(self, start: int):
        self.next = start

    def take(self) -> int:
        u = self.next
        self.next += 1
        return u


def _elementary_products(
    machine: AEMMachine,
    matrix_addrs: Sequence[int],
    x_addrs: Sequence[int],
    params: AEMParams,
    semiring: Semiring,
    uids: _UidCounter,
) -> Run:
    """Scan A and x together; emit product atoms keyed by row."""
    writer = BlockWriter(machine)
    x_cache = _BlockCache(machine, x_addrs)
    reader = BlockReader(machine, matrix_addrs)
    if machine.counting:
        # Entry tokens are ((j, i), p): the column and row are part of the
        # key, so the x-block traffic and the emitted product tokens
        # (i, fresh uid) are fully determined without the values.
        for entry in reader:
            (j, i) = entry[0]
            x_cache.get(j, params.B)
            machine.touch()
            machine.release(1)  # the entry atom is consumed
            writer.push_new((i, uids.take()))
        x_cache.close()
        return Run.of(writer.close(), writer.count)
    for entry in reader:
        i, j, a = entry.value
        xj = x_cache.get(j, params.B)
        machine.touch()
        machine.release(1)  # the entry atom is consumed
        writer.push_new(Atom(i, uids.take(), semiring.mul(a, xj)))
    x_cache.close()
    return Run.of(writer.close(), writer.count)


def _combine_scan(
    machine: AEMMachine, run: Run, semiring: Semiring, uids: _UidCounter
) -> Run:
    """Add adjacent atoms with equal row keys in a sorted run."""
    counting = machine.counting
    writer = BlockWriter(machine)
    reader = BlockReader(machine, run.addrs)
    # Slot discipline: the accumulator inherits the slot of the atom that
    # opened it; atoms merged into it release theirs; emitting transfers
    # the accumulator's slot to the writer. In counting mode atoms are
    # (row, uid) tokens: equal-row detection, uid consumption, and slot
    # movements are identical, only the addition is skipped.
    cur_key = None
    cur_val = None
    for atom in reader:
        machine.touch()
        key = atom[0] if counting else atom.key
        if key == cur_key:
            if not counting:
                cur_val = semiring.add(cur_val, atom.value)
            machine.release(1)
        else:
            if cur_key is not None:
                writer.push(
                    (cur_key, uids.take())
                    if counting
                    else Atom(cur_key, uids.take(), cur_val)
                )
            cur_key = key
            if not counting:
                cur_val = atom.value
    if cur_key is not None:
        writer.push(
            (cur_key, uids.take()) if counting else Atom(cur_key, uids.take(), cur_val)
        )
    return Run.of(writer.close(), writer.count)


def _merge_combine(
    machine: AEMMachine,
    runs: Sequence[Run],
    semiring: Semiring,
    uids: _UidCounter,
) -> Run:
    """Streaming merge of row-sorted partial vectors with addition.

    Holds one block per input run (fan-in is capped at ``m - 1`` by the
    caller), so the footprint is ``O(M)``.
    """
    counting = machine.counting
    readers = [BlockReader(machine, r.addrs) for r in runs]
    writer = BlockWriter(machine)
    heap: list = []
    for t, reader in enumerate(readers):
        atom = reader.peek()
        if atom is not None:
            heap.append((atom[0] if counting else atom.key, t))
    heapq.heapify(heap)
    # Same slot discipline as _combine_scan.
    cur_key = None
    cur_val = None
    while heap:
        key, t = heapq.heappop(heap)
        atom = readers[t].take()
        machine.touch()
        if key == cur_key:
            if not counting:
                cur_val = semiring.add(cur_val, atom.value)
            machine.release(1)
        else:
            if cur_key is not None:
                writer.push(
                    (cur_key, uids.take())
                    if counting
                    else Atom(cur_key, uids.take(), cur_val)
                )
            cur_key = key
            if not counting:
                cur_val = atom.value
        nxt = readers[t].peek()
        if nxt is not None:
            heapq.heappush(heap, (nxt[0] if counting else nxt.key, t))
    if cur_key is not None:
        writer.push(
            (cur_key, uids.take()) if counting else Atom(cur_key, uids.take(), cur_val)
        )
    for reader in readers:
        reader.close()
    return Run.of(writer.close(), writer.count)


def spmxv_sort_based(
    machine: AEMMachine,
    matrix_addrs: Sequence[int],
    x_addrs: Sequence[int],
    conf: Conformation,
    params: AEMParams,
    semiring: Semiring = REAL,
) -> list[int]:
    """Compute y = A x by sorting; returns the output (y) block addresses.

    Cost ``O(omega*h*log_{omega m}(N/max{delta,B}) + omega*n)``.
    """
    B, N, delta = params.B, conf.N, conf.delta
    uids = _UidCounter(conf.H + N)

    with machine.phase("spmxv_sort/products"):
        products = _elementary_products(
            machine, matrix_addrs, x_addrs, params, semiring, uids
        )

    with machine.phase("spmxv_sort/meta-sort"):
        meta_runs = split_run(machine, products, max(1, delta))
        partials: list[Run] = []
        for meta in meta_runs:
            sorted_meta = sort_run(machine, meta, params)
            partials.append(_combine_scan(machine, sorted_meta, semiring, uids))

    with machine.phase("spmxv_sort/add"):
        fan = max(2, params.m - 1)
        while len(partials) > 1:
            grouped: list[Run] = []
            for t in range(0, len(partials), fan):
                group = [r for r in partials[t : t + fan] if not r.is_empty()]
                if not group:
                    continue
                if len(group) == 1:
                    grouped.append(group[0])
                else:
                    grouped.append(_merge_combine(machine, group, semiring, uids))
            partials = grouped or [Run.of((), 0)]

    with machine.phase("spmxv_sort/densify"):
        counting = machine.counting
        out_addrs = machine.allocate((N + B - 1) // B)
        writer = BlockWriter(machine, out_addrs)
        reader = BlockReader(machine, partials[0].addrs)
        pending = reader.peek()
        for i in range(N):
            if pending is not None and (pending[0] if counting else pending.key) == i:
                atom = reader.take()
                machine.touch()
                # Repackage the accumulated value as a plain output value
                # (in counting mode the token stands in; the output vector
                # is never read back on a counting machine).
                writer.push(atom if counting else atom.value)
                pending = reader.peek()
            else:
                writer.push_new(PHANTOM if counting else semiring.zero)
        writer.close()
        reader.close()
    return list(out_addrs)
