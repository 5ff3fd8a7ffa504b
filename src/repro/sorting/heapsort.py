"""AEM heapsort: heap-based run formation plus omega*m-way merging.

The paper cites Blelloch et al.'s AEM heapsort as one of the two
unconditionally optimal sorters. We implement the classic external
heapsort recipe adapted to the AEM (a simplification documented in
DESIGN.md):

1. **Replacement selection** — an M-atom min-heap in internal memory
   streams over the input and emits sorted runs of length at least M
   (2M expected on random data), for ``n`` reads + ``n`` writes total.
2. **Run merging** — repeated ``omega*m``-way merging with the Section 3.1
   round merge until a single run remains:
   ``O(omega*n)`` per level over ``log_{omega m}(n/m)`` levels.

Total: ``O(omega * n * log_{omega m} n)`` — the same bound as the paper's
mergesort, reached through a heap-shaped run formation, which is what the
sorter-comparison experiment (E13) contrasts.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
from ..machine.streams import BlockReader, BlockWriter
from .merge import multiway_merge
from .runs import Run, run_of_input


def _replacement_selection(
    machine: AEMMachine, run: Run, params: AEMParams
) -> list[Run]:
    """Form sorted runs of length >= M with an M-atom internal heap.

    Heap entries are ``(run_tag, sort_token, atom)``: an incoming atom
    smaller than the last one emitted cannot join the current run, so it is
    tagged for the next run and stays in the heap — the heap never exceeds
    M atoms and every atom is read and written exactly once.
    """
    reader = BlockReader(machine, run.addrs)
    heap: list = []
    with machine.phase("heapsort/run-formation"):
        while len(heap) < params.M and not reader.exhausted():
            atom = reader.take()
            heap.append((0, token_of(atom), atom))
        heapq.heapify(heap)
        machine.touch(len(heap))

        runs: list[Run] = []
        current_tag = 0
        writer = BlockWriter(machine)
        emitted = 0
        last_token = None
        while heap:
            tag, token, atom = heapq.heappop(heap)
            machine.touch()
            if tag != current_tag:
                # Current run is finished; start the next one.
                runs.append(Run.of(writer.close(), emitted))
                writer = BlockWriter(machine)
                emitted = 0
                current_tag = tag
                last_token = None
            writer.push(atom)
            emitted += 1
            last_token = token
            if not reader.exhausted():
                incoming = reader.take()
                in_token = token_of(incoming)
                joins_current = last_token is None or in_token >= last_token
                in_tag = current_tag if joins_current else current_tag + 1
                heapq.heappush(heap, (in_tag, in_token, incoming))
        if emitted:
            runs.append(Run.of(writer.close(), emitted))
        else:
            writer.close()
    return runs


def aem_heapsort(
    machine: AEMMachine, addrs: Sequence[int], params: AEMParams
) -> list[int]:
    """Heapsort in the AEM: ``O(omega * n * log_{omega m} n)`` cost."""
    run = run_of_input(machine, addrs)
    if run.length == 0:
        return []
    runs = _replacement_selection(machine, run, params)
    fan = max(2, params.fanout)
    with machine.phase("heapsort/merge"):
        while len(runs) > 1:
            merged: list[Run] = []
            for i in range(0, len(runs), fan):
                group = runs[i : i + fan]
                if len(group) == 1:
                    merged.append(group[0])
                else:
                    merged.append(multiway_merge(machine, group, params))
            runs = merged
    return list(runs[0].addrs)
