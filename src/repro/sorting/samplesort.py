"""AEM sample sort (distribution sort) — the Blelloch-style comparator.

The paper cites sample sort as one of the two previously known sorters
that meet ``O(omega*n*log_{omega m} n)`` unconditionally. The shape
implemented here:

* pick ``d - 1 ~ omega*m`` splitters from a regularly spaced sample (the
  sample and the splitters live in *external* memory — like the merge
  pointers they can exceed M words when omega > B);
* partition the input into d buckets in ``omega`` sub-passes of ``~m``
  buckets each: a sub-pass holds only its group's splitters (``<= m+1``
  words) and one block buffer per bucket (``<= M`` atoms), scans the input
  (n reads), and writes each routed atom once — ``omega*n`` reads and
  ``~n`` writes per level in total;
* recurse on each bucket; arrays of at most ``omega*M`` atoms use the
  small-array base case.

Splitters are full ``(key, uid)`` tokens, so duplicate keys split evenly
and every bucket is strictly smaller than its parent — the recursion
terminates on any input. Levels: ``log_{omega m} n``, total cost
``O(omega * n * log_{omega m} n)``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from ..core.params import AEMParams, ceil_div
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
from ..machine.streams import BlockReader, BlockWriter
from .runs import Run, concat_runs, run_of_input
from .small import small_sort


def _collect_sample(machine: AEMMachine, run: Run, size: int) -> Run:
    """Write a regularly spaced sample of ``size`` atoms to a fresh run."""
    step = max(1, ceil_div(run.length, size))
    writer = BlockWriter(machine)
    reader = BlockReader(machine, run.addrs)
    pos = 0
    for atom in reader:
        if pos % step == 0:
            writer.push(atom)
        else:
            machine.release(1)
        pos += 1
    return Run.of(writer.close(), writer.count)


def _select_splitters(
    machine: AEMMachine, sorted_sample: Run, buckets: int
) -> Run:
    """Every ``s/d``-th token of the sorted sample, written as a run."""
    s = sorted_sample.length
    positions = set()
    for i in range(1, buckets):
        positions.add(min(s - 1, ceil_div(i * s, buckets) - 1))
    writer = BlockWriter(machine)
    reader = BlockReader(machine, sorted_sample.addrs)
    pos = 0
    for atom in reader:
        if pos in positions:
            writer.push_new(token_of(atom))
        machine.release(1)
        pos += 1
    return Run.of(writer.close(), writer.count)


def _read_splitter_range(
    machine: AEMMachine, splitters: Run, lo_idx: int, hi_idx: int
) -> list:
    """Tokens ``splitters[lo_idx:hi_idx]`` via peeks (none kept resident
    beyond the returned, explicitly acquired list)."""
    if lo_idx >= hi_idx:
        return []
    B = machine.params.B
    out: list = []
    for j in range(lo_idx // B, ceil_div(hi_idx, B)):
        blk = machine.peek(splitters.addrs[j])
        for t, token in enumerate(blk):
            idx = j * B + t
            if lo_idx <= idx < hi_idx:
                out.append(token)
    machine.acquire(len(out), "splitter tokens")
    return out


def sample_sort_run(
    machine: AEMMachine, run: Run, params: AEMParams
) -> Run:
    if run.length <= params.base_case_size():
        with machine.phase("samplesort/base"):
            return small_sort(machine, run, params)

    d = max(2, params.fanout)
    with machine.phase("samplesort/sample"):
        sample_size = max(2, min(run.length, 4 * d, params.base_case_size()))
        sample = _collect_sample(machine, run, sample_size)
        sorted_sample = small_sort(machine, sample, params)
        buckets = max(2, min(d, sorted_sample.length))
        splitters = _select_splitters(machine, sorted_sample, buckets)
    buckets = splitters.length + 1

    # Partition in sub-passes of at most m buckets each.
    group = max(1, min(buckets, params.m))
    bucket_runs: list[Run] = []
    with machine.phase("samplesort/partition"):
        for t in range(0, buckets, group):
            g = min(group, buckets - t)
            # Group boundary tokens: splitters[t-1] (exclusive lower) and
            # the g-1 in-group splitters plus splitters[t+g-1] (upper).
            lower = (
                _read_splitter_range(machine, splitters, t - 1, t) if t > 0 else []
            )
            lo_token = lower[0] if lower else None
            inner = _read_splitter_range(
                machine, splitters, t, min(t + g, splitters.length)
            )
            writers = [BlockWriter(machine) for _ in range(g)]
            reader = BlockReader(machine, run.addrs)
            for atom in reader:
                token = token_of(atom)
                machine.touch()
                if lo_token is not None and token <= lo_token:
                    machine.release(1)
                    continue
                j = bisect_left(inner, token)
                if j >= g:
                    machine.release(1)
                    continue
                writers[j].push(atom)
            for w in writers:
                bucket_runs.append(Run.of(w.close(), w.count))
            machine.release(len(lower) + len(inner))

    with machine.phase("samplesort/recurse"):
        sorted_buckets = [
            sample_sort_run(machine, b, params) for b in bucket_runs if b.length
        ]
    return concat_runs(sorted_buckets)


def aem_samplesort(
    machine: AEMMachine, addrs: Sequence[int], params: AEMParams
) -> list[int]:
    """Sample sort in the AEM: ``O(omega * n * log_{omega m} n)`` cost."""
    run = run_of_input(machine, addrs)
    out = sample_sort_run(machine, run, params)
    return list(out.addrs)
