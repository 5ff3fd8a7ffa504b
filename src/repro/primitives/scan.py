"""Scan-based primitives: the O(n) building blocks of EM algorithms.

Everything here is a single streaming pass (or a constant number of them)
over block runs, with exact cost accounting: ``n`` reads plus however many
blocks the output occupies, each write costing ``omega``. They are the
"free" operations the paper's algorithms compose around the expensive
sorting/merging steps — and they make user code on the simulator read
like EM pseudo-code.

All combiners are restricted to the semiring discipline where relevant
(prefix sums take a :class:`~repro.spmxv.semiring.Semiring`), matching the
Section 5 model.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..machine.aem import AEMMachine
from ..machine.streams import BlockReader, BlockWriter
from ..spmxv.semiring import REAL, Semiring


def map_blocks(
    machine: AEMMachine,
    addrs: Sequence[int],
    fn: Callable,
) -> list[int]:
    """Apply ``fn`` to every atom; one read + one write pass (O((1+w)n)).

    ``fn`` returns the transformed item (same memory slot: one atom in,
    one atom out).
    """
    reader = BlockReader(machine, addrs)
    writer = BlockWriter(machine)
    for item in reader:
        machine.touch()
        writer.push(fn(item))
    return writer.close()


def filter_scan(
    machine: AEMMachine,
    addrs: Sequence[int],
    predicate: Callable[..., bool],
) -> list[int]:
    """Keep the atoms satisfying ``predicate``; O(n) reads + output writes."""
    reader = BlockReader(machine, addrs)
    writer = BlockWriter(machine)
    for item in reader:
        machine.touch()
        if predicate(item):
            writer.push(item)
        else:
            machine.release(1)
    return writer.close()


def reduce_scan(
    machine: AEMMachine,
    addrs: Sequence[int],
    semiring: Semiring = REAL,
    key: Optional[Callable] = None,
):
    """Fold the run with the semiring's addition; O(n) reads, no writes.

    ``key`` extracts the summed value from each atom (default: the atom
    itself — for runs of plain values).
    """
    reader = BlockReader(machine, addrs)
    acc = semiring.zero
    for item in reader:
        machine.touch()
        acc = semiring.add(acc, key(item) if key else item)
        machine.release(1)
    return acc


def prefix_sums(
    machine: AEMMachine,
    addrs: Sequence[int],
    semiring: Semiring = REAL,
    *,
    inclusive: bool = True,
) -> list[int]:
    """Semiring prefix sums of a run of plain values; O((1+w)n).

    The running accumulator is one word of internal state; each output
    value is a fresh atom-slot (acquired as created, released as written).
    """
    reader = BlockReader(machine, addrs)
    writer = BlockWriter(machine)
    acc = semiring.zero
    for value in reader:
        machine.touch()
        machine.release(1)  # the input value is consumed
        if inclusive:
            acc = semiring.add(acc, value)
            writer.push_new(acc)
        else:
            writer.push_new(acc)
            acc = semiring.add(acc, value)
    return writer.close()


def zip_scan(
    machine: AEMMachine,
    addrs_a: Sequence[int],
    addrs_b: Sequence[int],
    fn: Callable,
) -> list[int]:
    """Combine two equal-length runs elementwise; O((1+w)n) with two
    resident blocks (one per input)."""
    ra = BlockReader(machine, addrs_a)
    rb = BlockReader(machine, addrs_b)
    writer = BlockWriter(machine)
    while True:
        if ra.exhausted() != rb.exhausted():
            raise ValueError("zip_scan requires equal-length runs")
        if ra.exhausted():
            break
        a = ra.take()
        b = rb.take()
        machine.touch()
        machine.release(2)
        writer.push_new(fn(a, b))
    return writer.close()


def partition_scan(
    machine: AEMMachine,
    addrs: Sequence[int],
    predicate: Callable[..., bool],
) -> tuple[list[int], list[int]]:
    """Split a run into (true, false) runs in one pass; O((1+w)n)."""
    reader = BlockReader(machine, addrs)
    yes = BlockWriter(machine)
    no = BlockWriter(machine)
    for item in reader:
        machine.touch()
        (yes if predicate(item) else no).push(item)
    return yes.close(), no.close()
