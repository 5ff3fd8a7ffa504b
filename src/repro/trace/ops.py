"""I/O operation records for straight-line programs.

Section 2 of the paper distinguishes *algorithms* (which branch on the
input) from *programs* (fixed sequences of I/O operations for one particular
permutation or matrix conformation). Lower bounds are proved about programs;
running one of our algorithms on a concrete input and recording its I/Os
yields exactly such a program.

Each record captures the block address and the identities (``uid``s) of the
atoms transferred, which is what the Lemma 4.1 round conversion and the
Lemma 4.3 flash reduction need: both reason about *which copies of which
atoms* move where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ReadOp:
    """A read I/O: block ``addr`` was brought into internal memory.

    ``uids`` are the atom identities present in the block at read time
    (``None`` entries for payloads without identity). ``kept`` — filled in
    by the usefulness back-pass of :mod:`repro.trace.analysis` — marks which
    of those atoms this read actually *uses*, i.e. which copies eventually
    flow to the output (the notion of a read "using" atoms from Section 4.1).
    """

    addr: int
    uids: Tuple[Optional[int], ...]

    @property
    def is_read(self) -> bool:
        return True

    @property
    def cost_reads(self) -> int:
        return 1

    @property
    def cost_writes(self) -> int:
        return 0


@dataclass(frozen=True)
class WriteOp:
    """A write I/O: ``items`` (with identities ``uids``) went to block ``addr``.

    Unlike reads, writes record the payload itself: a straight-line program
    is replayed by re-issuing its writes, and transformed programs (the
    Lemma 4.1 round conversion) re-order writes relative to reads, so the
    data must travel with the op.
    """

    addr: int
    uids: Tuple[Optional[int], ...]
    items: Tuple = ()

    @property
    def is_read(self) -> bool:
        return False

    @property
    def cost_reads(self) -> int:
        return 0

    @property
    def cost_writes(self) -> int:
        return 1


Op = ReadOp | WriteOp


@dataclass
class OpCosts:
    """Aggregate cost of a sequence of ops under a given ``omega``."""

    reads: int = 0
    writes: int = 0

    def add(self, op: Op) -> None:
        self.reads += op.cost_reads
        self.writes += op.cost_writes

    def Q(self, omega: float) -> float:
        return self.reads + omega * self.writes


def tally(ops, omega: float) -> float:
    """Total AEM cost ``Qr + omega * Qw`` of an op sequence."""
    costs = OpCosts()
    for op in ops:
        costs.add(op)
    return costs.Q(omega)
