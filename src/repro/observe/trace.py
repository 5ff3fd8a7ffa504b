"""Program recording as an observer.

:class:`TraceRecorder` appends one :class:`~repro.trace.ops.ReadOp` /
:class:`~repro.trace.ops.WriteOp` per I/O event, in execution order,
producing exactly the straight-line *programs* that the paper's Section
4–5 machinery (round conversion, flash reduction, usefulness analysis)
consumes. Attach it with ``observers=[TraceRecorder()]``; the machine's
``recorder`` and ``trace`` properties read the first one attached.

Round boundaries declared through the bus (``machine.round_boundary()``)
are captured as op indices, ready for
:attr:`repro.trace.program.Program.round_boundaries`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..trace.ops import Op, ReadOp, WriteOp
from .base import MachineObserver


def _uids_of(items: Sequence) -> Tuple[Optional[int], ...]:
    """Atom identities of a block's payload (None for identity-less data)."""
    return tuple(getattr(it, "uid", None) for it in items)


class TraceRecorder(MachineObserver):
    """Record every I/O event as a trace op.

    Attributes
    ----------
    ops:
        The recorded program so far (mutable; ``clear()`` between runs to
        reuse the recorder).
    round_boundaries:
        Indices into ``ops`` where declared rounds start.
    """

    # Recorded ops capture atom uids and write payloads; a counting
    # machine has neither, so attachment must fail loudly there, and
    # batched dispatch must keep delivering real per-event payloads.
    needs_payloads = True
    needs_events = True

    def __init__(self):
        self.ops: list[Op] = []
        self.round_boundaries: list[int] = []

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.ops.append(ReadOp(addr, _uids_of(items)))

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.ops.append(WriteOp(addr, _uids_of(items), tuple(items)))

    def on_round_boundary(self, index: int) -> None:
        self.round_boundaries.append(len(self.ops))

    # ------------------------------------------------------------------
    # Convenience surface.
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.ops.clear()
        self.round_boundaries.clear()

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder({len(self.ops)} ops)"
