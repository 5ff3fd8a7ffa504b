"""Straight-line I/O programs.

A :class:`Program` is the object the paper's Section 2 calls a *program*: a
fixed sequence of I/O operations for one particular input instance. Running
any of this repository's algorithms on a recording
:class:`~repro.machine.aem.AEMMachine` and calling :func:`capture` yields
one.

Programs can be *replayed* — re-executed against their initial external
memory image with full consistency checking — which is how transformed
programs (the Lemma 4.1 round conversion, the Lemma 4.3 flash reduction)
are validated: a transformation is correct iff the transformed program
replays cleanly and leaves the same output in external memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..core.params import AEMParams
from ..machine.errors import TraceError
from .ops import Op, WriteOp

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..machine.aem import AEMMachine


@dataclass
class Program:
    """A recorded straight-line I/O program and its execution context.

    Attributes
    ----------
    params:
        The (M, B, omega)-AEM parameters the program was recorded under.
    initial_disk:
        Snapshot of external memory *before* the program ran (address ->
        tuple of atoms). Replay starts from this image.
    ops:
        The I/O sequence.
    input_addrs / output_addrs:
        Where the problem input was placed and where the program left its
        output, for verification.
    round_boundaries:
        Optional op indices where rounds start (filled in by the Lemma 4.1
        converter); ``[0, b1, b2, ...]``. Empty for unstructured programs.
    """

    params: AEMParams
    initial_disk: Dict[int, Tuple]
    ops: list[Op]
    input_addrs: list[int] = field(default_factory=list)
    output_addrs: list[int] = field(default_factory=list)
    round_boundaries: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Cost.
    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return sum(1 for op in self.ops if op.is_read)

    @property
    def writes(self) -> int:
        return sum(1 for op in self.ops if not op.is_read)

    @property
    def cost(self) -> float:
        """AEM cost ``Q = Qr + omega * Qw``."""
        return self.reads + self.params.omega * self.writes

    def op_cost(self, op: Op) -> float:
        return 1.0 if op.is_read else float(self.params.omega)

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------
    def replay(self, *, validate: bool = True) -> Dict[int, Tuple]:
        """Execute the program against its initial disk image.

        Returns the final external-memory image. With ``validate=True``
        every read is checked against the recorded block contents (by atom
        uid), so a transformed program that re-orders I/Os inconsistently
        fails loudly.
        """
        disk: Dict[int, Tuple] = dict(self.initial_disk)
        B = self.params.B
        for idx, op in enumerate(self.ops):
            if op.is_read:
                if op.addr not in disk:
                    raise TraceError(f"op {idx}: read of unallocated block {op.addr}")
                if validate:
                    actual = tuple(getattr(it, "uid", None) for it in disk[op.addr])
                    if actual != op.uids:
                        raise TraceError(
                            f"op {idx}: read of block {op.addr} saw uids "
                            f"{actual[:8]} but the trace recorded {op.uids[:8]}"
                        )
            else:
                assert isinstance(op, WriteOp)
                if len(op.items) > B:
                    raise TraceError(
                        f"op {idx}: write of {len(op.items)} atoms exceeds B={B}"
                    )
                disk[op.addr] = tuple(op.items)
        return disk

    def final_output(self, *, validate: bool = True) -> list:
        """Replay and concatenate the output blocks' atoms."""
        final = self.replay(validate=validate)
        out: list = []
        for addr in self.output_addrs:
            out.extend(final.get(addr, ()))
        return out

    def input_atoms(self) -> list:
        out: list = []
        for addr in self.input_addrs:
            out.extend(self.initial_disk.get(addr, ()))
        return out

    # ------------------------------------------------------------------
    # Structure helpers.
    # ------------------------------------------------------------------
    def rounds(self) -> list[list[Op]]:
        """The ops grouped by the recorded round boundaries."""
        if not self.round_boundaries:
            return [list(self.ops)]
        bounds = list(self.round_boundaries)
        if bounds[0] != 0:
            bounds = [0] + bounds
        bounds.append(len(self.ops))
        return [list(self.ops[bounds[i] : bounds[i + 1]]) for i in range(len(bounds) - 1)]

    def describe(self) -> str:
        return (
            f"Program[{self.params.describe()}]: {len(self.ops)} ops, "
            f"Qr={self.reads}, Qw={self.writes}, Q={self.cost:g}"
            + (f", {len(self.rounds())} rounds" if self.round_boundaries else "")
        )


class Recorder:
    """Capture a :class:`Program` from an algorithm run.

    Usage::

        rec = Recorder(params)
        addrs = rec.machine.load_input(atoms)
        rec.set_input(addrs)
        out = some_algorithm(rec.machine, addrs, ...)
        program = rec.finish(out)

    The recorder snapshots the external memory at construction-input time so
    the program carries everything replay needs. Recording itself is a
    :class:`~repro.observe.TraceRecorder` observer on the machine's event
    bus; a machine passed in must already have one attached (construct it
    with ``observers=[TraceRecorder()]``).
    """

    def __init__(self, params: AEMParams, *, machine: "Optional[AEMMachine]" = None):
        from ..machine.aem import AEMMachine  # deferred: breaks import cycle
        from ..observe.trace import TraceRecorder

        self.params = params
        self.machine = machine or AEMMachine.for_algorithm(
            params, observers=[TraceRecorder()]
        )
        if self.machine.recorder is None:
            raise TraceError(
                "the recorder's machine must have a TraceRecorder attached "
                "(construct it with observers=[TraceRecorder()])"
            )
        self._input_addrs: list[int] = []
        self._initial: Optional[Dict[int, Tuple]] = None

    def load_input(self, items: Sequence) -> list[int]:
        addrs = self.machine.load_input(items)
        self.set_input(addrs)
        return addrs

    def set_input(self, addrs: Sequence[int]) -> None:
        self._input_addrs = list(addrs)
        self._initial = self.machine.disk.snapshot()

    def finish(self, output_addrs: Sequence[int]) -> Program:
        if self._initial is None:
            raise TraceError("set_input/load_input must be called before finish")
        recorder = self.machine.recorder
        return Program(
            params=self.params,
            initial_disk=self._initial,
            ops=list(self.machine.trace),
            input_addrs=list(self._input_addrs),
            output_addrs=list(output_addrs),
            round_boundaries=list(recorder.round_boundaries) if recorder else [],
        )


def capture(params: AEMParams, items: Sequence, algorithm, *args, **kwargs) -> Program:
    """Record the program that ``algorithm`` performs on ``items``.

    ``algorithm(machine, input_addrs, *args, **kwargs)`` must return the
    output block addresses.
    """
    rec = Recorder(params)
    addrs = rec.load_input(items)
    out = algorithm(rec.machine, addrs, *args, **kwargs)
    return rec.finish(out)
