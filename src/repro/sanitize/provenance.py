"""ProvenanceSanitizer: data must *move*, never teleport.

The lower-bound arguments (Sections 4-5) count the ways atoms can travel
between external blocks and internal memory; a simulated algorithm that
conjures data out of thin air — reading a block nothing ever wrote, or
writing an input atom it never read — would beat the counting bound
without doing the I/O the bound charges for. This sanitizer tracks atom
identity (``uid``) through the event stream:

* **read-before-write**: a read of a non-empty external block that was
  neither part of the initial disk contents nor written during the run;
* **teleported atoms**: a write whose atoms include an initial-disk atom
  that no read has brought into internal memory yet.

The complementary *output* check — every atom in the final output was
read at some point — needs to know which blocks are outputs, which only a
recorded :class:`~repro.trace.program.Program` knows; it is provided as
:func:`check_program_provenance` and used by ``repro-aem check --traces``.

Known blind spot: the initial disk snapshot is taken lazily at the first
event (machines load their input after construction, hence after
observers attach), so a breach *in the very first event* is indistinguishable
from input placement and passes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..trace.program import Program
from .base import Sanitizer, TraceSanitizer, Violation


def _uids(items: Sequence) -> list:
    return [u for u in (getattr(it, "uid", None) for it in items) if u is not None]


class ProvenanceSanitizer(Sanitizer):
    """No read of a never-written block; no write of a never-read input atom."""

    rule = "PROVENANCE"

    # Provenance is atom-identity tracking; a counting machine has no uids
    # to track, so attaching there must fail loudly (see observe.base).
    needs_payloads = True

    def __init__(self) -> None:
        super().__init__()
        self._initial_addrs: Optional[set[int]] = None
        self._initial_uids: set = set()
        self._written_addrs: set[int] = set()
        self._read_uids: set = set()
        self._flagged_addrs: set[int] = set()

    def _snapshot(self) -> None:
        """Record the pre-run disk state (lazily, at the first event).

        Blocks already written this run are excluded: when the first
        event is itself a write, the disk already holds its effect (the
        store mutates before the bus fires), and capturing it would make
        the write's own output look like teleported input.
        """
        if self._initial_addrs is not None:
            return
        self._initial_addrs = set()
        for addr in self.core.disk.addresses():
            if addr in self._written_addrs:
                continue
            self._initial_addrs.add(addr)
            self._initial_uids.update(_uids(self.core.disk.get(addr)))

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._snapshot()
        self._read_uids.update(_uids(items))
        if (
            items
            and addr not in self._initial_addrs
            and addr not in self._written_addrs
            and addr not in self._flagged_addrs
        ):
            self._flagged_addrs.add(addr)
            self.flag(
                f"read of block {addr} returned {len(items)} atoms, but the "
                "block was neither in the initial disk contents nor written "
                "during the run",
                where=self._where(),
            )

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._written_addrs.add(addr)  # before _snapshot: see its docstring
        self._snapshot()
        for uid in _uids(items):
            if uid in self._initial_uids and uid not in self._read_uids:
                self.flag(
                    f"write to block {addr} contains input atom uid={uid} "
                    "that was never read into internal memory (teleported data)",
                    where=self._where(),
                )


class ProgramProvenanceSanitizer(TraceSanitizer):
    """The trace-level version, including the output-completeness check."""

    rule = "PROVENANCE"

    def check_program(self, program: Program) -> list[Violation]:
        """Check a recorded program; returns the violations found.

        Walks the op sequence tracking which blocks have been written and
        which atom uids each read has surfaced, then checks the *final
        output*: every initial-disk atom landing in an output block must
        have been read by some op — output produced without reads is
        teleported data.
        """
        initial_uids: set = set()
        for items in program.initial_disk.values():
            initial_uids.update(_uids(items))
        written: set[int] = set()
        read_uids: set = set()
        for idx, op in enumerate(program.ops):
            if op.is_read:
                if (
                    op.uids
                    and op.addr not in program.initial_disk
                    and op.addr not in written
                ):
                    self.flag(
                        f"read of block {op.addr} that nothing wrote",
                        where=f"op {idx}",
                    )
                read_uids.update(u for u in op.uids if u is not None)
            else:
                for uid in op.uids:
                    if uid is not None and uid in initial_uids and uid not in read_uids:
                        self.flag(
                            f"write of input atom uid={uid} before any read "
                            "of it (teleported data)",
                            where=f"op {idx}",
                        )
                written.add(op.addr)

        final = program.replay(validate=False)
        for addr in program.output_addrs:
            for uid in _uids(final.get(addr, ())):
                if uid in initial_uids and uid not in read_uids:
                    self.flag(
                        f"output block {addr} holds input atom uid={uid} "
                        "that no op ever read",
                        where="final output",
                    )
        return list(self.violations)
