"""The unit-cost flash memory model of Ajwani, Beckmann, Jacob, Meyer & Moruz.

Section 4.1 of the paper reduces AEM permutation programs to this model.
Its defining features (as used by the paper):

* external memory is written in *write blocks* of ``Bw`` elements,
* each write block consists of ``Bw / Br`` *read blocks* of ``Br`` elements
  that can be read independently,
* the cost of an I/O is proportional to the number of elements transferred
  (the *I/O volume*): a read of a read block costs ``Br`` and a write of a
  write block costs ``Bw``, i.e. cost per element is symmetric.

For the Lemma 4.3 reduction the paper instantiates ``Bw = B`` (the AEM
block size) and ``Br = B / omega``, which requires ``B > omega`` and ``B``
a multiple of ``omega``.

Addresses: a write block has an integer address (as in
:class:`~repro.machine.blockstore.BlockStore`); its read blocks are
addressed as ``(addr, j)`` for ``j in range(Bw // Br)``, covering elements
``[j*Br, (j+1)*Br)`` of the write block — read blocks are *contiguous*
sub-intervals, which is exactly the constraint that makes the reduction
non-trivial (an AEM read may use an arbitrary subset of a block; a flash
read may not).

Like the AEM machine, :class:`FlashMachine` sits on a
:class:`~repro.machine.core.MachineCore` and emits the uniform machine
events of :mod:`repro.observe` — with *volume-based* costs (``Br`` per
small read, ``Bw`` per write) — so the Lemma 4.3 reduction and experiments
E8/E9 consume the same event stream for both models, and any observer
(trace recorder, wear map, progress readout) works here unchanged. Its
volume accounting is the core's cost ledger (``core.counter``), which sums
those per-event costs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..observe.base import MachineObserver
from ..observe.cost import CostObserver
from .blockstore import BlockStore
from .core import MachineCore
from .errors import AddressError, BlockSizeError, ModelViolationError
from .internal import InternalMemory
from .phantom import PhantomBlockStore, input_tokens


class FlashMachine:
    """Unit-cost flash model machine with volume-based cost accounting.

    Parameters
    ----------
    M:
        Internal memory capacity in elements (tracked but, as in the
        reduction, not the focus — the reduction preserves the AEM
        program's memory discipline).
    Br:
        Read block size in elements.
    Bw:
        Write block size in elements; must be a positive multiple of ``Br``.
    observers:
        :class:`~repro.observe.MachineObserver` instances to attach at
        construction; they see reads of cost ``Br`` and writes of cost
        ``Bw``.
    counting:
        Payload-free fast path, mirroring
        :class:`~repro.machine.aem.AEMMachine`'s: the store keeps the
        input's scheduling tokens from ``load_input`` and exactly what
        each write writes, instead of atoms, and the event stream
        (addresses, lengths, volumes) is identical to a full run. Note the
        Section 4 trace passes (round conversion, flash reduction) replay
        *recorded* programs and therefore need payloads; counting flash
        machines serve direct simulations and microbenchmarks.
    """

    def __init__(
        self,
        M: int,
        Br: int,
        Bw: int,
        *,
        observers: Sequence[MachineObserver] = (),
        counting: bool = False,
    ):
        if Br < 1 or Bw < 1:
            raise ValueError("block sizes must be positive")
        if Bw % Br != 0:
            raise ModelViolationError(
                f"write block size {Bw} must be a multiple of read block size {Br}"
            )
        if M < Bw:
            raise ValueError(f"internal memory M={M} must hold a write block Bw={Bw}")
        self.M = M
        self.Br = Br
        self.Bw = Bw
        self.counting = counting
        self.core = MachineCore(
            PhantomBlockStore(Bw) if counting else BlockStore(Bw),
            # The model does not enforce a capacity discipline of its own;
            # the ledger exists so shared observers see a complete core.
            InternalMemory(M, enforce=False),
            omega=1,
        )
        self.disk = self.core.disk
        self._cost = self.core.attach(CostObserver())
        for obs in observers:
            self.core.attach(obs)

    @classmethod
    def for_aem_reduction(cls, M: int, B: int, omega: int, **kwargs) -> "FlashMachine":
        """The instantiation used by Lemma 4.3: ``Bw = B``, ``Br = B/omega``.

        Requires ``B > omega`` and ``omega | B`` as in the lemma statement.
        """
        if not isinstance(omega, int) or omega < 1:
            raise ModelViolationError(
                f"the reduction needs integer omega >= 1, got {omega!r}"
            )
        if B <= omega:
            raise ModelViolationError(
                f"Lemma 4.3 requires B > omega (got B={B}, omega={omega})"
            )
        if B % omega != 0:
            raise ModelViolationError(
                f"Lemma 4.3 requires omega | B (got B={B}, omega={omega})"
            )
        return cls(M=M, Br=B // omega, Bw=B, **kwargs)

    # ------------------------------------------------------------------
    # Instrumentation.
    # ------------------------------------------------------------------
    def attach(self, observer: MachineObserver) -> MachineObserver:
        return self.core.attach(observer)

    def detach(self, observer: MachineObserver) -> None:
        self.core.detach(observer)

    def flush(self) -> None:
        """Flush buffered batch events to ``on_batch`` observers (see
        MachineCore)."""
        self.core.flush_events()

    @property
    def observers(self) -> list[MachineObserver]:
        return list(self.core.observers)

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------
    @property
    def reads_per_write_block(self) -> int:
        return self.Bw // self.Br

    @property
    def volume(self) -> int:
        """Total I/O volume (elements transferred), the model's cost."""
        return self.read_volume + self.write_volume

    # The accounting lives in the core's cost ledger, which only the
    # core writes; these read it under the flash model's names.
    @property
    def read_volume(self) -> int:
        return self.core.counter.read_cost

    @property
    def write_volume(self) -> int:
        return self.core.counter.write_cost

    @property
    def read_ops(self) -> int:
        return self.core.counter.reads

    @property
    def write_ops(self) -> int:
        return self.core.counter.writes

    # ------------------------------------------------------------------
    # I/O operations.
    # ------------------------------------------------------------------
    def write_block(self, addr: int, items: Sequence) -> None:
        """Write one write block (cost = ``Bw`` volume)."""
        if len(items) > self.Bw:
            raise BlockSizeError(
                f"write of {len(items)} elements exceeds write block size {self.Bw}"
            )
        self.disk.set(addr, items)
        self.core.emit_write(addr, self.disk.get(addr), self.Bw)

    def write_fresh(self, items: Sequence) -> int:
        addr = self.disk.allocate_one()
        self.write_block(addr, items)
        return addr

    def read_small(self, addr: int, j: int) -> Tuple:
        """Read the ``j``-th read block of write block ``addr``.

        Returns the elements in positions ``[j*Br, (j+1)*Br)`` of the write
        block (possibly fewer at the ragged end). Cost = ``Br`` volume.
        """
        if j < 0 or j >= self.reads_per_write_block:
            raise ModelViolationError(
                f"read block index {j} out of range for Bw/Br={self.reads_per_write_block}"
            )
        # A counting machine's block of a phantom payload is a
        # PhantomBlock, whose slices are (sized) phantom blocks too.
        lo, hi = j * self.Br, (j + 1) * self.Br
        segment = self.disk.get(addr)[lo:hi]
        self.core.emit_read(addr, segment, self.Br)
        return segment

    def read_covering(self, addr: int, lo: int, hi: int) -> Tuple:
        """Read the minimal set of read blocks covering interval [lo, hi).

        Returns the concatenated contents of those read blocks (a superset
        of the requested interval). Used by the Lemma 4.3 simulation, where
        an AEM read that removes a contiguous interval of atoms from a
        normalized block induces "just enough" small reads to cover it —
        at most two of which are not full.
        """
        if lo < 0 or hi > self.Bw or lo > hi:
            raise ModelViolationError(f"bad interval [{lo}, {hi}) for Bw={self.Bw}")
        if lo == hi:
            return ()
        j_lo = lo // self.Br
        j_hi = -(-hi // self.Br)  # ceil
        out: list = []
        for j in range(j_lo, j_hi):
            out.extend(self.read_small(addr, j))
        return tuple(out)

    def block_len(self, addr: int) -> int:
        """Number of elements stored in write block ``addr`` (cost-free
        metadata, see :meth:`repro.machine.aem.AEMMachine.block_len`)."""
        return len(self.disk.get(addr))

    # ------------------------------------------------------------------
    # Problem placement (cost-free).
    # ------------------------------------------------------------------
    def load_input(self, items: Sequence) -> list[int]:
        return self.disk.load_items(input_tokens(items) if self.counting else items)

    def collect_output(self, addrs: Sequence[int]) -> list:
        if self.counting:
            raise AddressError(
                "collect_output needs payloads; use a full (counting=False) machine"
            )
        return self.disk.dump_items(addrs)

    def describe(self) -> str:
        return (
            f"flash(M={self.M}, Br={self.Br}, Bw={self.Bw}): "
            f"volume={self.volume} (read {self.read_volume} + write {self.write_volume})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlashMachine({self.describe()})"
