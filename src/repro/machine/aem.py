"""The (M, B, omega)-Asymmetric External Memory machine.

:class:`AEMMachine` is the substrate every algorithm in this repository runs
on. It is a thin model-semantics veneer over a shared
:class:`~repro.machine.core.MachineCore` — blockstore, capacity ledger, and
the machine-event bus — and charges the AEM's costs: ``1`` per read I/O,
``omega`` per write I/O.

The core charges every read, write and touch to its cost ledger
(``machine.counter``, attributed by phase path; a
:class:`~repro.observe.CostObserver` handle on it is always attached).
Everything else that *watches* a run is an observer on the bus
(:mod:`repro.observe`): straight-line program recording
(:class:`~repro.observe.TraceRecorder`, producing the programs the
paper's Sections 4 and 5 operate on), wear profiling, progress display,
and anything a caller brings along via ``observers=``.

Model semantics implemented here:

* ``read(addr)`` transfers one block into internal memory. All atoms of the
  block are staged internally and count against ``M`` until the caller
  ``release``-s them or ``write``-s them back out. Reading is a *copy*: the
  external block keeps its contents (programs that need the §4.2 move
  semantics are analysed at the trace level, where the usefulness back-pass
  decides which copy of each atom is the live one).
* ``write(addr, items)`` transfers up to ``B`` atoms from internal memory to
  the external block ``addr``, releasing their slots.
* Atoms created *inside* internal memory (e.g. SpMxV partial sums) must be
  ``acquire``-d, and atoms destroyed there (e.g. two partial sums combined
  into one) ``release``-d, so the ledger stays truthful.

Capacity enforcement can be disabled (``enforce_capacity=False``) for
exploratory runs, but every algorithm shipped here passes with enforcement
on; the tests pin their peak occupancy.
"""

from __future__ import annotations

from typing import ContextManager, Iterable, Optional, Sequence

from ..core.params import AEMParams
from ..observe.base import MachineObserver
from ..observe.cost import CostObserver
from ..observe.trace import TraceRecorder
from .blockstore import BlockStore
from .core import MachineCore
from .cost import CostCounter, CostSnapshot
from .internal import InternalMemory
from .phantom import PhantomBlockStore, input_tokens
from ..trace.ops import Op


class AEMMachine:
    """An (M, B, omega)-AEM with exact cost accounting and instrumentation.

    Parameters
    ----------
    params:
        The model parameters. ``params.M`` is the capacity charged against;
        algorithms that follow the paper's "constant fraction of memory"
        convention should construct the machine from their *physical*
        memory and size their logical buffers accordingly (see
        :meth:`for_algorithm`).
    enforce_capacity:
        If true (default), exceeding ``M`` resident atoms raises
        :class:`~repro.machine.errors.CapacityError`.
    observers:
        Additional :class:`~repro.observe.MachineObserver` instances to
        attach at construction (trace recorders, wear maps, progress
        readouts, ...).
    counting:
        Counting fast path: back the machine with a
        :class:`~repro.machine.phantom.PhantomBlockStore` so no atom
        tuples are materialized or copied. Every event the machine emits
        (costs, addresses, block lengths, phases, rounds) is identical to
        a full run, so cost observers, sanitizers, wear maps, and metrics
        work unchanged; observers that read atom *contents* declare
        ``needs_payloads = True`` and are rejected at attach. Data-driven
        algorithms still make bit-identical decisions through the tokens
        the store keeps. An atom's *scheduling token* is its ``(key,
        uid)`` pair (pointer words and numbers are their own token), and
        a counting machine handles atoms only in that form:
        :meth:`load_input` is the one place anything is converted (an
        input that already is tokens, as every measure builds it, passes
        through), ``write`` stores exactly what it is given, and
        ``read``/``peek`` and :meth:`collect_output` hand the stored tuple
        back, so outputs are verified on both machine modes.

    Per-event operations
    --------------------
    Bound in ``__init__`` to the core's one-frame bodies (see
    :class:`~repro.machine.core.MachineCore`), so each event is a single
    Python call:

    ``read(addr)``
        Read one block (cost 1); its atoms become resident internally.
        On a counting machine the returned sequence is the block's
        stored tuple — its input tokens or what was last written to it —
        so data-driven reads still steer identically, or a sized
        :class:`~repro.machine.phantom.PhantomBlock` for a block written
        as a phantom payload.
    ``peek(addr)``
        Read one block (cost 1) without keeping any of its atoms: an
        algorithm only inspects the block (e.g. re-reading
        initialization blocks to identify active arrays in §3.1). The
        block must still momentarily fit.
    ``write(addr, items)``
        Write up to ``B`` atoms to block ``addr`` (cost ``omega``),
        releasing their slots.
    ``acquire(count_or_items, what="atoms")`` / ``release(count_or_items)``
        Account for atoms created / discarded inside internal memory (no
        I/O cost).
    ``touch(k=1)``
        Record ``k`` internal operations (the model's time ``T``).
    """

    def __init__(
        self,
        params: AEMParams,
        *,
        enforce_capacity: bool = True,
        observers: Sequence[MachineObserver] = (),
        counting: bool = False,
    ):
        self.params = params
        self.counting = counting
        store = PhantomBlockStore(params.B) if counting else BlockStore(params.B)
        core = self.core = MachineCore(
            store,
            InternalMemory(params.M, enforce=enforce_capacity),
            omega=params.omega,
        )
        core.write_cost = params.omega
        self.disk = core.disk
        self.mem = core.mem
        # The per-event operations are the core's one-frame bodies, bound
        # here (documented on the class).
        self.read = core.read_block
        self.peek = core.peek_block
        self.write = core.write_block
        self.acquire = core.acquire
        self.release = core.release
        self.touch = core.touch
        self._cost = core.attach(CostObserver())
        self._recorder: Optional[TraceRecorder] = None
        for obs in observers:
            self.attach(obs)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def for_algorithm(
        cls, params: AEMParams, slack: float = 4.0, **kwargs
    ) -> "AEMMachine":
        """A machine whose physical memory is ``slack * params.M``.

        Section 3.1: "let M be a constant fraction of the available internal
        memory". Algorithms are written against a logical ``M`` and run on a
        machine with a small constant factor more capacity to hold staging
        blocks and auxiliary words; asymptotics are unaffected.
        """
        physical = params.with_memory(max(params.B, int(params.M * slack)))
        return cls(physical, **kwargs)

    # ------------------------------------------------------------------
    # Instrumentation.
    # ------------------------------------------------------------------
    def attach(self, observer: MachineObserver) -> MachineObserver:
        """Attach an observer to this machine's event bus."""
        self.core.attach(observer)
        if isinstance(observer, TraceRecorder) and self._recorder is None:
            self._recorder = observer
        return observer

    def detach(self, observer: MachineObserver) -> None:
        self.core.detach(observer)
        if observer is self._recorder:
            self._recorder = None

    @property
    def observers(self) -> list[MachineObserver]:
        return list(self.core.observers)

    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The trace recorder, when one is attached."""
        return self._recorder

    @property
    def trace(self) -> list[Op]:
        """The recorded op sequence (empty unless recording)."""
        if self._recorder is None:
            return []
        return self._recorder.ops

    # ------------------------------------------------------------------
    # Core I/O operations (read/peek/write/acquire/release/touch are bound
    # from the core in __init__).
    # ------------------------------------------------------------------
    def write_fresh(self, items: Sequence) -> int:
        """Allocate a new block and write ``items`` to it; returns address."""
        addr = self.disk.allocate_one()
        self.write(addr, items)
        return addr

    # ------------------------------------------------------------------
    # Phases, rounds, flushing.
    # ------------------------------------------------------------------
    def phase(self, name: str) -> ContextManager[None]:
        """Attribute everything inside the ``with`` block to phase ``name``."""
        return self.core.phase(name)

    def round_boundary(self) -> int:
        """Declare a round boundary (Section 4): drain memory, notify.

        Returns the number of internal-memory slots that were drained.
        """
        return self.core.round_boundary()

    def flush(self) -> None:
        """Flush buffered batch events to ``on_batch`` observers (see
        MachineCore).

        Rarely needed by callers: phase/round boundaries flush
        automatically and every batch consumer's readout flushes on
        demand.
        """
        self.core.flush_events()

    # ------------------------------------------------------------------
    # Allocation passthrough.
    # ------------------------------------------------------------------
    def allocate(self, count: int = 1) -> list[int]:
        return self.disk.allocate(count)

    def allocate_one(self) -> int:
        return self.disk.allocate_one()

    def free(self, addr: int) -> None:
        self.disk.free(addr)

    def block_len(self, addr: int) -> int:
        """Number of atoms stored in block ``addr`` (cost-free metadata).

        Block occupancies are problem metadata, not data the program must
        discover — exactly like an algorithm being told its input size —
        so reading them charges nothing. This is the sanctioned way for
        algorithms to size runs and tiles; touching ``disk`` contents
        directly is a lint violation (AEM102).
        """
        return len(self.disk.get(addr))

    # ------------------------------------------------------------------
    # Input/output placement (cost-free: the problem statement).
    # ------------------------------------------------------------------
    def load_input(self, items: Iterable) -> list[int]:
        """Place the problem input contiguously in external memory.

        A counting machine's store keeps each input block's scheduling
        tokens, so the very first data-driven read already sees real
        tokens. This is the only place a counting machine converts items
        to tokens (:func:`~repro.machine.phantom.input_tokens`): an input
        of atoms is converted once, an input of tokens not at all.
        """
        return self.disk.load_items(input_tokens(items) if self.counting else items)

    def collect_output(self, addrs: Iterable[int]) -> list:
        """Concatenate output blocks for verification (cost-free).

        This is the referee reading the output, so it charges nothing. A
        counting machine returns the blocks' scheduling tokens — an
        atom's ``(key, uid)``, which is all verification compares — and
        raises :class:`AddressError` for a non-empty block written as a
        phantom payload, whose tokens no one knows.
        """
        return self.disk.dump_items(addrs)

    # ------------------------------------------------------------------
    # Cost readout.
    # ------------------------------------------------------------------
    @property
    def counter(self) -> CostCounter:
        """The core's cost ledger."""
        return self.core.counter

    @property
    def cost(self) -> float:
        """Total asymmetric cost so far, ``Q = Qr + omega * Qw``."""
        return self.core.counter.Q

    @property
    def reads(self) -> int:
        return self.core.counter.reads

    @property
    def writes(self) -> int:
        return self.core.counter.writes

    def snapshot(self) -> CostSnapshot:
        return self.core.counter.snapshot()

    def wear(self):
        """Per-block write-endurance summary (see BlockStore.wear)."""
        return self.disk.wear()

    def describe(self) -> str:
        return f"{self.params.describe()}: {self.core.counter.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AEMMachine({self.describe()})"
