"""The (M, B, omega)-Asymmetric External Memory machine.

:class:`AEMMachine` is the substrate every algorithm in this repository runs
on. It is a thin model-semantics veneer over a shared
:class:`~repro.machine.core.MachineCore` — blockstore, capacity ledger, and
the machine-event bus — and charges the AEM's costs: ``1`` per read I/O,
``omega`` per write I/O.

Everything that *watches* a run is an observer on the bus
(:mod:`repro.observe`): cost accounting with phase attribution
(:class:`~repro.observe.CostObserver`, always attached), straight-line
program recording (:class:`~repro.observe.TraceRecorder`, producing the
programs the paper's Sections 4 and 5 operate on), wear profiling,
progress display, and anything a caller brings along via ``observers=``.

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

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from ..core.params import AEMParams
from ..observe.base import MachineObserver
from ..observe.cost import CostObserver
from ..observe.trace import TraceRecorder
from .blockstore import BlockStore
from .core import MachineCore
from .cost import CostCounter, CostSnapshot
from .errors import AddressError, BlockSizeError
from .internal import InternalMemory
from .phantom import PhantomBlock, PhantomBlockStore, input_tokens, is_phantom_payload
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
    record:
        Legacy switch: attach a :class:`~repro.observe.TraceRecorder` so
        every I/O is appended to :attr:`trace` as a
        :class:`~repro.trace.ops.ReadOp` / :class:`~repro.trace.ops.WriteOp`.
        New code passes a ``TraceRecorder`` in ``observers`` instead.
    observers:
        Additional :class:`~repro.observe.MachineObserver` instances to
        attach at construction (wear maps, progress readouts, ...).
    counting:
        Counting fast path: back the machine with a
        :class:`~repro.machine.phantom.PhantomBlockStore` so no atom
        tuples are materialized or copied. Every event the machine emits
        (costs, addresses, block lengths, phases, rounds) is identical to
        a full run, so cost observers, sanitizers, wear maps, and metrics
        work unchanged; observers that read atom *contents* declare
        ``needs_payloads = True`` and are rejected at attach. Data-driven
        algorithms still make bit-identical decisions through the token
        stash. An atom's *scheduling token* is its ``(key, uid)`` pair
        (pointer words and numbers are their own token), and a counting
        machine handles atoms only in that form: :meth:`load_input` is
        the one place anything is converted (an input that already is
        tokens, as every measure builds it, passes through), ``write``
        stashes exactly what it is given, and ``read``/``peek`` and
        :meth:`collect_output` hand the stashed tuple back, so outputs
        are verified on both machine modes.
    flush_every:
        Event-bus batch flush interval, passed through to
        :class:`~repro.machine.core.MachineCore` (``None`` keeps the
        standard interval).
    """

    def __init__(
        self,
        params: AEMParams,
        *,
        enforce_capacity: bool = True,
        record: bool = False,
        observers: Sequence[MachineObserver] = (),
        counting: bool = False,
        flush_every: Optional[int] = None,
    ):
        self.params = params
        self.counting = counting
        self._B = params.B  # hot-path cache (params is frozen)
        #: Counting mode only: per-address tuple of what the block holds
        #: — its input tokens, or exactly the items last written to it.
        #: Blocks written as phantom payloads have no entry and read back
        #: as :class:`~repro.machine.phantom.PhantomBlock`. Tuples of
        #: untrackable values leave CPython's GC scan sets at the first
        #: pass, which keeps per-I/O GC overhead small on runs that
        #: write millions of blocks.
        self._tokens: dict[int, tuple] = {}
        store = PhantomBlockStore(params.B) if counting else BlockStore(params.B)
        self.core = MachineCore(
            store,
            InternalMemory(params.M, enforce=enforce_capacity),
            flush_every=flush_every,
        )
        self.disk = self.core.disk
        self.mem = self.core.mem
        self._read_cost = 1
        self._write_cost = params.omega
        self._cost = self.core.attach(CostObserver(omega=params.omega))
        self._recorder: Optional[TraceRecorder] = None
        for obs in observers:
            self.attach(obs)
        if record and self._recorder is None:
            self.attach(TraceRecorder())

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
        if observer is self._cost:
            # Silently allowing this would freeze .cost/.reads/.writes at
            # their current values while the run continues — every later
            # readout would be quietly wrong.
            raise ValueError(
                "cannot detach the machine's own CostObserver; "
                ".cost/.reads/.writes would silently stop counting"
            )
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
    def record(self) -> bool:
        """Whether I/Os are being recorded (a ``TraceRecorder`` is attached)."""
        return self._recorder is not None

    @property
    def trace(self) -> list[Op]:
        """The recorded op sequence (empty unless recording)."""
        if self._recorder is None:
            return []
        return self._recorder.ops

    # ------------------------------------------------------------------
    # Core I/O operations.
    # ------------------------------------------------------------------
    def read(self, addr: int) -> list:
        """Read one block (cost 1); its atoms become resident internally.

        On a counting machine the returned sequence is the block's
        stashed tuple — its input tokens or what was last written to it —
        so data-driven reads still steer identically, or a sized
        :class:`~repro.machine.phantom.PhantomBlock` for a block written
        as a phantom payload.
        """
        if self.counting:
            return self.core.read_block(
                addr, self._read_cost, items=self._tokens.get(addr)
            )
        return self.core.read_block(addr, self._read_cost)

    def peek(self, addr: int) -> list:
        """Read one block (cost 1) without keeping any of its atoms.

        Equivalent to ``read`` followed by releasing everything; used when
        an algorithm only inspects a block (e.g. re-reading initialization
        blocks to identify active arrays in §3.1). Capacity for the staging
        is still checked: the block must momentarily fit.
        """
        if self.counting:
            return self.core.read_block(
                addr, self._read_cost, keep=False, items=self._tokens.get(addr)
            )
        return self.core.read_block(addr, self._read_cost, keep=False)

    def write(self, addr: int, items: Sequence) -> None:
        """Write up to ``B`` atoms to block ``addr`` (cost ``omega``)."""
        if len(items) > self._B:
            raise BlockSizeError(
                f"write of {len(items)} atoms exceeds block size B={self._B}"
            )
        if self.counting:
            # list/tuple payloads (the hot path) skip the phantom
            # isinstance probe entirely.
            cls = items.__class__
            if cls is PhantomBlock or (
                cls is not list and cls is not tuple and is_phantom_payload(items)
            ):
                self._tokens.pop(addr, None)
            else:
                # Hot path: one C-speed shallow copy (none when the payload
                # already is a tuple). A counting algorithm writes only
                # tokens it read or built, so nothing is converted here.
                self._tokens[addr] = tuple(items)
        self.core.write_block(addr, items, self._write_cost)

    def write_fresh(self, items: Sequence) -> int:
        """Allocate a new block and write ``items`` to it; returns address."""
        addr = self.disk.allocate_one()
        self.write(addr, items)
        return addr

    # ------------------------------------------------------------------
    # Internal memory management for the algorithms.
    # ------------------------------------------------------------------
    def release(self, count_or_items) -> None:
        """Discard atoms from internal memory (no I/O cost)."""
        k = count_or_items if isinstance(count_or_items, int) else len(count_or_items)
        self.core.release(k)

    def acquire(self, count_or_items, what: str = "atoms") -> None:
        """Account for atoms created inside internal memory (no I/O cost)."""
        k = count_or_items if isinstance(count_or_items, int) else len(count_or_items)
        self.core.acquire(k, what)

    def touch(self, k: int = 1) -> None:
        """Record ``k`` internal operations (the model's time ``T``)."""
        self.core.touch(k)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self.core.phase(name):
            yield

    def round_boundary(self) -> int:
        """Declare a round boundary (Section 4): drain memory, notify.

        Returns the number of internal-memory slots that were drained.
        """
        return self.core.round_boundary()

    def flush(self) -> None:
        """Flush buffered batch events to observers (see MachineCore).

        Rarely needed by callers: phase/round boundaries flush
        automatically and every observer readout flushes on demand.
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
        if self.counting:
            self._tokens.pop(addr, None)

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

        Counting machines stash each input block's scheduling tokens here,
        so the very first data-driven read already sees real tokens. This
        is the only place a counting machine converts items to tokens
        (:func:`~repro.machine.phantom.input_tokens`): an input of atoms
        is converted once, an input of tokens not at all.
        """
        if not self.counting:
            return self.disk.load_items(items)
        tokens = input_tokens(items)
        addrs = self.disk.load_items(tokens)
        B = self._B
        stash = self._tokens
        for i, addr in enumerate(addrs):
            stash[addr] = tokens[i * B : (i + 1) * B]
        return addrs

    def collect_output(self, addrs: Iterable[int]) -> list:
        """Concatenate output blocks for verification (cost-free).

        This is the referee reading the output, so it charges nothing. A
        counting machine returns the blocks' stashed scheduling tokens —
        an atom's ``(key, uid)``, which is all verification compares — and
        raises :class:`AddressError` for a non-empty block written as a
        phantom payload, whose tokens no one knows.
        """
        if not self.counting:
            return self.disk.dump_items(addrs)
        out: list = []
        for addr in addrs:
            tokens = self._tokens.get(addr)
            if tokens is not None:
                out.extend(tokens)
            elif self.block_len(addr):
                raise AddressError(
                    f"block {addr} was written as a phantom payload; a "
                    "counting machine holds no tokens to verify it by"
                )
        return out

    # ------------------------------------------------------------------
    # Cost readout.
    # ------------------------------------------------------------------
    @property
    def counter(self) -> CostCounter:
        """The always-attached cost observer's counter."""
        return self._cost.counter

    @property
    def cost(self) -> float:
        """Total asymmetric cost so far, ``Q = Qr + omega * Qw``."""
        return self._cost.Q

    @property
    def reads(self) -> int:
        return self._cost.reads

    @property
    def writes(self) -> int:
        return self._cost.writes

    def snapshot(self) -> CostSnapshot:
        return self._cost.snapshot()

    def wear(self):
        """Per-block write-endurance summary (see BlockStore.wear)."""
        return self.disk.wear()

    def describe(self) -> str:
        return f"{self.params.describe()}: {self._cost.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AEMMachine({self.describe()})"
