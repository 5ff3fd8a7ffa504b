"""Payload-free external memory for counting-mode machines.

The cost results this repository reproduces — Theorem 3.2's mergesort
bound, the Section 4 permuting crossover, Section 5's SpMxV bounds — are
statements about *counts*: how many blocks move, at what cost, never what
the atoms inside them are. Simulating those counts does not require
materializing atom tuples at all, and for large instances the tuple
copies are most of the simulator's wall time.

:class:`PhantomBlockStore` is the storage half of the counting fast path:
a drop-in :class:`~repro.machine.blockstore.BlockStore` that tracks only
per-block *occupancy*. Allocation, freeing, block-size enforcement, wear
accounting, and snapshot/restore behave exactly like the full store; only
the contents are gone. Reads hand out :class:`PhantomBlock` — a sized,
immutable sequence whose elements are all the :data:`PHANTOM` sentinel —
so any consumer that needs only ``len(items)`` (the cost observers, the
capacity/cost sanitizers, wear maps, metrics) works unchanged, and any
consumer that actually looks at an atom sees an unmistakable placeholder
instead of silently wrong data.

Machines built with ``counting=True`` own one of these stores; see
:class:`~repro.machine.aem.AEMMachine` for the token-stash mechanism that
lets data-driven schedules (the Section 3.1 merge reads blocks in an
order decided by their contents) still make bit-identical decisions, and
that output verification reads instead of atom payloads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .blockstore import BlockStore
from .errors import AddressError, BlockSizeError


class _Phantom:
    """The placeholder standing in for every atom of a phantom block."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PHANTOM"

    def __reduce__(self):
        return (_Phantom, ())


#: The one placeholder value a :class:`PhantomBlock` yields for any index.
PHANTOM = _Phantom()


class PhantomBlock(Sequence):
    """An immutable block of ``n`` phantom atoms (size without substance).

    Supports exactly the sequence surface the machines and observers use:
    ``len``, indexing (always :data:`PHANTOM`), slicing (another phantom
    block), iteration, and truthiness.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"phantom block size must be >= 0, got {n}")
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PhantomBlock(len(range(*index.indices(self.n))))
        if -self.n <= index < self.n:
            return PHANTOM
        raise IndexError(f"phantom block index {index} out of range for n={self.n}")

    def __iter__(self) -> Iterator:
        return iter([PHANTOM] * self.n)

    def __repr__(self) -> str:
        return f"PhantomBlock({self.n})"

    def __eq__(self, other) -> bool:
        if isinstance(other, PhantomBlock):
            return self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((PhantomBlock, self.n))


def is_phantom_payload(items) -> bool:
    """True when ``items`` carries no real contents (only a size).

    The exact-type test short-circuits the common case: PhantomBlock is a
    :class:`Sequence`, so a plain ``isinstance`` goes through the abc
    machinery on *every* write of real items — measurable on the
    streaming hot path.
    """
    return type(items) is PhantomBlock or isinstance(items, PhantomBlock)


#: Types that are their own scheduling token. Checked before the
#: ``sort_token`` probe because most counting-mode writes carry items that
#: are *already* tokens (pointer words, numbers, tuples from an earlier
#: read), and the isinstance test is several times cheaper than a failed
#: attribute lookup on every one of them.
_SELF_TOKEN_TYPES = (tuple, int, float, str, bool)

#: The same types as an exact-type set, for the whole-input check of
#: :func:`input_tokens` (a subclass just falls through to
#: :func:`token_of`, which handles it correctly).
SELF_TOKEN_TYPES = frozenset(_SELF_TOKEN_TYPES)


def token_of(item):
    """The scheduling token of one stored item.

    Atoms collapse to their strict sort token ``(key, uid)``; identity-less
    payloads (pointer words, vector entries, already-tokenized tuples) are
    their own token. This is the value counting-mode algorithms make their
    data-driven decisions on — it orders exactly like the atom it stands
    for, so the decisions are bit-identical to a full-mode run.
    """
    if isinstance(item, _SELF_TOKEN_TYPES):
        return item
    st = getattr(item, "sort_token", None)
    return st() if callable(st) else item


def input_tokens(items) -> tuple:
    """A problem input as the scheduling tokens a counting machine stashes.

    Inputs built for a counting machine already are tokens (the measures
    generate ``(key, uid)`` pairs directly), and one C-level type scan
    passes them through untouched. Any other input — atoms from tests
    and experiments that build machines directly — is converted once,
    item by item, through :func:`token_of`.
    """
    items = tuple(items)
    if SELF_TOKEN_TYPES.issuperset(map(type, items)):
        return items
    return tuple(map(token_of, items))


class PhantomBlockStore(BlockStore):
    """A block store that tracks per-block occupancy only.

    The interface is the full store's; the difference is representational:
    ``_blocks[addr]`` holds an ``int`` occupancy instead of an atom tuple,
    ``get`` returns a :class:`PhantomBlock`, and the bulk verification
    helper ``dump_items`` refuses to run (there is nothing to dump).

    The contents live beside the store, in the owning machine's token
    stash: a tuple of exactly what each block was last written with
    (tokens, pointer words, numbers) or, for the input, the tokens
    :func:`input_tokens` made once at ``load_input``. Reads and
    :meth:`~repro.machine.aem.AEMMachine.collect_output` hand those
    tuples back unchanged; a block written as a phantom payload has no
    entry and reads as a :class:`PhantomBlock`.
    """

    #: Machines and the core use this to pick payload-free code paths.
    phantom = True

    @staticmethod
    def _occupancy(entry) -> int:
        # Freshly allocated blocks are seeded with ``()`` by the base
        # class; everything written through this store is an int.
        return entry if isinstance(entry, int) else len(entry)

    def get(self, addr: int) -> PhantomBlock:
        try:
            return PhantomBlock(self._occupancy(self._blocks[addr]))
        except KeyError:
            raise AddressError(f"read of unallocated block {addr}") from None

    def set(self, addr: int, items) -> None:
        blocks = self._blocks
        if addr not in blocks:
            raise AddressError(f"write to unallocated block {addr}")
        n = len(items)
        if n > self.B:
            raise BlockSizeError(
                f"block {addr}: {n} atoms exceed block size B={self.B}"
            )
        blocks[addr] = n
        counts = self.write_counts
        counts[addr] = counts.get(addr, 0) + 1

    def load_items(self, items: Iterable) -> list[int]:
        # Only the count matters; a list or tuple input is not copied.
        n = len(items) if isinstance(items, (list, tuple)) else len(list(items))
        addrs = self.allocate(-(-n // self.B))
        for i, addr in enumerate(addrs):
            self._blocks[addr] = min(self.B, n - i * self.B)
        return addrs

    def dump_items(self, addrs: Iterable[int]) -> list:
        raise AddressError(
            "a PhantomBlockStore holds occupancies, not contents; "
            "collect a counting machine's output through its token stash "
            "(AEMMachine.collect_output)"
        )

    def snapshot(self) -> Dict[int, Tuple]:
        # Inherited behavior is already correct (occupancies copy shallowly
        # like tuples); this override exists only for the docstring.
        """A copy of the occupancy table (plus the wear epoch; see base)."""
        return super().snapshot()
