"""Payload-free external memory for counting-mode machines.

The cost results this repository reproduces — Theorem 3.2's mergesort
bound, the Section 4 permuting crossover, Section 5's SpMxV bounds — are
statements about *counts*: how many blocks move, at what cost, never what
the atoms inside them are. Simulating those counts does not require
materializing atom tuples at all, and for large instances the tuple
copies are most of the simulator's wall time.

:class:`PhantomBlockStore` is the storage half of the counting fast path:
a drop-in :class:`~repro.machine.blockstore.BlockStore` that keeps each
block's scheduling tokens (the ``(key, uid)`` an atom orders by; pointer
words and numbers are their own) instead of atoms, and only the size of
a block written as a *phantom payload*. Allocation, freeing, block-size
enforcement, wear accounting, and snapshot/restore behave exactly like
the full store. A phantom payload reads back as a :class:`PhantomBlock`
— a sized, immutable sequence whose elements are all the
:data:`PHANTOM` sentinel — so any consumer that needs only
``len(items)`` (the cost observers, the capacity/cost sanitizers, wear
maps, metrics) works unchanged, and any consumer that actually looks at
an atom sees an unmistakable placeholder instead of silently wrong data.

Machines built with ``counting=True`` own one of these stores. The
tokens it keeps let data-driven schedules (the Section 3.1 merge reads
blocks in an order decided by their contents) still make bit-identical
decisions, and output verification reads them instead of atom payloads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
    """A problem input as the scheduling tokens a counting store keeps.

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
    """A block store that keeps scheduling tokens instead of atoms.

    The interface is the full store's; the difference is representational.
    ``_blocks[addr]`` holds the tuple the block was loaded or last written
    with (tokens, pointer words, numbers; for the input, the tokens
    :func:`input_tokens` made once at ``load_input``), or an ``int`` size
    for a block written as a phantom payload. ``get`` returns that tuple
    or a :class:`PhantomBlock`, and ``dump_items`` returns the tokens,
    raising :class:`AddressError` for a non-empty phantom-payload block,
    whose tokens no one knows. Allocation, freeing, block-size
    enforcement, wear and snapshot/restore behave exactly like the full
    store's, and a restore rewinds the tokens with the sizes.
    """

    #: Machines and the core use this to pick payload-free code paths.
    phantom = True

    def get(self, addr: int):
        try:
            entry = self._blocks[addr]
        except KeyError:
            raise AddressError(f"read of unallocated block {addr}") from None
        return PhantomBlock(entry) if entry.__class__ is int else entry

    def set(self, addr: int, items) -> None:
        blocks = self._blocks
        if addr not in blocks:
            raise AddressError(f"write to unallocated block {addr}")
        n = len(items)
        if n > self.B:
            raise BlockSizeError(
                f"block {addr}: {n} atoms exceed block size B={self.B}"
            )
        blocks[addr] = n if is_phantom_payload(items) else tuple(items)
        counts = self.write_counts
        counts[addr] = counts.get(addr, 0) + 1

    def load_items(self, items: Iterable) -> list[int]:
        # A tuple input (what input_tokens returns) is sliced, not copied.
        items = items if items.__class__ is tuple else tuple(items)
        B = self.B
        addrs = self.allocate(-(-len(items) // B))
        for i, addr in enumerate(addrs):
            self._blocks[addr] = items[i * B : (i + 1) * B]
        return addrs

    def dump_items(self, addrs: Iterable[int]) -> list:
        out: list = []
        for addr in addrs:
            blk = self.get(addr)
            if blk.__class__ is PhantomBlock and blk.n:
                raise AddressError(
                    f"block {addr} was written as a phantom payload; a "
                    "counting machine holds no tokens to verify it by"
                )
            out.extend(blk)
        return out
