"""What a machine holds after a restore or a failed operation.

A counting machine keeps its blocks' tokens in its
:class:`~repro.machine.phantom.PhantomBlockStore`, so everything the
store does to a block — a snapshot restore, a refused write — happens to
its tokens too, exactly as it happens to a full machine's atoms. And a
per-event operation that raises leaves both machine modes in the state a
full machine's ledger and store leave: occupancy, peak, ``io_count``, the
events a synchronous observer saw, and each block's contents and wear.
"""

from __future__ import annotations

import pytest

from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.errors import (
    AddressError,
    BlockSizeError,
    CapacityError,
    ReleaseError,
)
from repro.machine.flash import FlashMachine
from repro.machine.phantom import token_of
from repro.observe.base import MachineObserver
from repro.observe.wear import WearMap

P = AEMParams(M=16, B=4, omega=2)

MODES = pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])


class EventLog(MachineObserver):
    """Every event as it happens, with the occupancy at it."""

    def __init__(self):
        self.events = []

    def on_attach(self, core):
        super().on_attach(core)
        self.mem = core.mem

    def _log(self, *event):
        self.events.append(event + (self.mem.occupancy,))

    def on_read(self, addr, items, cost):
        self._log("read", addr, len(items), cost)

    def on_write(self, addr, items, cost):
        self._log("write", addr, len(items), cost)

    def on_acquire(self, k, what):
        self._log("acquire", k, what)

    def on_release(self, k):
        self._log("release", k)

    def on_touch(self, k):
        self._log("touch", k)


def _tokens(items):
    return [token_of(x) for x in items]


# ----------------------------------------------------------------------
# The tokens live in the store: a restore rewinds them, a refused write
# leaves none behind.
# ----------------------------------------------------------------------
@MODES
def test_restore_rewinds_aem_block_contents(counting):
    m = AEMMachine(P, counting=counting)
    log = m.attach(EventLog())
    items = make_atoms([40, 30, 20, 10])
    (addr,) = m.load_input(items)
    snap = m.disk.snapshot()
    got = m.read(addr)
    m.write(addr, got[:2])
    m.release(2)
    m.disk.restore(snap)
    again = m.read(addr)
    assert _tokens(again) == _tokens(items)
    assert m.block_len(addr) == 4
    assert log.events[-1] == ("read", addr, 4, 1, 4)
    assert m.disk.write_counts == {}


@MODES
def test_restore_rewinds_flash_block_contents(counting):
    fm = FlashMachine(16, 2, 4, counting=counting)
    log = EventLog()
    fm.attach(log)
    items = make_atoms([40, 30, 20, 10])
    (addr,) = fm.load_input(items)
    snap = fm.disk.snapshot()
    fm.write_block(addr, items[:2])
    fm.disk.restore(snap)
    assert _tokens(fm.read_small(addr, 1)) == _tokens(items[2:])
    assert fm.block_len(addr) == 4
    assert log.events[-1] == ("read", addr, 2, 2, 0)


@MODES
def test_refused_aem_write_leaves_nothing_to_read(counting):
    m = AEMMachine(P, counting=counting)
    m.acquire(2)
    with pytest.raises(AddressError, match="write to unallocated block 99"):
        m.write(99, [(1, 0), (2, 1)])
    with pytest.raises(AddressError, match="read of unallocated block 99"):
        m.read(99)
    assert m.reads == m.writes == 0
    assert 99 not in m.disk


@MODES
def test_refused_flash_write_leaves_nothing_to_read(counting):
    fm = FlashMachine(16, 2, 4, counting=counting)
    with pytest.raises(AddressError, match="write to unallocated block 99"):
        fm.write_block(99, [(1, 0), (2, 1)])
    with pytest.raises(AddressError, match="read of unallocated block 99"):
        fm.read_small(99, 0)
    assert fm.read_ops == fm.write_ops == 0
    assert 99 not in fm.disk


# ----------------------------------------------------------------------
# Error paths: each per-event operation, made to fail, on both modes.
# ----------------------------------------------------------------------
def _state(m, log, addrs):
    live = [a for a in addrs if a in m.disk]
    return {
        "occupancy": m.mem.occupancy,
        "peak": m.mem.peak,
        "io_count": m.core.io_count,
        "reads": m.reads,
        "writes": m.writes,
        "events": list(log.events),
        "contents": {a: _tokens(m.collect_output([a])) for a in live},
        "wear": dict(m.disk.write_counts),
    }


def _fill(m, addrs):
    m.acquire(14, "filler")


def _hold_two(m, addrs):
    m.acquire(2)


def _free_second(m, addrs):
    m.acquire(2)
    m.free(addrs[1])


def _nothing(m, addrs):
    pass


NEW = make_atoms([7, 5])

#: (id, set-up, failing operation, error type, expected error fields or
#: message pattern).
CASES = [
    ("read-capacity", _fill, lambda m, a: m.read(a[0]), CapacityError,
     {"requested": 4, "occupancy": 14, "capacity": 16, "what": "atoms"}),
    ("peek-capacity", _fill, lambda m, a: m.peek(a[0]), CapacityError,
     {"requested": 4, "occupancy": 14, "capacity": 16, "what": "atoms"}),
    ("acquire-capacity", _fill, lambda m, a: m.acquire(3, "pointers"), CapacityError,
     {"requested": 3, "occupancy": 14, "capacity": 16, "what": "pointers"}),
    ("acquire-items-capacity", _nothing,
     lambda m, a: m.acquire([0] * 17, "buffer"), CapacityError,
     {"requested": 17, "occupancy": 0, "capacity": 16, "what": "buffer"}),
    ("acquire-negative", _hold_two, lambda m, a: m.acquire(-1), ValueError,
     "negative number of slots"),
    ("release-too-many", _hold_two, lambda m, a: m.release(3), ReleaseError,
     "releasing 3 slots but only 2 are held"),
    ("release-items-too-many", _nothing, lambda m, a: m.release([0, 0]), ReleaseError,
     "releasing 2 slots but only 0 are held"),
    ("release-negative", _hold_two, lambda m, a: m.release(-1), ValueError,
     "negative number of slots"),
    ("touch-negative", _hold_two, lambda m, a: m.touch(-1), ValueError,
     "negative number of touches"),
    ("write-oversized", _fill, lambda m, a: m.write(a[0], make_atoms(range(5))),
     BlockSizeError, "write of 5 atoms exceeds block size B=4"),
    ("write-unallocated", _hold_two, lambda m, a: m.write(99, NEW), AddressError,
     "write to unallocated block 99"),
    ("write-freed", _free_second, lambda m, a: m.write(a[1], NEW), AddressError,
     "write to unallocated block 1"),
    ("write-unheld", _nothing, lambda m, a: m.write(a[0], NEW), ReleaseError,
     "releasing 2 slots but only 0 are held"),
    ("read-unallocated", _nothing, lambda m, a: m.read(99), AddressError,
     "read of unallocated block 99"),
    ("read-freed", _free_second, lambda m, a: m.read(a[1]), AddressError,
     "read of unallocated block 1"),
    ("peek-freed", _free_second, lambda m, a: m.peek(a[1]), AddressError,
     "read of unallocated block 1"),
]


@MODES
@pytest.mark.parametrize(
    "setup,op,error,expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_failed_operation_leaves_full_machine_state(
    counting, setup, op, error, expected
):
    m = AEMMachine(P, counting=counting)
    log = m.attach(EventLog())
    wear = m.attach(WearMap())
    addrs = m.load_input(make_atoms([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 10]))
    # One successful round trip first, so the ledger has a history.
    m.read(addrs[2])
    m.touch(3)
    m.release(4)
    setup(m, addrs)
    before = _state(m, log, addrs)
    with pytest.raises(error) as info:
        op(m, addrs)
    if isinstance(expected, dict):
        assert {k: getattr(info.value, k) for k in expected} == expected
    else:
        assert expected in str(info.value)
    after = _state(m, log, addrs)
    assert after == before
    # Wear seen on the bus is wear in the store: no failed write counts.
    assert wear.counts == after["wear"]
