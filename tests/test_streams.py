"""BlockReader/BlockWriter: streaming with honest slot accounting."""

import pytest

from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.streams import BlockReader, BlockWriter, scan_copy
from repro.observe.base import MachineObserver


@pytest.fixture
def m():
    return AEMMachine(AEMParams(M=32, B=4, omega=2))


class TestReader:
    def test_iterates_all_atoms_in_order(self, m):
        atoms = make_atoms(range(10))
        addrs = m.load_input(atoms)
        reader = BlockReader(m, addrs)
        seen = []
        for a in reader:
            seen.append(a)
            m.release(1)
        assert [a.uid for a in seen] == list(range(10))

    def test_costs_one_read_per_block(self, m):
        addrs = m.load_input(make_atoms(range(10)))
        reader = BlockReader(m, addrs)
        for _ in reader:
            m.release(1)
        assert m.reads == 3

    def test_take_transfers_ownership(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        reader = BlockReader(m, addrs)
        reader.take()
        assert m.mem.occupancy == 4  # block staged; taken atom still counted

    def test_drop_releases(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        reader = BlockReader(m, addrs)
        reader.drop()
        assert m.mem.occupancy == 3

    def test_peek_does_not_consume(self, m):
        addrs = m.load_input(make_atoms([7, 8]))
        reader = BlockReader(m, addrs)
        assert reader.peek().uid == 0
        assert reader.take().uid == 0

    def test_peek_exhausted_returns_none(self, m):
        reader = BlockReader(m, [])
        assert reader.peek() is None
        assert reader.exhausted()

    def test_take_exhausted_raises(self, m):
        reader = BlockReader(m, [])
        with pytest.raises(StopIteration):
            reader.take()

    def test_close_releases_staged(self, m):
        addrs = m.load_input(make_atoms(range(4)))
        reader = BlockReader(m, addrs)
        reader.take()
        m.release(1)
        reader.close()
        assert m.mem.occupancy == 0

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    def test_iteration_mixes_with_peek_take_drop_close(self, counting):
        # Iteration yields from the resident block directly; a caller that
        # peeks, takes or drops between items (also across a block edge)
        # or closes mid-block must see and leave the exact position.
        m = AEMMachine(AEMParams(M=32, B=4, omega=2), counting=counting)
        addrs = m.load_input(make_atoms(range(11)))
        reader = BlockReader(m, addrs)
        uid = (lambda t: t[1]) if counting else (lambda a: a.uid)
        seen, peeked = [], []
        for item in reader:
            seen.append(uid(item))
            m.release(1)
            if seen[-1] == 1:
                peeked.append(uid(reader.peek()))
                seen.append(uid(reader.take()))  # 2
                m.release(1)
            elif seen[-1] == 3:
                peeked.append(uid(reader.peek()))  # 4: loads the next block
                seen.append(uid(reader.drop()))  # 4
            elif seen[-1] == 5:
                seen.append(uid(reader.take()))  # 6
                seen.append(uid(reader.take()))  # 7: the block is used up
                m.release(2)
            elif seen[-1] == 8:
                reader.close()  # releases 9 and 10, unread
        assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert peeked == [2, 4]
        assert reader.exhausted() and reader.peek() is None
        assert m.mem.occupancy == 0
        assert m.reads == 3


class TestWriter:
    def test_flushes_full_blocks(self, m):
        writer = BlockWriter(m)
        atoms = make_atoms(range(9))
        m.acquire(atoms)
        for a in atoms:
            writer.push(a)
        addrs = writer.close()
        assert len(addrs) == 3
        assert m.collect_output(addrs) == atoms
        assert m.writes == 3

    def test_close_without_data(self, m):
        assert BlockWriter(m).close() == []

    def test_push_new_acquires(self, m):
        writer = BlockWriter(m)
        writer.push_new("x")
        assert m.mem.occupancy == 1
        writer.close()
        assert m.mem.occupancy == 0

    def test_preallocated_addresses_used_in_order(self, m):
        pre = m.allocate(2)
        writer = BlockWriter(m, addrs=pre)
        atoms = make_atoms(range(8))
        m.acquire(atoms)
        writer.extend(atoms)
        assert writer.close() == pre

    @pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
    def test_extend_writes_like_per_atom_push(self, counting):
        # Ragged chunk lengths (empty, partial, exact, multi-block) after
        # a partly filled buffer: every write must land at the address,
        # length, occupancy and point between chunks that push gives.
        chunks = [0, 1, 3, 4, 5, 9, 2, 8, 0, 7]

        def run(bulk):
            m = AEMMachine(AEMParams(M=64, B=4, omega=2), counting=counting)
            log = m.attach(WriteLog())
            atoms = make_atoms(range(2 + sum(chunks)))
            items = [a.sort_token() for a in atoms] if counting else atoms
            m.acquire(len(items))
            writer = BlockWriter(m)
            writer.push(items[0])
            writer.push(items[1])
            i = 2
            for n in chunks:
                part = items[i : i + n]
                i += n
                if bulk:
                    writer.extend(part)
                else:
                    for it in part:
                        writer.push(it)
                log.events.append(("chunk", writer.buffered, writer.count))
            addrs = writer.close()
            data = None if counting else m.collect_output(addrs)
            return log.events, addrs, data, m.mem.occupancy

        assert run(bulk=True) == run(bulk=False)

    def test_count_tracks_pushes(self, m):
        writer = BlockWriter(m)
        atoms = make_atoms(range(5))
        m.acquire(atoms)
        writer.extend(atoms)
        assert writer.count == 5
        writer.close()


class WriteLog(MachineObserver):
    """Per-event record of every write: address, length, occupancy."""

    def __init__(self):
        self.events = []

    def on_attach(self, core):
        self.mem = core.mem

    def on_write(self, addr, items, cost):
        self.events.append(("write", addr, len(items), self.mem.occupancy))


class TestScanCopy:
    def test_copies_exactly(self, m):
        atoms = make_atoms(range(11))
        addrs = m.load_input(atoms)
        out = scan_copy(m, addrs)
        assert m.collect_output(out) == atoms

    def test_costs_n_reads_n_writes(self, m):
        addrs = m.load_input(make_atoms(range(12)))
        before = m.snapshot()
        scan_copy(m, addrs)
        spent = m.snapshot() - before
        assert spent.reads == 3 and spent.writes == 3

    def test_leaves_memory_empty(self, m):
        addrs = m.load_input(make_atoms(range(12)))
        scan_copy(m, addrs)
        assert m.mem.occupancy == 0
