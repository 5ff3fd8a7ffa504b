"""Program recording, replay and validation (the Section 2 'programs')."""

import pytest

from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.errors import TraceError
from repro.machine.streams import scan_copy
from repro.trace.ops import ReadOp, WriteOp, tally
from repro.trace.program import Program, Recorder, capture


def scan_algorithm(machine, addrs):
    return scan_copy(machine, addrs)


@pytest.fixture
def p():
    return AEMParams(M=32, B=4, omega=4)


@pytest.fixture
def scan_program(p):
    return capture(p, make_atoms(range(12)), scan_algorithm)


class TestOps:
    def test_read_costs(self):
        op = ReadOp(0, (1, 2))
        assert op.is_read and op.cost_reads == 1 and op.cost_writes == 0

    def test_write_costs(self):
        op = WriteOp(0, (1,), (None,))
        assert not op.is_read and op.cost_writes == 1

    def test_tally(self):
        ops = [ReadOp(0, ()), ReadOp(1, ()), WriteOp(2, (), ())]
        assert tally(ops, omega=4) == 2 + 4


class TestCapture:
    def test_captures_cost(self, scan_program, p):
        # scan_copy: 3 reads + 3 writes
        assert scan_program.reads == 3
        assert scan_program.writes == 3
        assert scan_program.cost == 3 + 3 * p.omega

    def test_input_atoms_match(self, scan_program):
        assert [a.uid for a in scan_program.input_atoms()] == list(range(12))

    def test_recorder_requires_input_before_finish(self, p):
        rec = Recorder(p)
        with pytest.raises(TraceError):
            rec.finish([])

    def test_recorder_requires_recording_machine(self, p):
        from repro.machine.aem import AEMMachine

        with pytest.raises(TraceError):
            Recorder(p, machine=AEMMachine(p))


class TestReplay:
    def test_replay_reproduces_output(self, scan_program):
        out = scan_program.final_output()
        assert [a.uid for a in out] == list(range(12))

    def test_replay_validates_read_contents(self, scan_program):
        # Corrupt the initial image: replay must detect the mismatch.
        bad = Program(
            params=scan_program.params,
            initial_disk={
                a: (items[::-1] if items else items)
                for a, items in scan_program.initial_disk.items()
            },
            ops=scan_program.ops,
            input_addrs=scan_program.input_addrs,
            output_addrs=scan_program.output_addrs,
        )
        with pytest.raises(TraceError, match="recorded"):
            bad.replay()

    def test_replay_rejects_unallocated_read(self, p):
        prog = Program(
            params=p, initial_disk={}, ops=[ReadOp(5, ())], input_addrs=[]
        )
        with pytest.raises(TraceError, match="unallocated"):
            prog.replay()

    def test_replay_rejects_oversized_write(self, p):
        items = tuple(make_atoms(range(5)))
        prog = Program(
            params=p,
            initial_disk={},
            ops=[WriteOp(0, tuple(a.uid for a in items), items)],
        )
        with pytest.raises(TraceError, match="exceeds"):
            prog.replay()

    def test_replay_without_validation_skips_checks(self, scan_program):
        bad = Program(
            params=scan_program.params,
            initial_disk={
                a: (items[::-1] if items else items)
                for a, items in scan_program.initial_disk.items()
            },
            ops=scan_program.ops,
            input_addrs=scan_program.input_addrs,
            output_addrs=scan_program.output_addrs,
        )
        bad.replay(validate=False)  # should not raise


class TestRounds:
    def test_rounds_without_boundaries_is_single(self, scan_program):
        assert len(scan_program.rounds()) == 1

    def test_rounds_split(self, scan_program):
        scan_program.round_boundaries = [0, 2, 4]
        rounds = scan_program.rounds()
        assert len(rounds) == 3
        assert sum(len(r) for r in rounds) == len(scan_program.ops)

    def test_describe(self, scan_program):
        text = scan_program.describe()
        assert "Qr=3" in text and "Qw=3" in text
