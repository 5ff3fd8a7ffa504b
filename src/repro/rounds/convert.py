"""Lemma 4.1: convert any AEM program into a round-based program.

A *round-based* program performs its I/Os in rounds of bounded cost with
internal memory empty at every round boundary — the structure the counting
lower bound (Section 4.2) and the flash reduction (Section 4.1) need.

The construction follows the lemma's proof, executed concretely on a
recorded trace:

1. Segment the original program P into rounds of cost at most ``omega*m``
   (each non-final round exceeds ``omega*m - omega``, by greedy maximality).
2. Simulate each round on a machine with doubled internal memory, split
   into M' (the original memory image) and M'' (a buffer for the round's
   writes):

   * at round start, *reload* M' — read back the memory image spilled at
     the previous round's end (``<= m`` reads);
   * reads of blocks written earlier in the same round are served from M''
     and *dropped* from the trace (they cost nothing);
   * writes are *deferred* to the round's end (same count, same payload);
   * at round end, flush M'' and *spill* the atoms that the liveness
     analysis shows must survive in memory (``<= m`` writes).

The converted program's cost exceeds the original's by at most
``m + omega*m`` per round against a round cost of at least
``omega*(m-1)`` — a constant factor (:data:`LEMMA_4_1_CONSTANT` in
:mod:`repro.core.counting` budgets 6). Its rounds each cost at most
``2*omega*m + m`` and run within ``2M`` atoms of memory, which is what the
generalized counting bound is evaluated against in the soundness
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.analysis import liveness_intervals, segment_rounds
from ..trace.ops import Op, ReadOp, WriteOp
from ..trace.program import Program


@dataclass(frozen=True)
class ConversionReport:
    """What the Lemma 4.1 conversion did to a program."""

    original_cost: float
    converted_cost: float
    rounds: int
    max_round_cost: float
    max_spill_atoms: int
    dropped_reads: int

    @property
    def cost_ratio(self) -> float:
        if self.original_cost == 0:
            return 1.0
        return self.converted_cost / self.original_cost


def to_round_based(
    program: Program, *, budget: float | None = None
) -> tuple[Program, ConversionReport]:
    """Convert ``program`` into a round-based program on doubled memory.

    Returns the converted program (with ``round_boundaries`` filled in)
    and a :class:`ConversionReport`. The converted program replays to the
    same final external-memory state (validated by the caller via
    :func:`repro.rounds.verify.verify_round_based`).
    """
    p = program.params
    if budget is None:
        budget = p.omega * p.m
    boundaries = segment_rounds(program, budget=budget)
    live = liveness_intervals(program)

    # Spill area: fresh addresses above everything the program touches.
    used = set(program.initial_disk)
    for op in program.ops:
        used.add(op.addr)
    next_spill = max(used, default=-1) + 1

    new_ops: list[Op] = []
    new_bounds: list[int] = []
    pending_spill: list[tuple[int, tuple]] = []  # (addr, items) to reload
    max_round_cost = 0.0
    max_spill = 0
    dropped = 0
    omega = p.omega
    B = p.B

    edges = boundaries + [len(program.ops)]
    for r in range(len(boundaries)):
        start, end = edges[r], edges[r + 1]
        new_bounds.append(len(new_ops))
        round_cost = 0.0

        # Reload the previous round's memory image into M'.
        for addr, items in pending_spill:
            new_ops.append(
                ReadOp(addr, tuple(getattr(it, "uid", None) for it in items))
            )
            round_cost += 1.0
        pending_spill = []

        # Replay the round: reads pass through unless served by M'';
        # writes are buffered and flushed at the end.
        buffered: list[WriteOp] = []
        written_this_round: set[int] = set()
        for op in program.ops[start:end]:
            if op.is_read:
                if op.addr in written_this_round:
                    dropped += 1  # served from M'' at no I/O cost
                else:
                    new_ops.append(op)
                    round_cost += 1.0
            else:
                assert isinstance(op, WriteOp)
                buffered.append(op)
                written_this_round.add(op.addr)
        for op in buffered:
            new_ops.append(op)
            round_cost += omega

        # Spill the atoms that must survive this boundary in memory.
        if end < len(program.ops):
            live_uids = live.live_at(end)
            atoms = [live.atom_by_uid[u] for u in live_uids]
            max_spill = max(max_spill, len(atoms))
            for i in range(0, len(atoms), B):
                chunk = atoms[i : i + B]
                addr = next_spill
                next_spill += 1
                new_ops.append(
                    WriteOp(
                        addr,
                        tuple(getattr(it, "uid", None) for it in chunk),
                        tuple(chunk),
                    )
                )
                round_cost += omega
                pending_spill.append((addr, tuple(chunk)))
        max_round_cost = max(max_round_cost, round_cost)

    converted = Program(
        params=p.with_memory(2 * p.M),
        initial_disk=dict(program.initial_disk),
        ops=new_ops,
        input_addrs=list(program.input_addrs),
        output_addrs=list(program.output_addrs),
        round_boundaries=new_bounds,
    )
    report = ConversionReport(
        original_cost=program.cost,
        converted_cost=converted.cost,
        rounds=len(boundaries),
        max_round_cost=max_round_cost,
        max_spill_atoms=max_spill,
        dropped_reads=dropped,
    )
    return converted, report
