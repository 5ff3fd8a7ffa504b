"""I/O cost accounting for the AEM model.

The cost of a program that performs ``Qr`` read I/Os and ``Qw`` write I/Os is

    Q = Qr + omega * Qw

(the definition of the (M, B, omega)-AEM in the paper's introduction). The
model additionally defines a *time* ``T`` equal to the number of internal
memory accesses; we expose it as an optional counter (``touch``) that the
algorithms increment for element-level internal work such as comparisons and
moves. ``T`` plays no role in the lower bounds but is useful for sanity
checks (e.g. mergesort performs ``Theta(N log N)`` comparisons).

:class:`CostCounter` also supports *phases*: nested, named sub-counters that
attribute I/Os to parts of an algorithm (e.g. ``"merge/pointer-maintenance"``),
which the experiment tables use to show where reads and writes go.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator

from .errors import PhaseError


@dataclass(frozen=True)
class CostSnapshot:
    """An immutable point-in-time view of a :class:`CostCounter`.

    Arithmetic on snapshots (subtraction) yields the cost of a region of a
    program, which is how phase-free code measures sub-steps.
    """

    reads: int
    writes: int
    touches: int
    omega: float

    @property
    def Q(self) -> float:
        """Total asymmetric cost ``Qr + omega * Qw``."""
        return self.reads + self.omega * self.writes

    @property
    def io(self) -> int:
        """Unweighted I/O count ``Qr + Qw`` (the symmetric EM cost)."""
        return self.reads + self.writes

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        if self.omega != other.omega:
            raise ValueError("cannot subtract snapshots with different omega")
        return CostSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            touches=self.touches - other.touches,
            omega=self.omega,
        )

    def describe(self) -> str:
        return (
            f"Qr={self.reads} Qw={self.writes} Q={self.Q:g} "
            f"(T={self.touches}, omega={self.omega:g})"
        )


@dataclass(frozen=True)
class CostRecord:
    """The typed result of one verified measurement run.

    The measurement helpers (``measure_sort`` and friends) return one of
    these instead of an ad-hoc dict. It is both a dataclass (``rec.Q``,
    equality, pickling across sweep-engine workers) and a read-only mapping
    (``rec["Q"]``, ``{**rec}``, ``set(rec)``), so sweep records and the
    JSON/CLI paths keep working unchanged.
    """

    Q: float
    Qr: int
    Qw: int
    T: int
    peak_mem: int

    @classmethod
    def from_snapshot(cls, snap: CostSnapshot, *, peak: int) -> "CostRecord":
        return cls(
            Q=snap.Q,
            Qr=snap.reads,
            Qw=snap.writes,
            T=snap.touches,
            peak_mem=peak,
        )

    def as_dict(self) -> dict:
        """Flat dict form, the shape sweep records are built from."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # Read-only mapping surface -----------------------------------------
    def keys(self):
        return self.as_dict().keys()

    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(fields(self))

    def __contains__(self, key: object) -> bool:
        return any(f.name == key for f in fields(self))


class CostCounter:
    """Mutable read/write/touch counters with named phase attribution."""

    def __init__(self, omega: float = 1.0):
        if omega < 1:
            raise ValueError(f"omega must be >= 1, got {omega}")
        self.omega = float(omega)
        self.reads = 0
        self.writes = 0
        self.touches = 0
        self._phase_stack: list[str] = []
        # phase name -> [reads, writes, touches]
        self._phases: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def add_read(self, k: int = 1) -> None:
        """Record ``k`` read I/Os (cost ``k``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of reads")
        self.reads += k
        self._attribute(0, k)

    def add_write(self, k: int = 1) -> None:
        """Record ``k`` write I/Os (cost ``k * omega``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of writes")
        self.writes += k
        self._attribute(1, k)

    def touch(self, k: int = 1) -> None:
        """Record ``k`` internal-memory operations (the model's time ``T``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of touches")
        self.touches += k
        self._attribute(2, k)

    def _attribute(self, slot: int, k: int) -> None:
        if self._phase_stack:
            self._phases[self._phase_stack[-1]][slot] += k

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute I/Os recorded inside the ``with`` block to ``name``.

        Phases nest lexically; a nested phase's costs are attributed to the
        innermost name only (joined names like ``"merge/init"`` can be used
        by callers who want hierarchy).
        """
        self.enter_phase(name)
        try:
            yield
        finally:
            self.exit_phase(name)

    def enter_phase(self, name: str) -> None:
        """Push ``name``; subsequent costs are attributed to it."""
        self._phase_stack.append(name)
        self._phases.setdefault(name, [0, 0, 0])

    def exit_phase(self, name: str | None = None) -> None:
        """Pop the innermost phase, verifying it is ``name`` when given.

        Raises :class:`~repro.machine.errors.PhaseError` on an exit with no
        phase active or with a name that is not the innermost phase —
        an unbalanced pop would silently misattribute everything after it.
        """
        if not self._phase_stack:
            raise PhaseError(
                f"exit_phase({name!r}) with no phase active"
                if name is not None
                else "exit_phase() with no phase active"
            )
        innermost = self._phase_stack[-1]
        if name is not None and innermost != name:
            raise PhaseError(
                f"exit_phase({name!r}) but the innermost phase is "
                f"{innermost!r}; phase enter/exit must nest"
            )
        self._phase_stack.pop()

    def phase_snapshot(self, name: str) -> CostSnapshot:
        r, w, t = self._phases.get(name, [0, 0, 0])
        return CostSnapshot(reads=r, writes=w, touches=t, omega=self.omega)

    @property
    def phases(self) -> Dict[str, CostSnapshot]:
        return {name: self.phase_snapshot(name) for name in self._phases}

    # ------------------------------------------------------------------
    # Reading out.
    # ------------------------------------------------------------------
    @property
    def Q(self) -> float:
        """Total asymmetric cost ``Qr + omega * Qw``."""
        return self.reads + self.omega * self.writes

    @property
    def io(self) -> int:
        """Unweighted I/O count ``Qr + Qw``."""
        return self.reads + self.writes

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(
            reads=self.reads,
            writes=self.writes,
            touches=self.touches,
            omega=self.omega,
        )

    def reset(self) -> None:
        """Zero every counter; phases still open restart from zero."""
        self.reads = 0
        self.writes = 0
        self.touches = 0
        self._phases.clear()
        for name in self._phase_stack:
            self._phases.setdefault(name, [0, 0, 0])

    def describe(self) -> str:
        return self.snapshot().describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostCounter({self.describe()})"
