"""I/O cost accounting for the AEM model.

The cost of a program that performs ``Qr`` read I/Os and ``Qw`` write I/Os is

    Q = Qr + omega * Qw

(the definition of the (M, B, omega)-AEM in the paper's introduction). The
model additionally defines a *time* ``T`` equal to the number of internal
memory accesses; we expose it as an optional counter (``touch``) that the
algorithms increment for element-level internal work such as comparisons and
moves. ``T`` plays no role in the lower bounds but is useful for sanity
checks (e.g. mergesort performs ``Theta(N log N)`` comparisons).

:class:`CostCounter` also attributes every I/O to a *phase path*: the tuple
of phase names open when it happened (``("sort", "merge/init")``; ``()``
outside any phase). That one table is the machine's ledger of where the
cost went; the experiment tables, the profiler and the metrics read it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Optional, Tuple

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


#: Selectable attribution weights of :meth:`PathStats.weight`.
WEIGHTS = ("q", "qw", "qr", "io")


@dataclass(frozen=True)
class PathStats:
    """The ledger's totals for one phase path."""

    reads: int = 0
    writes: int = 0
    read_cost: float = 0.0
    write_cost: float = 0.0
    touches: int = 0

    @property
    def q(self) -> float:
        """The asymmetric cost attributed here (Qr + omega*Qw on an AEM)."""
        return self.read_cost + self.write_cost

    @property
    def io(self) -> int:
        return self.reads + self.writes

    def weight(self, key: str) -> float:
        if key == "q":
            return self.q
        if key == "qw":
            return self.writes
        if key == "qr":
            return self.reads
        if key == "io":
            return self.io
        raise ValueError(f"weight must be one of {WEIGHTS}, got {key!r}")

    def merged(self, other: "PathStats") -> "PathStats":
        return PathStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            read_cost=self.read_cost + other.read_cost,
            write_cost=self.write_cost + other.write_cost,
            touches=self.touches + other.touches,
        )

    def __sub__(self, other: "PathStats") -> "PathStats":
        return PathStats(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            read_cost=self.read_cost - other.read_cost,
            write_cost=self.write_cost - other.write_cost,
            touches=self.touches - other.touches,
        )

    def as_dict(self) -> dict:
        return {
            "Qr": self.reads,
            "Qw": self.writes,
            "Q": self.q,
            "T": self.touches,
            "io_count": self.io,
        }


Paths = Dict[Tuple[str, ...], PathStats]


def by_innermost(paths: Paths, outside: Optional[str] = None) -> Dict[str, PathStats]:
    """Group a path table by innermost phase name, in first-seen order.

    ``()`` (what happened outside any phase) is grouped under ``outside``,
    or left out when that is ``None``.
    """
    grouped: Dict[str, PathStats] = {}
    for path, stats in paths.items():
        if path:
            name = path[-1]
        elif outside is None:
            continue
        else:
            name = outside
        grouped[name] = grouped[name].merged(stats) if name in grouped else stats
    return grouped


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
    """Mutable read/write/touch counters, attributed by phase path.

    Besides the totals (``reads``, ``writes``, ``touches`` and the summed
    per-event charges ``read_cost``/``write_cost``), the counter keeps one
    bucket per phase path, created when the path is first entered
    (``()`` holds what happens outside any phase). The open path's bucket
    is cached, so a charge updates it without a lookup. A
    :class:`~repro.machine.core.MachineCore` owns one and charges it in
    the frame of each read, write and touch, updating the same fields
    :meth:`add_read`, :meth:`add_write` and :meth:`touch` do.
    """

    def __init__(self, omega: float = 1.0):
        if omega < 1:
            raise ValueError(f"omega must be >= 1, got {omega}")
        self.omega = float(omega)
        self.reads = 0
        self.writes = 0
        self.touches = 0
        #: Summed per-event charges: ``Qr`` and ``omega*Qw`` on an AEM,
        #: the read/write I/O volumes on a flash machine.
        self.read_cost = 0.0
        self.write_cost = 0.0
        #: The open phase path, outermost name first.
        self.path: Tuple[str, ...] = ()
        # path -> [reads, writes, read_cost, write_cost, touches]
        self._paths: Dict[Tuple[str, ...], list] = {}
        self._bucket = self._open(())

    def _open(self, path: Tuple[str, ...]) -> list:
        bucket = self._paths.get(path)
        if bucket is None:
            bucket = self._paths[path] = [0, 0, 0.0, 0.0, 0]
        return bucket

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def add_read(self, k: int = 1, cost: float | None = None) -> None:
        """Record ``k`` read I/Os charged ``cost`` in all (default ``k``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of reads")
        if cost is None:
            cost = k
        self.reads += k
        self.read_cost += cost
        bucket = self._bucket
        bucket[0] += k
        bucket[2] += cost

    def add_write(self, k: int = 1, cost: float | None = None) -> None:
        """Record ``k`` write I/Os charged ``cost`` in all (default
        ``omega * k``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of writes")
        if cost is None:
            cost = self.omega * k
        self.writes += k
        self.write_cost += cost
        bucket = self._bucket
        bucket[1] += k
        bucket[3] += cost

    def touch(self, k: int = 1) -> None:
        """Record ``k`` internal-memory operations (the model's time ``T``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of touches")
        self.touches += k
        self._bucket[4] += k

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute I/Os recorded inside the ``with`` block to ``name``.

        Phases nest lexically; costs go to the full open path, and the
        by-name readouts (:attr:`phases`) credit each path's costs to its
        innermost name only.
        """
        self.enter_phase(name)
        try:
            yield
        finally:
            self.exit_phase(name)

    def enter_phase(self, name: str) -> None:
        """Push ``name``; subsequent costs are attributed to the new path."""
        self.path = path = self.path + (name,)
        self._bucket = self._open(path)

    def exit_phase(self, name: str | None = None) -> None:
        """Pop the innermost phase, verifying it is ``name`` when given.

        Raises :class:`~repro.machine.errors.PhaseError` on an exit with no
        phase active or with a name that is not the innermost phase —
        an unbalanced pop would silently misattribute everything after it.
        """
        if not self.path:
            raise PhaseError(
                f"exit_phase({name!r}) with no phase active"
                if name is not None
                else "exit_phase() with no phase active"
            )
        innermost = self.path[-1]
        if name is not None and innermost != name:
            raise PhaseError(
                f"exit_phase({name!r}) but the innermost phase is "
                f"{innermost!r}; phase enter/exit must nest"
            )
        self.path = path = self.path[:-1]
        self._bucket = self._open(path)

    def paths(self) -> Paths:
        """The table: every path entered so far, plus ``()``."""
        return {path: PathStats(*bucket) for path, bucket in self._paths.items()}

    @property
    def phases(self) -> Dict[str, CostSnapshot]:
        """Every phase name entered, in first-entry order, with the costs of
        the paths it is innermost in."""
        omega = self.omega
        return {
            name: CostSnapshot(
                reads=s.reads, writes=s.writes, touches=s.touches, omega=omega
            )
            for name, s in by_innermost(self.paths()).items()
        }

    def phase_snapshot(self, name: str) -> CostSnapshot:
        """:attr:`phases`' entry for ``name`` (zero if never entered)."""
        snap = self.phases.get(name)
        if snap is None:
            return CostSnapshot(reads=0, writes=0, touches=0, omega=self.omega)
        return snap

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

    def describe(self) -> str:
        return self.snapshot().describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostCounter({self.describe()})"
