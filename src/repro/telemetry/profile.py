"""I/O cost-attribution profiling: where Q = Qr + omega*Qw is spent.

:class:`CostProfiler` is a machine observer that mirrors the live nested
phase stack (via :class:`~repro.observe.phases.PhaseStack`) and
attributes every I/O to the *stack path* under which it happened —
``("sort", "form_runs")`` rather than the flat innermost-phase totals
the cost ledger keeps. On the batched bus it consumes whole
:class:`~repro.observe.batch.EventBatch` aggregates (phase boundaries
are flush points, so charging a batch to the current path is exact); a
``needs_events`` instance's per-event handlers produce the identical
attribution. It needs no payloads, so it works on counting machines
unchanged.

The cardinal invariant is **conservation**: summed over all paths, the
attributed Qr / Qw / Q / T equal the machine's own cost ledger — checked
by :meth:`CostProfiler.conservation_errors` (by default against the
:class:`~repro.observe.CostObserver` of every machine the profiler was
attached to) the same way :class:`~repro.sanitize.cost.CostSanitizer`
reconciles recomputed costs against the ledger.

Exports:

* :func:`folded` — collapsed folded-stack text (``sort;form_runs 1340``,
  one line per path), the format flamegraph tooling ingests directly;
* :func:`speedscope` — a ``speedscope.app``-loadable sampled profile;
* :func:`render_table` — the top-N attribution table ``repro-aem
  profile`` prints.

All three take a ``weight`` from :data:`WEIGHTS`: ``q`` (the asymmetric
cost), ``qw`` / ``qr`` (write/read I/O counts — the quantities the
paper's lower bounds constrain), or ``io`` (total I/Os).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..machine.cost import CostRecord
from ..machine.internal import InternalMemory
from ..observe.base import MachineObserver
from ..observe.batch import KIND_READ, KIND_WRITE
from ..observe.cost import CostObserver
from ..observe.phases import PhaseStack

#: Selectable attribution weights: name -> PathStats accessor.
WEIGHTS = ("q", "qw", "qr", "io")

#: Reconciliation tolerance; costs are exact rational sums of 1/omega
#: steps accumulated in floats, same as the sanitizer's.
_TOL = 1e-9


@dataclass(frozen=True)
class PathStats:
    """Attributed totals for one phase-stack path."""

    reads: int = 0
    writes: int = 0
    read_cost: float = 0.0
    write_cost: float = 0.0
    touches: int = 0
    blocks: int = 0  # distinct blocks touched (when tracked; else 0)

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
            blocks=max(self.blocks, other.blocks),
        )

    def as_dict(self) -> dict:
        # Ledger-keyed readout of *attributed* totals (the quantities the
        # conservation check reconciles), not a shadow cost record.
        return {  # lint: disable=AEM104
            "Qr": self.reads,
            "Qw": self.writes,
            "Q": self.q,
            "T": self.touches,
            "io_count": self.io,
            "blocks": self.blocks,
        }


Paths = Dict[Tuple[str, ...], PathStats]


class CostProfiler(MachineObserver):
    """Attribute I/O costs to live phase-stack paths; see the module doc.

    Parameters
    ----------
    root:
        The synthetic root frame exported profiles hang under (the
        workload or task label).
    track_blocks:
        Also count *distinct* blocks touched per path. This needs the
        per-event address columns, so it flips ``batch_columns`` on for
        this instance — slightly more bus work, identical attribution.
    """

    batch_columns = False

    def __init__(self, root: str = "run", *, track_blocks: bool = False):
        self.root = root
        self.track_blocks = bool(track_blocks)
        if self.track_blocks:
            # Instance-level override: this consumer now needs columns.
            self.batch_columns = True
        self.stack = PhaseStack()
        self._paths: Dict[Tuple[str, ...], list] = {}
        self._blocks: Dict[Tuple[str, ...], set] = {}
        #: What :meth:`ledger` reads of every machine attached to: its own
        #: :class:`~repro.observe.CostObserver` (none, or the first one it
        #: attached) and its internal memory. Neither refers back to the
        #: core, so a finished machine is freed by reference counting and
        #: these still read exactly (the core flushes them as it goes).
        self._ledgers: list[tuple[list, InternalMemory]] = []

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def on_attach(self, core) -> None:
        super().on_attach(core)
        self._ledgers.append((core.find(CostObserver)[:1], core.mem))

    def _bucket(self) -> list:
        path = self.stack.current
        bucket = self._paths.get(path)
        if bucket is None:
            # [reads, writes, read_cost, write_cost, touches]
            bucket = self._paths[path] = [0, 0, 0.0, 0.0, 0]
        return bucket

    def _blockset(self) -> set:
        path = self.stack.current
        blocks = self._blocks.get(path)
        if blocks is None:
            blocks = self._blocks[path] = set()
        return blocks

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        bucket = self._bucket()
        bucket[0] += 1
        bucket[2] += cost
        if self.track_blocks:
            self._blockset().add(addr)

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        bucket = self._bucket()
        bucket[1] += 1
        bucket[3] += cost
        if self.track_blocks:
            self._blockset().add(addr)

    def on_touch(self, k: int) -> None:
        self._bucket()[4] += k

    def on_batch(self, batch) -> None:
        # Whole-batch attribution to the current path is exact: phase
        # boundaries flush before their callbacks fire, so everything in
        # the batch happened under the current stack.
        if not batch.n:
            return
        bucket = self._bucket()
        bucket[0] += batch.reads
        bucket[1] += batch.writes
        bucket[2] += batch.read_cost
        bucket[3] += batch.write_cost
        bucket[4] += batch.touches
        if self.track_blocks and batch.kinds:
            blocks = self._blockset()
            for kind, addr in zip(batch.kinds, batch.addrs):
                if kind == KIND_READ or kind == KIND_WRITE:
                    blocks.add(addr)

    def on_phase_enter(self, name: str) -> None:
        self.stack.enter(name)

    def on_phase_exit(self, name: str) -> None:
        self.stack.exit(name)

    # ------------------------------------------------------------------
    # Readout (flush-first, like every observer readout).
    # ------------------------------------------------------------------
    def paths(self) -> Paths:
        """Attribution by stack path (root not included in the keys)."""
        self.flush_core()
        return {
            path: PathStats(
                reads=bucket[0],
                writes=bucket[1],
                read_cost=bucket[2],
                write_cost=bucket[3],
                touches=bucket[4],
                blocks=len(self._blocks.get(path, ())),
            )
            for path, bucket in self._paths.items()
        }

    def totals(self) -> PathStats:
        """Everything attributed, summed over paths."""
        total = PathStats()
        for stats in self.paths().values():
            total = total.merged(stats)
        return total

    def ledger(self) -> CostRecord:
        """The machine-side ledger: the :class:`~repro.observe.CostObserver`
        snapshots of every machine this profiler was attached to, summed.

        This, not a measurement's returned record, is what the profiler
        saw: a record may price a sub-range of the run (``search_query``
        prices its query phase only).
        """
        snaps = [obs.snapshot() for own, _ in self._ledgers for obs in own]
        return CostRecord(
            Q=sum(s.Q for s in snaps),
            Qr=sum(s.reads for s in snaps),
            Qw=sum(s.writes for s in snaps),
            T=sum(s.touches for s in snaps),
            peak_mem=max((mem.peak for _, mem in self._ledgers), default=0),
        )

    def conservation_errors(self, ledger: Optional[Mapping] = None) -> list[str]:
        """Reconcile attributed totals against a cost ledger.

        ``ledger`` defaults to :meth:`ledger`; an explicit one is anything
        Mapping-shaped with the ledger keys — a
        :class:`~repro.machine.cost.CostRecord`, a ``CostObserver``
        snapshot dict, or a plain dict. Returns human-readable mismatch
        descriptions (empty == conserved), mirroring how the cost
        sanitizer reconciles recomputed costs.
        """
        if ledger is None:
            ledger = self.ledger()

        def lookup(key: str):
            # CostRecord is Mapping-shaped but has no .get; plain dicts do.
            try:
                return ledger[key]
            except (KeyError, TypeError):
                return None

        total = self.totals()
        io_count = lookup("io_count")
        if io_count is None and lookup("Qr") is not None and lookup("Qw") is not None:
            io_count = lookup("Qr") + lookup("Qw")
        checks = (
            ("Qr", total.reads, lookup("Qr")),
            ("Qw", total.writes, lookup("Qw")),
            ("Q", total.q, lookup("Q")),
            ("T", total.touches, lookup("T")),
            ("io_count", total.io, io_count),
        )
        errors = []
        for name, attributed, expected in checks:
            if expected is None:
                continue
            if abs(attributed - expected) > _TOL:
                errors.append(
                    f"{name}: attributed {attributed!r} != ledger {expected!r}"
                )
        return errors

    # Export conveniences over this profiler's own paths.
    def folded(self, weight: str = "q") -> str:
        return folded(self.paths(), weight=weight, root=self.root)

    def speedscope(self, weight: str = "q", name: Optional[str] = None) -> dict:
        return speedscope(
            self.paths(), weight=weight, name=name or self.root, root=self.root
        )

    def table(self, weight: str = "q", top: int = 20) -> str:
        return render_table(self.paths(), weight=weight, top=top, root=self.root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostProfiler({self.root!r}, {len(self._paths)} paths)"


# ----------------------------------------------------------------------
# Path-dict combinators and exports (module functions so merged/aggregated
# path dicts — e.g. one per sweep config — share the same formatting).
# ----------------------------------------------------------------------
def merge_paths(
    parts: Iterable[Tuple[str, Paths]],
) -> Paths:
    """Combine per-run path dicts, rooting each under its label.

    ``[("aem_mergesort[0]", paths0), ...]`` becomes one dict whose keys
    are ``(label, *path)`` — the aggregate profile of a whole sweep with
    per-config provenance preserved.
    """
    merged: Paths = {}
    for label, paths in parts:
        for path, stats in paths.items():
            key = (label,) + path
            merged[key] = merged[key].merged(stats) if key in merged else stats
    return merged


def _ordered(paths: Paths, weight: str) -> list[Tuple[Tuple[str, ...], PathStats]]:
    return sorted(
        paths.items(),
        key=lambda item: (-item[1].weight(weight), item[0]),
    )


def folded(paths: Paths, *, weight: str = "q", root: str = "") -> str:
    """Collapsed folded-stack text: ``root;outer;inner weight`` per line.

    Weights are *exclusive* by construction — the profiler attributes
    each event to the innermost live path only — which is exactly what
    folded-stack consumers (flamegraph.pl, speedscope, inferno) expect.
    Zero-weight paths are dropped.
    """
    prefix = (root,) if root else ()
    lines = []
    for path in sorted(paths):
        value = paths[path].weight(weight)
        if not value:
            continue
        lines.append(f"{';'.join(prefix + path)} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope(
    paths: Paths,
    *,
    weight: str = "q",
    name: str = "repro-aem profile",
    root: str = "",
) -> dict:
    """The profile as a speedscope *sampled* profile JSON object.

    Each attributed path becomes one sample whose weight is the selected
    metric — load the file at ``https://www.speedscope.app`` (or pipe
    through ``speedscope`` locally) for an interactive flame view.
    """
    prefix = (root,) if root else ()
    frame_index: Dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[float] = []
    for path, stats in _ordered(paths, weight):
        value = stats.weight(weight)
        if not value:
            continue
        stack = []
        for frame_name in prefix + path:
            idx = frame_index.get(frame_name)
            if idx is None:
                idx = frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(idx)
        samples.append(stack)
        weights.append(value)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro-aem profile",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": f"{name} ({weight})",
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def render_table(
    paths: Paths, *, weight: str = "q", top: int = 20, root: str = ""
) -> str:
    """The top-N attribution table the CLI prints."""
    ordered = [
        (path, stats)
        for path, stats in _ordered(paths, weight)
        if stats.weight(weight)
    ]
    total = sum(stats.weight(weight) for _, stats in ordered) or 1.0
    shown = ordered[: max(top, 0)]
    prefix = (root,) if root else ()
    rows = [
        (
            ";".join(prefix + path),
            f"{stats.reads}",
            f"{stats.writes}",
            f"{stats.q:g}",
            f"{stats.io}",
            f"{stats.weight(weight) / total:6.1%}",
        )
        for path, stats in shown
    ]
    header = ("path", "Qr", "Qw", "Q", "io", f"%{weight}")
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows))
        if rows
        else len(header[col])
        for col in range(len(header))
    ]
    def fmt(row: Tuple[str, ...]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [row[col].rjust(widths[col]) for col in range(1, len(row))]
        return "  ".join(cells)

    lines = [fmt(header)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    if len(ordered) > len(shown):
        lines.append(f"... {len(ordered) - len(shown)} more path(s)")
    return "\n".join(lines)
