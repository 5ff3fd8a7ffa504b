"""I/O cost-attribution profiling: where Q = Qr + omega*Qw is spent.

:class:`CostProfiler` reads the phase-path table of the cost ledger every
machine core keeps and charges (``core.counter``, a
:class:`~repro.machine.cost.CostCounter`): every I/O is attributed
to the *stack path* under which it happened — ``("sort", "form_runs")``
rather than the innermost phase alone. It consumes no events itself: it
is a :class:`~repro.observe.ledger.LedgerReadout` of the machines it is
attached to, so it works on counting machines unchanged.

The cardinal invariant is **conservation**: summed over all paths, the
attributed Qr / Qw / Q / T equal the ledger's own totals — checked by
:meth:`CostProfiler.conservation_errors` (by default against the totals
of every machine the profiler was attached to). The independent recount
is :class:`~repro.sanitize.cost.CostSanitizer`'s, which reconciles every
path against raw events.

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

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..machine.cost import WEIGHTS, CostRecord, Paths, PathStats
from ..observe.ledger import LedgerReadout

#: Reconciliation tolerance; costs are exact rational sums of 1/omega
#: steps accumulated in floats, same as the sanitizer's.
_TOL = 1e-9


class CostProfiler(LedgerReadout):
    """Attribute I/O costs to phase-stack paths; see the module doc.

    Parameters
    ----------
    root:
        The synthetic root frame exported profiles hang under (the
        workload or task label).
    """

    def __init__(self, root: str = "run"):
        super().__init__()
        self.root = root

    # ------------------------------------------------------------------
    # Readout (through the ledgers).
    # ------------------------------------------------------------------
    def paths(self) -> Paths:
        """Attribution by stack path (root not included in the keys):
        every path with a read, write or touch."""
        return {
            path: stats
            for path, stats in self._paths().items()
            if stats.reads or stats.writes or stats.touches
        }

    def totals(self) -> PathStats:
        """Everything attributed, summed over paths."""
        total = PathStats()
        for stats in self.paths().values():
            total = total.merged(stats)
        return total

    def ledger(self) -> CostRecord:
        """The ledgers' totals over the windows this profiler watched,
        summed across machines (``peak_mem`` is the largest machine peak).

        This, not a measurement's returned record, is what the profiler
        saw: a record may price a sub-range of the run (``search_query``
        prices its query phase only).
        """
        return self._totals()

    def conservation_errors(self, ledger: Optional[Mapping] = None) -> list[str]:
        """Reconcile attributed totals against a cost ledger.

        ``ledger`` defaults to :meth:`ledger`; an explicit one is anything
        Mapping-shaped with the ledger keys — a
        :class:`~repro.machine.cost.CostRecord`, a ledger snapshot
        dict, or a plain dict. Returns human-readable mismatch
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
        return f"CostProfiler({self.root!r}, {len(self._windows)} live machine(s))"


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
