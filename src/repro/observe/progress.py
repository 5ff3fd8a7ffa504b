"""Live progress readout for long-running simulations.

:class:`ProgressObserver` renders a single updating status line — I/O
counts, current phase, declared rounds — to a stream (stderr by default).
The CLI attaches one when invoked with ``--progress``, so full-size sweeps
show where they are instead of going silent for minutes.

The carriage-return frames only render *live* when the stream is a TTY
(or ``REPRO_PROGRESS=1`` forces them, or the caller passes
``live=True``): a piped CI log gets exactly one final summary line from
``close()`` instead of thousands of ``\\r`` frames. Counting continues
either way, so the final line is always accurate.

Rendering is rate-limited by I/O count (``every``), not wall clock, to
keep the observer deterministic and cheap: between renders an I/O costs
one handler call, an integer increment and a comparison. What a line
shows comes from the watched machine's cost ledger, read through
:class:`~repro.observe.ledger.LedgerReadout`: ``Qr``/``Qw`` since attach,
the open phase path, and on the closing line the paths its window
visited.
"""

from __future__ import annotations

import os
import sys
from typing import IO, Optional, Sequence

from .ledger import LedgerReadout

#: Environment override: force live frames even on a non-TTY stream.
PROGRESS_ENV = "REPRO_PROGRESS"


def _stream_is_live(stream: IO[str]) -> bool:
    if os.environ.get(PROGRESS_ENV, "") == "1":
        return True
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty()) if callable(isatty) else False
    except (OSError, ValueError):  # closed or exotic streams
        return False


class ProgressObserver(LedgerReadout):
    """Emit a ``\\r``-refreshed ``Qr/Qw/phase`` status line.

    Parameters
    ----------
    stream:
        Where to render (default ``sys.stderr``).
    every:
        Render after this many I/O events (default 1000).
    label:
        Prefix identifying the run (e.g. the algorithm name).
    live:
        Whether to render intermediate ``\\r`` frames. ``None`` (the
        default) auto-detects: frames render only when ``stream`` is a
        TTY or ``REPRO_PROGRESS=1`` is set. ``close()`` always writes
        the final summary line and flushes, live or not.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        *,
        every: int = 1000,
        label: str = "",
        live: Optional[bool] = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self.label = label
        self.live = _stream_is_live(self.stream) if live is None else bool(live)
        self.rounds = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    # The ledger counts the I/Os; this handler only keeps the cadence.
    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self._pending += 1
        if self._pending >= self.every:
            self._render()

    on_write = on_read

    def on_phase_enter(self, name: str) -> None:
        # The core's ledger has already entered the phase.
        self._render()

    def on_round_boundary(self, index: int) -> None:
        self.rounds += 1

    # ------------------------------------------------------------------
    # Readout and rendering.
    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        """Read I/Os since attach (``Qr`` of the ledger window)."""
        return self._totals().Qr

    @property
    def writes(self) -> int:
        """Write I/Os since attach (``Qw`` of the ledger window)."""
        return self._totals().Qw

    def _line(self) -> str:
        live = self._windows[-1].ledger.path if self._windows else ()
        phase = "/".join(live) or "-"
        prefix = f"[{self.label}] " if self.label else ""
        totals = self._totals()
        line = f"{prefix}Qr={totals.Qr} Qw={totals.Qw} phase={phase}"
        if self.rounds:
            line += f" rounds={self.rounds}"
        return line

    def _render(self) -> None:
        self._pending = 0
        if not self.live:
            return
        self.stream.write("\r" + self._line().ljust(78))
        self.stream.flush()

    def close(self) -> None:
        """Write the final summary line and flush.

        On a live stream this replaces the in-place status line and moves
        off it; on a piped stream it is the *only* output the observer
        ever produces. By the time a run closes every phase has exited,
        so the summary reports the *visited* nested paths
        (``phases=sort/merge,...``) instead of the long-empty current
        stack.
        """
        line = self._line()
        visited = ["/".join(path) for path in self._paths() if path]
        if len(visited) > 8:
            visited = visited[:8] + [f"+{len(visited) - 8} more"]
        if visited:
            line += f" phases={','.join(visited)}"
        if self.live:
            self.stream.write("\r" + line.ljust(78) + "\n")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
