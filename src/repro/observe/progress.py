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

Rendering is rate-limited by event count (``every``), not wall clock, to
keep the observer deterministic and cheap: between renders an event costs
two integer increments and a comparison. The phase shown is the open
phase path of the watched machine's cost ledger, read through
:class:`~repro.observe.ledger.LedgerReadout`; the closing line lists the
paths its window visited.
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

    batch_columns = False

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
        self.reads = 0
        self.writes = 0
        self.rounds = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.reads += 1
        self._tick()

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.writes += 1
        self._tick()

    def on_batch(self, batch) -> None:
        io = batch.reads + batch.writes
        if not io:
            return
        self.reads += batch.reads
        self.writes += batch.writes
        self._pending += io
        if self._pending >= self.every:
            self._render()

    def on_phase_enter(self, name: str) -> None:
        # The ledger, attached first, has already entered the phase.
        self._render()

    def on_round_boundary(self, index: int) -> None:
        self.rounds += 1

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def _line(self) -> str:
        live = self._windows[-1].ledger.path if self._windows else ()
        phase = "/".join(live) or "-"
        prefix = f"[{self.label}] " if self.label else ""
        line = f"{prefix}Qr={self.reads} Qw={self.writes} phase={phase}"
        if self.rounds:
            line += f" rounds={self.rounds}"
        return line

    def _tick(self) -> None:
        self._pending += 1
        if self._pending >= self.every:
            self._render()

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
        ever produces. Buffered batch events are flushed first, so the
        printed counts are exact rather than trailing the run. By the
        time a run closes every phase has exited, so the summary reports
        the *visited* nested paths (``phases=sort/merge,...``) instead of
        the long-empty current stack.
        """
        self.flush_core()
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
