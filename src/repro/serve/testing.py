"""In-process server harness for tests, the CI smoke, and `serve-bench`.

:class:`ServerThread` runs a :class:`~repro.serve.server.CostServer` on a
background thread with its own event loop, exposes the bound port (so
``port=0`` ephemeral binding works), and drains it on exit — the same
graceful-shutdown path production uses, exercised on every test run.
:class:`EngineHold` keeps the engine busy on command, so queries that
arrive meanwhile wait in flight (to dedup, coalesce or be refused)
without a timer.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional

from .. import api
from .http import Response, request
from .server import CostServer, ServeConfig


class ServerThread:
    """A live cost-oracle server on a background thread.

    Usage::

        with ServerThread(ServeConfig(port=0, counting=True)) as srv:
            resp = srv.post("/evaluate", {"workload": "sort", "n": 512})

    Entering the context blocks until the socket is bound; exiting drains
    the server (finishing in-flight queries) and joins the thread.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig(port=0)
        self.server: Optional[CostServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="cost-oracle-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            future.result(timeout=60)
        except RuntimeError:
            pass  # loop already closed: the server finished on its own
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = CostServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Convenience client.
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self.server is not None, "server not started"
        return self.server.port

    def get(self, path: str, *, timeout: float = 30.0) -> Response:
        return request(self.host, self.port, "GET", path, timeout=timeout)

    def post(self, path: str, payload: Any, *, timeout: float = 30.0) -> Response:
        return request(self.host, self.port, "POST", path, payload, timeout=timeout)


class EngineHold:
    """Blocks the first :func:`repro.api.sweep` call until released.

    Every engine dispatch of a :class:`~repro.serve.server.CostServer`
    is one ``api.sweep`` call, so while the first is held its queries
    stay in flight and later ones wait in the admission queue: they
    dedup against the held ones, form the next batch, or fill the
    server's ``max_pending``. Usage::

        with ServerThread(config) as srv, EngineHold() as hold:
            ...  # post from other threads
            hold.wait_entered()
            ...  # observe /stats
            hold.release()

    Exiting releases the hold and restores ``api.sweep``. Enter it inside
    the server's ``with``, so it exits first: a server drains only after
    its dispatches return, so a hold still set at the drain blocks it
    until ``timeout``.
    """

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self._entered = threading.Event()
        self._released = threading.Event()
        self._sweep = None

    def __enter__(self) -> "EngineHold":
        self._sweep = sweep = api.sweep

        def held_sweep(queries, **kwargs):
            # The server's dispatches are serial, so only one call can
            # find the hold unentered.
            if not self._entered.is_set():
                self._entered.set()
                self._released.wait(self.timeout)
            return sweep(queries, **kwargs)

        api.sweep = held_sweep
        return self

    def __exit__(self, *exc) -> None:
        self.release()
        api.sweep = self._sweep

    def wait_entered(self, timeout: float = 30.0) -> None:
        """Return once the held call has started; raise if none does."""
        if not self._entered.wait(timeout):
            raise RuntimeError(f"no engine dispatch started within {timeout}s")

    def release(self) -> None:
        """Let the held call (and every later one) run."""
        self._released.set()
