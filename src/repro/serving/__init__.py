"""repro.serving — an async reasoning server over Store snapshots.

The millions-of-users story on top of the Store facade: concurrent
reads answer from pinned snapshot epochs, writes coalesce through one
batching queue into incremental flushes, back-pressure and staleness
are observable at ``/metrics``, and shutdown drains instead of
dropping.  Stdlib only (``asyncio`` + a minimal HTTP/1.1 handler).

* :class:`ReasoningServer` — the asyncio server (``await start()``).
* :class:`ServerThread` — the same server on a dedicated loop thread,
  for synchronous programs (benchmarks, tests, examples).
* :func:`run` — blocking convenience used by ``repro serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys

from ..core.store_api import Store
from .metrics import LatencyWindow, ServingMetrics
from .queue import Mutation, MutationQueue, QueueClosed, QueueFull
from .server import FlushFailed, ReasoningServer
from .thread import ServerThread
from .wal import FSYNC_POLICIES, WALCorruptionError, WriteAheadLog

__all__ = [
    "FSYNC_POLICIES",
    "FlushFailed",
    "LatencyWindow",
    "Mutation",
    "MutationQueue",
    "QueueClosed",
    "QueueFull",
    "ReasoningServer",
    "ServerThread",
    "ServingMetrics",
    "WALCorruptionError",
    "WriteAheadLog",
    "run",
]


def run(
    store: Store,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    announce=None,
    **server_options,
) -> int:
    """Serve ``store`` until SIGINT/SIGTERM; returns an exit code.

    ``announce(host, port)`` is called once the listener is bound —
    the CLI prints the resolved address there (``port=0`` picks one).
    """

    async def main() -> int:
        server = ReasoningServer(store, host=host, port=port, **server_options)
        await server.start()
        if announce is not None:
            bound_host, bound_port = server.address
            announce(bound_host, bound_port)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, server.request_stop)
        await server.wait_closed()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        print("repro: interrupted", file=sys.stderr)
        return 130
