"""Run the ``repro`` CLI with one fault installed (subprocess chaos tests).

    PYTHONPATH=src python tests/faults/launch.py FAULT ARGS...

patches one seam, then runs ``repro ARGS...`` through
:func:`repro.cli.main`.  FAULT is one of:

``broken-flush``
    ``Store.materialize`` raises whenever it would extend an existing
    closure, so the first closure is built and served but no later
    write reaches it.  The store re-queues the delta, as it does for
    any flush error.
``kill-mid-save``
    The first atomic write dies with ``os._exit(KILLED)`` after its
    first chunk: no ``finally`` runs, as under ``kill -9``.
"""

import os
import sys

from repro import durable
from repro.cli import main
from repro.core.store_api import Store

#: Exit code of ``kill-mid-save`` (EX_SOFTWARE), apart from the CLI's own.
KILLED = 70


class InjectedFault(RuntimeError):
    """The error a ``broken-flush`` flush raises."""


def broken_flush():
    materialize = Store.materialize

    def failing(store):
        if store.engine.is_materialized and store.stale:
            raise InjectedFault("injected flush failure")
        return materialize(store)

    Store.materialize = failing


def kill_mid_save():
    write_atomically = durable.write_atomically

    def dying(path, chunks):
        def first_chunk_then_exit():
            yield next(iter(chunks))
            os._exit(KILLED)

        return write_atomically(path, first_chunk_then_exit())

    durable.write_atomically = dying


FAULTS = {"broken-flush": broken_flush, "kill-mid-save": kill_mid_save}

if __name__ == "__main__":
    FAULTS[sys.argv[1]]()
    sys.exit(main(sys.argv[2:]))
