"""Deterministic fault injection for chaos testing.

The engine's durability seams (atomic save, the serving flush
pipeline and its write-ahead log) call
:func:`repro.faults.fire` with a labeled site name.  When nothing is
armed the call is a cheap no-op; when a matching
:class:`~repro.faults.registry.FaultSpec` is armed the site raises a
deterministic error (or kills the process) so tests can prove the
recovery paths without races or monkeypatching internals.

Arm faults either in-process::

    with repro.faults.inject("persist.write"):
        store.save(path)          # raises InjectedFault mid-save

or across process boundaries via ``$REPRO_FAULTS`` (subprocesses
inherit the environment)::

    REPRO_FAULTS="serving.flush:raise:after=1" python -m repro serve ...

See :mod:`repro.faults.registry` for the spec grammar.
"""

from repro.faults.registry import (
    FAULT_SITES,
    FaultSpec,
    InjectedFault,
    active_specs,
    fire,
    inject,
    parse_faults,
    reset,
)

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "InjectedFault",
    "active_specs",
    "fire",
    "inject",
    "parse_faults",
    "reset",
]
