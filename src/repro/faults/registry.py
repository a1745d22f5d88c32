"""Seeded fault-injection registry.

Spec grammar (one entry, ``;``-separated in ``$REPRO_FAULTS``)::

    site[:action][:key=value]...

``site``
    One of :data:`FAULT_SITES` (unknown sites are accepted with a
    warning so older builds tolerate newer specs).
``action``
    ``raise`` (default) raises a deterministic :class:`InjectedFault`
    at the seam.  ``kill`` terminates the current process with
    ``os._exit`` (exit code :data:`KILL_EXIT_CODE`), simulating kill -9
    at the seam.
``after=N``
    Skip the first ``N`` hits of the site before firing (default 0).
``times=N``
    Fire at most ``N`` times (default 1); ``times=-1`` fires forever.
``p=F`` / ``seed=N``
    Fire each eligible hit with probability ``F`` drawn from a
    dedicated ``random.Random(seed)`` stream, so a given spec produces
    the same hit pattern on every run.

Examples::

    persist.write
    serving.flush:raise:after=1:times=-1
    serving.wal:kill:after=1
    persist.fsync:raise:p=0.5:seed=7

State (hit counters, RNG streams) is per-process; subprocesses re-arm
from ``$REPRO_FAULTS`` on their first :func:`fire` call, which is how
:func:`inject` reaches across process boundaries.
"""

from __future__ import annotations

import os
import random
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

ENV_VAR = "REPRO_FAULTS"

#: Exit code used by ``action=kill`` (EX_SOFTWARE), distinct from the
#: interpreter's generic 1 so tests can assert the injected death.
KILL_EXIT_CODE = 70

#: Instrumented seams.  Unknown sites parse with a warning so spec
#: strings stay forward-compatible.
FAULT_SITES = (
    "persist.write",
    "persist.fsync",
    "serving.flush",
    "serving.wal",
)

_ACTIONS = ("raise", "kill")


class InjectedFault(RuntimeError):
    """Deterministic error raised by an armed ``raise`` fault site."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, what, and when it fires."""

    site: str
    action: str = "raise"
    after: int = 0
    times: int = 1
    p: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {_ACTIONS})"
            )
        if self.after < 0:
            raise ValueError("after= must be >= 0")
        if self.times < -1:
            raise ValueError("times= must be >= 0, or -1 for unlimited")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p= must be in [0, 1]")

    def to_token(self) -> str:
        """Serialize back to the spec grammar (for ``$REPRO_FAULTS``)."""
        return (
            f"{self.site}:{self.action}"
            f":after={self.after}:times={self.times}"
            f":p={self.p!r}:seed={self.seed}"
        )


class _Armed:
    """Mutable per-process firing state for one spec."""

    __slots__ = ("spec", "hits", "fired", "rng")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.hits = 0
        self.fired = 0
        self.rng = random.Random(spec.seed)


_armed: Dict[str, _Armed] = {}
#: The $REPRO_FAULTS value the current ``_armed`` table was built from.
#: ``None`` forces a reload on the next fire() (initial state).
_env_signature: Optional[str] = None


def parse_faults(text: str) -> List[FaultSpec]:
    """Parse a ``;``-separated spec string into :class:`FaultSpec` s."""
    specs = []
    for token in text.split(";"):
        token = token.strip()
        if token:
            specs.append(_parse_entry(token))
    return specs


def _parse_entry(token: str) -> FaultSpec:
    parts = token.split(":")
    site = parts[0].strip()
    if not site:
        raise ValueError(f"empty fault site in spec {token!r}")
    if site not in FAULT_SITES:
        warnings.warn(
            f"unknown fault site {site!r} (known: {', '.join(FAULT_SITES)})",
            stacklevel=3,
        )
    kwargs: Dict[str, Union[str, int, float]] = {}
    for part in parts[1:]:
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            if part not in _ACTIONS:
                raise ValueError(
                    f"unknown fault action {part!r} in spec {token!r}"
                )
            kwargs["action"] = part
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("after", "times", "seed"):
            kwargs[key] = int(value)
        elif key == "p":
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in spec {token!r}")
    return FaultSpec(site=site, **kwargs)  # type: ignore[arg-type]


def _rearm(specs: List[FaultSpec], signature: Optional[str]) -> None:
    global _env_signature
    _armed.clear()
    for spec in specs:
        _armed[spec.site] = _Armed(spec)
    _env_signature = signature


def _sync_with_env() -> None:
    """Re-arm from ``$REPRO_FAULTS`` whenever its value changes.

    This is how subprocesses (which inherit the environment but not
    this module's state) pick up the specs armed by the parent's
    :func:`inject` context manager.
    """
    env = os.environ.get(ENV_VAR, "")
    if env == _env_signature:
        return
    try:
        specs = parse_faults(env)
    except ValueError as error:
        warnings.warn(f"ignoring malformed $REPRO_FAULTS: {error}")
        specs = []
    _rearm(specs, env)


def fire(site: str, detail: str = "") -> None:
    """Trip the fault armed at ``site``, if any.

    No-op (one dict lookup) when the site is not armed.  Called from
    the instrumented seams; never call it with untrusted input.
    """
    _sync_with_env()
    armed = _armed.get(site)
    if armed is None:
        return
    spec = armed.spec
    armed.hits += 1
    if armed.hits <= spec.after:
        return
    if spec.times >= 0 and armed.fired >= spec.times:
        return
    if spec.p < 1.0 and armed.rng.random() >= spec.p:
        return
    armed.fired += 1
    message = f"injected fault at {site}"
    if detail:
        message = f"{message} ({detail})"
    if spec.action == "kill":
        os._exit(KILL_EXIT_CODE)
    raise InjectedFault(message)


def reset() -> None:
    """Disarm every site and clear hit counters (test hygiene)."""
    _rearm([], os.environ.get(ENV_VAR, ""))


def active_specs() -> Tuple[FaultSpec, ...]:
    """The specs currently armed in this process."""
    _sync_with_env()
    return tuple(armed.spec for armed in _armed.values())


@contextmanager
def inject(*specs: Union[str, FaultSpec]) -> Iterator[None]:
    """Arm ``specs`` for the duration of the block.

    Accepts spec strings (the grammar above) or :class:`FaultSpec`
    objects.  Also exports the specs via ``$REPRO_FAULTS`` so
    subprocesses started *inside* the block inherit them; both
    the registry and the environment are restored on exit.
    """
    parsed: List[FaultSpec] = []
    for spec in specs:
        if isinstance(spec, FaultSpec):
            parsed.append(spec)
        else:
            parsed.extend(parse_faults(spec))
    previous_env = os.environ.get(ENV_VAR)
    signature = ";".join(spec.to_token() for spec in parsed)
    os.environ[ENV_VAR] = signature
    _rearm(parsed, signature)
    try:
        yield
    finally:
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env
        _rearm([], None)  # force re-sync from env on next fire()
