"""The one reader of ``REPRO_*`` configuration variables.

Every knob is read the same way — at call time (tests and CI toggle
them), stripped, with an unset or blank variable meaning "use the
default".  A stray worker count must never crash or oversubscribe an
engine, so an integer that cannot be used warns and falls back instead
of raising; a word is validated by the module that owns it, together
with explicitly passed values.  The modules that own a knob state only
its name, default and bounds.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple


def _warn(message: str) -> None:
    # stacklevel: _warn <- env_int <- the knob's resolver <- its caller.
    warnings.warn(message, RuntimeWarning, stacklevel=4)


def env_int(
    name: str,
    default: int,
    *,
    noun: str,
    otherwise: str,
    floor: Optional[Tuple[int, int, str]] = None,
    ceiling: Optional[Tuple[int, int, str]] = None,
) -> int:
    """An integer knob: ``default`` when unset, blank or not a number
    (the latter warns ``"NAME='raw' is not an integer <noun>;
    <otherwise>"``).  ``floor`` / ``ceiling`` are ``(limit, replacement,
    complaint)``: a value beyond ``limit`` warns ``"NAME=value
    <complaint>"`` and is replaced.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn(f"{name}={raw!r} is not an integer {noun}; {otherwise}")
        return default
    if floor is not None and value < floor[0]:
        _warn(f"{name}={value} {floor[2]}")
        return floor[1]
    if ceiling is not None and value > ceiling[0]:
        _warn(f"{name}={value} {ceiling[2]}")
        return ceiling[1]
    return value


def env_choice(name: str, default: Optional[str]) -> Optional[str]:
    """A word knob: ``default`` when unset or blank, else the value as
    written.  The caller validates it together with explicitly passed
    values, where a bad one is an error rather than a warning.
    """
    raw = os.environ.get(name, "").strip()
    return raw or default
