"""The one reader of ``REPRO_*`` configuration variables.

Every knob is read the same way — at call time (tests and CI toggle
them), stripped, with an unset or blank variable meaning "use the
default" — and a stray shell export must never crash or oversubscribe
an engine, so a value that cannot be used warns and falls back instead
of raising.  The two forms below are that sequence for integers and
for words; the modules that own a knob state only its name, default
and bounds.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence, Tuple


def _warn(message: str) -> None:
    # stacklevel: _warn <- env_* <- the knob's resolver <- its caller.
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


def env_choice(
    name: str,
    default: Optional[str],
    choices: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """A word knob: ``default`` when unset or blank.

    With ``choices`` the value is lower-cased, and one outside them
    warns and falls back to ``default``.  Without, it is returned as
    written: the caller validates it together with explicitly passed
    values, where a bad one is an error rather than a warning.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if choices is None:
        return raw
    value = raw.lower()
    if value not in choices:
        _warn(f"{name}={value!r} is not one of {choices}; using {default!r}")
        return default
    return value
