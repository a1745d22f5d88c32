"""The one reader of ``REPRO_*`` configuration variables.

There are two knobs, both words: ``REPRO_KERNELS`` (the kernel backend
``auto`` resolves to) and ``REPRO_MATERIALIZE`` (a ``Store``'s default
entailment mode).  Each is read at call time (tests and CI toggle
them), stripped, with an unset or blank variable meaning "use the
default".  The module that owns a knob validates its value together
with explicitly passed ones, so a bad value is an error there rather
than a warning here.
"""

from __future__ import annotations

import os
from typing import Optional


def env_choice(name: str, default: Optional[str]) -> Optional[str]:
    """A word knob: ``default`` when unset or blank, else the value as
    written.  The caller validates it together with explicitly passed
    values, where a bad one is an error rather than a warning.
    """
    raw = os.environ.get(name, "").strip()
    return raw or default
