"""Pluggable kernel backends for the vertical store's hot paths.

See :mod:`repro.kernels.base` for the interface.  This module owns
backend discovery and selection:

* :func:`get_backend` — name → shared backend instance;
* :func:`resolve_backend` — the policy used by the engine/store:
  ``'auto'`` picks NumPy when it is importable, else the pure-Python
  reference backend;
* :func:`numpy_available` — availability probe.

Environment knobs (read at call time, so tests and CI can toggle them):

* ``REPRO_KERNELS`` — overrides the ``'auto'`` default (``python``,
  ``numpy`` or ``compressed``), without touching call sites;
* ``REPRO_KERNELS_DISABLE_NUMPY`` — any non-empty value other than
  ``0`` makes NumPy count as unavailable, so the pure-Python fallback
  can be exercised on machines that do have NumPy installed (the CI
  matrix uses this).
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..env import env_choice
from .base import KernelBackend
from .python_backend import PYTHON_KERNELS, PythonKernels

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "KernelUnavailableError",
    "PythonKernels",
    "get_backend",
    "numpy_available",
    "resolve_backend",
]

#: Names accepted by the public ``backend=`` parameters.
BACKEND_NAMES = ("auto", "python", "numpy", "compressed")

_NUMPY_IMPORT_FAILED = False
_NUMPY_KERNELS: Optional[KernelBackend] = None
_COMPRESSED_KERNELS: dict = {}


class KernelUnavailableError(RuntimeError):
    """An explicitly requested backend cannot be provided."""


def numpy_available() -> bool:
    """Whether the NumPy backend can be used right now."""
    if os.environ.get("REPRO_KERNELS_DISABLE_NUMPY", "") not in ("", "0"):
        return False
    return _load_numpy_backend() is not None


def _load_numpy_backend() -> Optional[KernelBackend]:
    global _NUMPY_IMPORT_FAILED, _NUMPY_KERNELS
    if _NUMPY_KERNELS is None and not _NUMPY_IMPORT_FAILED:
        try:
            from .numpy_backend import NUMPY_KERNELS
        except ImportError:
            _NUMPY_IMPORT_FAILED = True
        else:
            _NUMPY_KERNELS = NUMPY_KERNELS
    return _NUMPY_KERNELS


def _load_compressed_backend() -> KernelBackend:
    # The compressed backend delegates decompressed-window math to an
    # inner backend; pick it at call time so REPRO_KERNELS_DISABLE_NUMPY
    # keeps the pure-Python composition honest.  One shared instance per
    # inner substrate.
    from .compressed_backend import CompressedKernels

    inner = _load_numpy_backend() if numpy_available() else PYTHON_KERNELS
    if inner.name not in _COMPRESSED_KERNELS:
        _COMPRESSED_KERNELS[inner.name] = CompressedKernels(inner)
    return _COMPRESSED_KERNELS[inner.name]


def get_backend(name: str) -> KernelBackend:
    """The shared backend instance for an explicit name."""
    if name == "python":
        return PYTHON_KERNELS
    if name == "compressed":
        return _load_compressed_backend()
    if name == "numpy":
        if not numpy_available():
            raise KernelUnavailableError(
                "the numpy kernel backend was requested but numpy is not "
                "available (not installed, or disabled via "
                "REPRO_KERNELS_DISABLE_NUMPY)"
            )
        return _load_numpy_backend()
    raise KernelUnavailableError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def resolve_backend(
    backend: Union[str, KernelBackend, None] = "auto",
) -> KernelBackend:
    """Apply the selection policy (see module docstring).

    ``backend`` may already be a :class:`KernelBackend` instance (passed
    through unchanged), a name from :data:`BACKEND_NAMES`, or ``None`` /
    ``'auto'`` for the default policy.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None or backend == "auto":
        backend = env_choice("REPRO_KERNELS", "auto")
    if backend == "auto":
        return get_backend("numpy") if numpy_available() else PYTHON_KERNELS
    return get_backend(backend)
