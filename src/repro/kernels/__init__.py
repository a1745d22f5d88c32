"""Pluggable kernel backends for the vertical store's hot paths.

See :mod:`repro.kernels.base` for the interface.  This module owns
backend discovery and selection:

* :func:`get_backend` — name → shared backend instance;
* :func:`resolve_backend` — the policy used by the engine/store:
  ``'auto'`` is the NumPy backend.

NumPy is a dependency, but it is imported only when a NumPy-backed
backend is first asked for, so ``import repro`` stays light.

Environment knob (read at call time, so tests and CI can toggle it):
``REPRO_KERNELS`` overrides the ``'auto'`` default (``python``,
``numpy`` or ``compressed``), without touching call sites.
"""

from __future__ import annotations

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
    "resolve_backend",
]

#: Names accepted by the public ``backend=`` parameters.
BACKEND_NAMES = ("auto", "python", "numpy", "compressed")

_COMPRESSED_KERNELS: Optional[KernelBackend] = None


class KernelUnavailableError(RuntimeError):
    """A requested backend name is not one of :data:`BACKEND_NAMES`."""


def get_backend(name: str) -> KernelBackend:
    """The shared backend instance for an explicit name."""
    global _COMPRESSED_KERNELS
    if name == "python":
        return PYTHON_KERNELS
    if name == "numpy":
        from .numpy_backend import NUMPY_KERNELS

        return NUMPY_KERNELS
    if name == "compressed":
        if _COMPRESSED_KERNELS is None:
            from .compressed_backend import CompressedKernels

            _COMPRESSED_KERNELS = CompressedKernels()
        return _COMPRESSED_KERNELS
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
        backend = "numpy"
    return get_backend(backend)
