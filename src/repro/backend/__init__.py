"""Pluggable compute backends for the hot math paths.

A :class:`~repro.backend.base.ComputeBackend` supplies batch field ops,
fused NTT butterfly sweeps, Montgomery-trick batch inversion and batch
Jacobian point ops. Two kernel floors ship:

* ``native`` — :class:`~repro.backend.native_backend.NativeBackend`,
  the runtime-compiled C kernels of :mod:`repro.backend.native` (CIOS
  Montgomery NTT and pointwise passes, fused Jacobian point kernels and
  the segmented bucket tree of :mod:`repro.backend.native_curve`); the
  default. When the kernels cannot load (no compiler,
  ``REPRO_NATIVE=0``) the name resolves to the ``python`` backend;
* ``python`` — :class:`~repro.backend.pybackend.PythonBackend`, the
  historical per-element int loops, extracted verbatim: the reference
  every equivalence test compares against.

Selection: pass a backend (or its name) explicitly to the engines, or
set ``REPRO_BACKEND=native|python`` in the environment. Backends are
bit-exact against each other and op-count traces never depend on the
choice, with one documented relaxation: bucket accumulation may
reassociate per-bucket sums and return any group-equal Jacobian
representative (see
:meth:`~repro.backend.base.ComputeBackend.accumulate_buckets`).

Importing this package compiles nothing: the kernels load on the first
request for the ``native`` backend.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Union

from repro.backend.base import ComputeBackend
from repro.backend.native_backend import NativeBackend
from repro.backend.pybackend import PythonBackend

__all__ = [
    "ComputeBackend",
    "PythonBackend",
    "NativeBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: environment variable consulted when no backend is named explicitly
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: the backend used when neither the caller nor the environment names one
DEFAULT_BACKEND = "native"

_FACTORIES: Dict[str, Callable[[], ComputeBackend]] = {}
_INSTANCES: Dict[str, ComputeBackend] = {}


def register_backend(name: str,
                     factory: Callable[[], ComputeBackend]) -> None:
    """Register (or replace) a backend under ``name``; construction is
    deferred until the backend is first requested."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Registered backend names (registration order)."""
    return list(_FACTORIES)


def get_backend(name: Optional[Union[str, ComputeBackend]] = None
                ) -> ComputeBackend:
    """Resolve a backend: an instance passes through, a name looks up
    the registry, and ``None`` consults ``$REPRO_BACKEND`` (default
    ``native``). ``native`` resolves to the ``python`` backend when the
    compiled kernels cannot load. Instances are cached — backends are
    stateless apart from their internal table caches."""
    if isinstance(name, ComputeBackend):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    if name == "native":
        from repro.backend.native import native_available

        if not native_available():
            name = "python"
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown compute backend {name!r}; "
                f"available: {', '.join(available_backends())}"
            )
        backend = _INSTANCES[name] = factory()
    return backend


register_backend("native", NativeBackend)
register_backend("python", PythonBackend)
