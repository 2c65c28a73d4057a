"""Run environment: the checkout's sources, the native kernel floor,
the benchmark's private cache directory and run provenance.

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout: compiled kernels, the key-generation cache and result
records.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class FloorError(RuntimeError):
    """The checkout cannot run the benchmark as specified."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else,
    and point the native kernel cache at the benchmark's directory.
    Must run before anything imports ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FloorError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(STATE_DIR, "native")
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise FloorError(f"repro imported from {where}, not {SRC}")


def resolve_floor() -> str:
    """The native kernel floor: a registered backend named ``native``,
    else ``numpy`` with the compiled kernels loadable.  Loading them
    compiles into (or reads from) the benchmark's kernel cache, so the
    cache is warm before anything is timed."""
    from repro.backend import available_backends

    names = available_backends()
    if "native" in names:
        return "native"
    if "numpy" in names:
        from repro.backend.native import native_available

        if native_available():
            return "numpy"
    raise FloorError(
        f"no native kernel floor: backends {names}, native kernels "
        "unavailable")


def warm_kernels(floor: str) -> list:
    """Make ``floor`` the process default (forked service workers
    inherit it), load the per-modulus kernel constants for every field
    the workloads touch, and return (and clear) the loader's events."""
    from repro.backend.native import drain_kernel_events, get_native_field
    from repro.curves.params import CURVES

    os.environ["REPRO_BACKEND"] = floor
    for curve in CURVES.values():
        for field in (curve.fr, curve.fq):
            get_native_field(field.modulus)
        _ = curve.g2  # installs the lazily derived MNT4753 G2 generator
    return drain_kernel_events()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (a service worker, once the service is closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0      # ru_maxrss is in KiB on Linux


def _git_sha() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None     # an exported checkout: src_digest identifies it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """Content hash of the checkout's ``src`` tree — the commit's
    identity when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(floor: str, seed: int, workload: str,
               params: Dict[str, object]) -> Dict[str, object]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "floor": floor,
        "seed": seed,
        "workload": workload,
        "params": params,
    }
