"""Disk cache for Groth16 key generation.

Key generation (``repro.snark.keys.setup``) is input generation for
this benchmark: its cost is excluded from every metric, and at the
sizes the workloads use it would cost more per run than the measured
work (about 45 s for the three ``prove-sha256`` keys).  Every caller in
the benchmark seeds it from a fixed string, so the result is a pure
function of (source, curve, constraint system, rng state); this module
memoizes that function on disk.

:func:`install` swaps ``repro.snark.keys.setup`` for the caching
version.  Callers that import it lazily — the service's
``SetupBundle`` and ``setup_for`` — pick it up, so the service sees the
same keys it would derive itself.  A call without an explicit ``rng``
is not deterministic and always runs the real key generation.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Callable

#: modules whose source determines the keys a given seed produces
_SOURCE_MODULES = (
    "repro.snark.keys", "repro.snark.r1cs", "repro.curves.params",
    "repro.curves.weierstrass", "repro.curves.fieldops",
    "repro.ff.primefield", "repro.ff.extension",
)


def _source_digest() -> str:
    import importlib

    h = hashlib.sha256()
    for name in _SOURCE_MODULES:
        path = importlib.import_module(name).__file__
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _r1cs_fingerprint(r1cs) -> bytes:
    parts = [f"{r1cs.field.modulus}:{r1cs.n_public}:{r1cs.n_variables}"]
    for con in r1cs.constraints:
        for lc in (con.a, con.b, con.c):
            parts.append(",".join(f"{k}={v}" for k, v in sorted(lc.items())))
    return "|".join(parts).encode()


def _plain(point):
    """An affine point as nested tuples of ints (G2 coordinates are
    extension-field elements, stored by coefficient)."""
    if point is None:
        return None
    x, y = point
    if hasattr(x, "coeffs"):
        return ("ext", tuple(x.coeffs), tuple(y.coeffs))
    return ("int", x, y)


def _point(plain, group):
    if plain is None:
        return None
    kind, x, y = plain
    if kind == "ext":
        field = group.coord_field
        return (field.element(list(x)), field.element(list(y)))
    return (x, y)


def _dump(keys) -> dict:
    import dataclasses

    out = {}
    for attr in ("proving_key", "verifying_key", "trapdoor"):
        obj = getattr(keys, attr)
        fields = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, list):
                fields[f.name] = [_plain(p) for p in value]
            elif isinstance(value, int):
                fields[f.name] = value
            else:
                fields[f.name] = _plain(value)
        out[attr] = fields
    return out


#: fields of ProvingKey / VerifyingKey that hold G2 points
_G2_FIELDS = {"beta_g2", "delta_g2", "gamma_g2", "b_g2_query"}


def _load(blob: dict, curve):
    from repro.snark.keys import (Groth16Setup, ProvingKey, Trapdoor,
                                  VerifyingKey)

    g1, g2 = curve.g1, curve.g2

    def restore(fields: dict) -> dict:
        out = {}
        for name, value in fields.items():
            group = g2 if name in _G2_FIELDS else g1
            if isinstance(value, list):
                out[name] = [_point(p, group) for p in value]
            elif isinstance(value, int):
                out[name] = value
            else:
                out[name] = _point(value, group)
        return out

    return Groth16Setup(
        proving_key=ProvingKey(**restore(blob["proving_key"])),
        verifying_key=VerifyingKey(**restore(blob["verifying_key"])),
        trapdoor=Trapdoor(**blob["trapdoor"]),
        curve=curve,
    )


def caching_setup(real_setup: Callable, cache_dir: str) -> Callable:
    """Wrap ``real_setup`` so seeded calls are served from ``cache_dir``."""
    digest = _source_digest()

    def setup(r1cs, curve, rng=None):
        if rng is None:
            return real_setup(r1cs, curve)
        h = hashlib.sha256(digest.encode())
        h.update(curve.name.encode())
        h.update(_r1cs_fingerprint(r1cs))
        h.update(repr(rng.getstate()).encode())
        path = os.path.join(cache_dir, f"keys-{h.hexdigest()[:32]}.pkl")
        try:
            with open(path, "rb") as fh:
                # only this module writes these files
                blob = pickle.load(fh)
        except (OSError, EOFError, pickle.UnpicklingError):
            blob = None
        if blob is not None:
            rng.setstate(blob["rng_after"])
            return _load(blob["keys"], curve)
        keys = real_setup(r1cs, curve, rng=rng)
        blob = {"keys": _dump(keys), "rng_after": rng.getstate()}
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return keys

    setup.__wrapped__ = real_setup
    return setup


def install(cache_dir: str) -> None:
    """Route ``repro.snark.keys.setup`` through the disk cache."""
    import repro.snark.keys as keys_mod

    if not hasattr(keys_mod.setup, "__wrapped__"):
        keys_mod.setup = caching_setup(keys_mod.setup, cache_dir)
