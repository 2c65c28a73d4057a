"""Cost-model-guided kernel autotuner with certifier-gated profiles.

GZKP tunes its MSM over a small config space — window size k and
checkpoint interval M (Algorithm 1 / Figure 9) — once per application,
then reuses the choice for every proof. This module is that profiling
step for the reproduction, per (curve, size, device): a joint search
over window sizes k = 6..24 and every checkpoint interval M whose table
fits the preprocessing memory budget, priced by the engine's own cost
plan (:meth:`~repro.msm.gzkp.GzkpMsm._plan_with_cfg` under
``device.time_of``). The stock engine searches k with the *smallest*
fitting M; the tuner also explores sparser checkpoint rows, trading
modeled recovery doublings against table footprint.

A curve profile carries the machine-checked certificates of the
compiled kernels the tuned pipeline runs on
(:func:`repro.analysis.bounds.certify_native_mont` and
:func:`~repro.analysis.bounds.certify_native_jacobian`); a modulus
those kernels cannot certify is not tunable.

Profiles persist as JSON under ``<kernel cache base>/autotune/`` with
the same pid-unique-temp + ``os.replace`` atomic publish as the kernel
cache, so the forked service and repeat benchmark runs never re-search.
A loaded profile is never trusted blindly: its certificates are
re-derived and its MSM config revalidated against the live engine; any
mismatch (tampered file, stale layout or schema version) falls back to
a fresh search. Tuning never changes results — every knob is
bit-identity-preserving by construction — only throughput.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

__all__ = ["KernelAutotuner", "TunedProfile", "TuningError"]


class TuningError(ReproError):
    """A tuned parameter failed its safety gate."""


#: window search range, matching the stock profiling sweep (§4.1)
WINDOW_RANGE = range(6, 25)
#: schema tag of persisted profiles; bump on layout change (version 1
#: profiles also carried a carry-clean cadence and are searched again)
PROFILE_VERSION = 2


@dataclass(frozen=True)
class TunedProfile:
    """One curve/size/device tuning result for both MSM groups."""

    curve: str
    n: int
    device: str
    g1_window: int
    g1_interval: int
    g2_window: int
    g2_interval: int
    modeled_g1_seconds: float
    modeled_g2_seconds: float
    #: machine-checked certificates of the scalar field's compiled
    #: kernels, keyed by family (``native-mont``, ``native-jacobian``)
    certificate: Dict
    #: "search" when freshly tuned, "disk" when a persisted profile
    #: passed re-certification and revalidation
    source: str = "search"


def _native_point_muls(engine):
    """Per-op mul costs on the native Jacobian floor for this engine's
    group, or None when the engine's compute backend would not dispatch
    to the compiled kernels (scalar backend, ``REPRO_NATIVE=0``,
    over-wide modulus, unsupported coordinate field)."""
    from repro.backend import get_backend
    from repro.backend.native_curve import native_point_op_muls

    try:
        backend = get_backend(engine.backend)
    except Exception:
        return None
    if getattr(backend, "name", "") != "native":
        return None
    return native_point_op_muls(engine.group)


def _profiles_dir() -> str:
    from repro.backend.native import cache_base_dir

    return os.path.join(cache_base_dir(), "autotune")


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)  # atomic vs concurrent tuners
    except OSError:  # read-only cache: tuning stays in-memory
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text)


class KernelAutotuner:
    """Per-(curve, size, device) kernel tuning with persisted profiles.

    One instance is shared by both MSM engines of a prover (see
    :func:`repro.snark.gzkp_prover.make_gzkp_prover`); results are
    memoized in-process and mirrored to disk. ``persist=False`` keeps
    everything in-memory (hermetic tests)."""

    def __init__(self, persist: bool = True):
        self.persist = persist
        self._msm_memo: Dict[Tuple, object] = {}
        self._cert_memo: Dict[int, Dict] = {}

    # -- MSM (k, M) -------------------------------------------------------------

    def _msm_path(self, engine, n: int) -> str:
        name = (f"msm-{_slug(engine.group.name)}-{engine.scalar_bits}"
                f"-{_slug(engine.device.name)}-{n}.json")
        return os.path.join(_profiles_dir(), name)

    def _budget(self, engine) -> int:
        from repro.gpusim import cost

        return int(cost.GZKP_PREPROCESS_MEM_FRACTION
                   * engine.device.global_mem_bytes)

    def _search_msm(self, engine, n: int):
        """Joint (k, M) sweep under the preprocessing memory budget,
        priced by the engine's full cost plan. When the engine's group
        runs on the native Jacobian kernels the per-op mul costs are
        replaced with that floor (formula muls + fused encode/decode),
        so the knee lands where the shipped kernels put it; any (k, M)
        is bit-identity-preserving, so this only shifts throughput."""
        from repro.msm.windows import num_windows

        budget = self._budget(engine)
        point_muls = _native_point_muls(engine)
        best = None
        best_seconds = float("inf")
        for k in WINDOW_RANGE:
            w = num_windows(engine.scalar_bits, k)
            m_floor = engine._interval_for(n, k)
            # Denser checkpoint rows than the floor violate the memory
            # budget; sparser ones (larger M) always fit — cap the scan
            # at enough candidates to see the recovery-cost knee.
            for m in range(m_floor, w + 1):
                cand = engine._make_config(n, k, m)
                if m > m_floor and cand.preprocess_bytes > budget:
                    continue  # pragma: no cover - sparser is smaller
                seconds = engine.device.time_of(
                    engine._plan_with_cfg(n, cand, None,
                                          point_muls=point_muls)
                )
                if seconds < best_seconds:
                    best, best_seconds = cand, seconds
                if m - m_floor >= 8:
                    break  # modeled time is convex in M; knee passed
        return best, best_seconds

    def _validate_msm(self, engine, n: int, payload: dict):
        """Rebuild a persisted (k, M) against the live engine; returns
        the config or None when the file is stale or out of range."""
        from repro.msm.windows import num_windows

        if not isinstance(payload, dict) or \
                payload.get("version") != PROFILE_VERSION:
            return None
        k = payload.get("window")
        m = payload.get("interval")
        if not isinstance(k, int) or not isinstance(m, int):
            return None
        if k not in WINDOW_RANGE:
            return None
        w = num_windows(engine.scalar_bits, k)
        if not 1 <= m <= w:
            return None
        cand = engine._make_config(n, k, m)
        if cand.preprocess_bytes > self._budget(engine) and \
                m > engine._interval_for(n, k):
            return None
        return cand

    def msm_config(self, engine, n: int):
        """The tuned :class:`~repro.msm.gzkp.GzkpMsmConfig` for one
        engine and scale — disk profile when valid, fresh joint search
        otherwise."""
        key = (engine.group.name, engine.scalar_bits, engine.device.name,
               engine.fq_mul_factor, n)
        cfg = self._msm_memo.get(key)
        if cfg is not None:
            return cfg
        path = self._msm_path(engine, n)
        seconds = None
        if self.persist:
            payload = _read_json(path)
            if payload is not None:
                cfg = self._validate_msm(engine, n, payload)
                if cfg is not None:
                    seconds = payload.get("modeled_seconds")
        if cfg is None:
            cfg, seconds = self._search_msm(engine, n)
            if self.persist:
                _atomic_write_json(path, {
                    "version": PROFILE_VERSION,
                    "group": engine.group.name,
                    "scalar_bits": engine.scalar_bits,
                    "device": engine.device.name,
                    "n": n,
                    "window": cfg.window,
                    "interval": cfg.interval,
                    "modeled_seconds": seconds,
                })
        self._msm_memo[key] = cfg
        self._last_modeled_seconds = seconds
        return cfg

    # -- kernel certificates ----------------------------------------------------

    def certify(self, modulus: int, name: str = "") -> Dict:
        """The compiled kernels' certificates for one modulus (as
        dicts keyed by family); raises :class:`TuningError` when either
        family rejects it. The certificates are re-derived, never read
        back from a profile on disk."""
        cached = self._cert_memo.get(modulus)
        if cached is not None:
            return cached
        from repro.analysis.bounds import (
            certify_native_jacobian,
            certify_native_mont,
        )

        label = name or f"mod-{modulus.bit_length()}b"
        certs = {}
        for cert in (certify_native_mont(label, modulus),
                     certify_native_jacobian(label, modulus)):
            if not cert.ok:
                raise TuningError(
                    f"certifier rejected the {cert.family} kernels for a "
                    f"{modulus.bit_length()}-bit modulus: "
                    f"{[v.name for v in cert.violations()]}"
                )
            certs[cert.family] = cert.to_dict()
        self._cert_memo[modulus] = certs
        return certs

    # -- curve-level profiles ---------------------------------------------------

    def _profile_path(self, curve_name: str, n: int,
                      device_name: str) -> str:
        return os.path.join(
            _profiles_dir(),
            f"profile-{_slug(curve_name)}-{n}-{_slug(device_name)}.json",
        )

    def profile(self, curve, n: int, device=None) -> TunedProfile:
        """Tune one (curve, size): both MSM groups' (k, M), persisted
        as a single JSON profile with the scalar field's kernel
        certificates. A valid persisted profile short-circuits the
        search but is still re-certified and revalidated on load."""
        from repro.gpusim import V100
        from repro.msm.gzkp import GzkpMsm

        device = device or V100
        path = self._profile_path(curve.name, n, device.name)
        g1 = GzkpMsm(curve.g1, curve.fr.bits, device)
        g2 = GzkpMsm(curve.g2, curve.fr.bits, device, fq_mul_factor=3.0)
        cert = self.certify(curve.fr.modulus, f"{curve.name}.Fr")
        source = "search"
        if self.persist:
            payload = _read_json(path)
            if payload is not None and \
                    payload.get("version") == PROFILE_VERSION:
                c1 = self._validate_msm(
                    g1, n, {"version": PROFILE_VERSION,
                            "window": payload.get("g1_window"),
                            "interval": payload.get("g1_interval")})
                c2 = self._validate_msm(
                    g2, n, {"version": PROFILE_VERSION,
                            "window": payload.get("g2_window"),
                            "interval": payload.get("g2_interval")})
                if c1 is not None and c2 is not None:
                    self._msm_memo[(g1.group.name, g1.scalar_bits,
                                    device.name, g1.fq_mul_factor, n)] = c1
                    self._msm_memo[(g2.group.name, g2.scalar_bits,
                                    device.name, g2.fq_mul_factor, n)] = c2
                    return TunedProfile(
                        curve=curve.name, n=n, device=device.name,
                        g1_window=c1.window, g1_interval=c1.interval,
                        g2_window=c2.window, g2_interval=c2.interval,
                        modeled_g1_seconds=payload.get(
                            "modeled_g1_seconds", math.nan),
                        modeled_g2_seconds=payload.get(
                            "modeled_g2_seconds", math.nan),
                        certificate=cert, source="disk",
                    )
        c1 = self.msm_config(g1, n)
        s1 = self._last_modeled_seconds
        c2 = self.msm_config(g2, n)
        s2 = self._last_modeled_seconds
        prof = TunedProfile(
            curve=curve.name, n=n, device=device.name,
            g1_window=c1.window, g1_interval=c1.interval,
            g2_window=c2.window, g2_interval=c2.interval,
            modeled_g1_seconds=s1 if s1 is not None else math.nan,
            modeled_g2_seconds=s2 if s2 is not None else math.nan,
            certificate=cert, source=source,
        )
        if self.persist:
            _atomic_write_json(path, {
                "version": PROFILE_VERSION, **asdict(prof),
            })
        return prof
