"""Per-layer instrumentation, applied from the benchmark's side only.

Nothing here edits the program: the prover, MSM and NTT layers already
report spans and op counts through ``repro.service.telemetry``; the
native kernel layer and the pairing engines are timed by wrapping their
public methods for the duration of a traced section and restoring them
afterwards.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Dict, Iterable, List

from core import Metric, median


class NativeTimer:
    """Self time of ``repro.backend.native.NativeField``'s public
    methods, split into int <-> word-row conversion and kernel work.
    Self time excludes time spent in nested wrapped calls (``encode``
    calls ``words_from_ints``, for instance), so the two totals add up
    to the time spent in the layer."""

    CONVERT = frozenset({"words_from_ints", "ints_from_words", "encode",
                         "decode"})

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: Dict[str, object] = {}
        self.totals = self._zero()

    @staticmethod
    def _zero() -> Dict[str, float]:
        return {"convert_s": 0.0, "kernel_s": 0.0, "calls": 0}

    def reset(self) -> Dict[str, float]:
        """Return the totals since the last reset and zero them."""
        with self._lock:
            out, self.totals = self.totals, self._zero()
        return out

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, convert: bool):
        bucket = "convert_s" if convert else "kernel_s"

        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.totals[bucket] += own
                    self.totals["calls"] += 1

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        from repro.backend.native import NativeField

        if self._saved:
            return
        for name, raw in list(vars(NativeField).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__,
                                                  name in self.CONVERT))
            elif callable(raw):
                wrapped = self._wrap(raw, name in self.CONVERT)
            else:
                continue
            self._saved[name] = raw
            setattr(NativeField, name, wrapped)

    def uninstall(self) -> None:
        from repro.backend.native import NativeField

        for name, raw in self._saved.items():
            setattr(NativeField, name, raw)
        self._saved.clear()


class PairingTimer:
    """Time spent in the pairing engines' Miller loops and final
    exponentiations, by wrapping ``miller_loop``, ``miller_prepared``
    and ``final_exponentiate`` on the engine instances.  Only the
    outermost call of each kind is timed."""

    METHODS = {"miller_loop": "miller_s", "miller_prepared": "miller_s",
               "final_exponentiate": "final_exp_s"}

    def __init__(self) -> None:
        self._engines: List[object] = []
        self._local = threading.local()
        self.totals = {"miller_s": 0.0, "final_exp_s": 0.0}

    def _wrap(self, fn, bucket: str):
        def timed(*args, **kwargs):
            depth = getattr(self._local, bucket, 0)
            setattr(self._local, bucket, depth + 1)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self._local, bucket, depth)
                if depth == 0:
                    self.totals[bucket] += time.perf_counter() - t0
        return timed

    def install(self, engines: Iterable[object]) -> None:
        for engine in engines:
            for method, bucket in self.METHODS.items():
                fn = getattr(engine, method, None)
                if fn is not None:
                    setattr(engine, method, self._wrap(fn, bucket))
            self._engines.append(engine)

    def uninstall(self) -> None:
        for engine in self._engines:
            for method in self.METHODS:
                engine.__dict__.pop(method, None)
        self._engines.clear()


# -- reading the program's span trees --------------------------------------------


def _walk(span: dict) -> Iterable[dict]:
    yield span
    for child in span["children"]:
        yield from _walk(child)


def _named(spans: Iterable[dict], name: str) -> List[dict]:
    return [s for root in spans for s in _walk(root) if s["name"] == name]


def prover_layers(spans: List[dict]) -> Dict[str, float]:
    """Per-proof layer numbers from one proof's phase spans (the roots
    of a ``Groth16Prover.prove`` telemetry, or a service job span's
    children): POLY / MSM / assemble time, the MSM kernels' split and
    op counts, NTT time and multiplications, and any preprocessing."""
    top = {s["name"]: s for s in spans}
    msm = top.get("MSM", {"seconds": 0.0, "ops": {}, "children": []})
    poly = top.get("POLY", {"seconds": 0.0, "children": []})
    ntts = [c for c in poly["children"] if "NTT" in c["name"]]
    g2 = [c for c in msm["children"] if c["name"] == "MSM-B-G2"]
    return {
        "poly_s": poly["seconds"],
        "msm_s": msm["seconds"],
        "assemble_s": top.get("assemble", {"seconds": 0.0})["seconds"],
        "point_merging_s": sum(s["seconds"] for s in
                               _named([msm], "point-merging")),
        "bucket_reduction_s": sum(s["seconds"] for s in
                                  _named([msm], "bucket-reduction")),
        "g2_s": sum(s["seconds"] for s in g2),
        "padd": msm["ops"].get("padd", 0),
        "pdbl": msm["ops"].get("pdbl", 0),
        "ntt_s": sum(c["seconds"] for c in ntts),
        "ntt_fr_mul": sum(c["ops"].get("fr_mul", 0) for c in ntts),
        "preprocess_s": sum(s["seconds"] for s in
                            _named(spans, "preprocess")),
    }


def layer_summary(suffix: str, samples: List[dict]) -> List[Metric]:
    """Per-proof medians (times) and means (counts) of prover, MSM and
    NTT layer numbers for one curve."""
    n = len(samples)

    def med_ms(key: str) -> float:
        return 1e3 * median([s[key] for s in samples]) if samples else 0.0

    def mean(key: str) -> float:
        return statistics.mean(s[key] for s in samples) if samples else 0.0

    return [
        Metric(f"prover.poly_ms.{suffix}", med_ms("poly_s"), "ms", n=n),
        Metric(f"prover.msm_ms.{suffix}", med_ms("msm_s"), "ms", n=n),
        Metric(f"prover.assemble_ms.{suffix}", med_ms("assemble_s"), "ms",
               n=n),
        Metric(f"msm.point_merging_ms.{suffix}", med_ms("point_merging_s"),
               "ms", n=n),
        Metric(f"msm.bucket_reduction_ms.{suffix}",
               med_ms("bucket_reduction_s"), "ms", n=n),
        Metric(f"msm.g2_ms.{suffix}", med_ms("g2_s"), "ms", n=n),
        Metric(f"msm.padd.{suffix}", mean("padd"), "count", n=n),
        Metric(f"msm.pdbl.{suffix}", mean("pdbl"), "count", n=n),
        Metric(f"ntt.ms.{suffix}", med_ms("ntt_s"), "ms", n=n),
        Metric(f"ntt.fr_mul.{suffix}", mean("ntt_fr_mul"), "count", n=n),
    ]
