"""Shared vocabulary of the benchmark: metric names, summary statistics
and the result line.

Every workload reports the same end-to-end metric set (the names in
``BENCHMARK.json``), so each (workload, metric) pair can be compared
across commits.  Timings are summarized as a median and a *tail*: the
highest percentile that still has at least :data:`TAIL_BEYOND` samples
beyond it, printed with that percentile and the sample count.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: curve name -> metric suffix
CURVES = {"ALT-BN128": "bn128", "BLS12-381": "bls12_381",
          "MNT4753": "mnt4753"}

WORKLOADS = ("prove-sha256", "serve-steady", "serve-burst")

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10

#: a serve job meets the service-level objective when it is verified
#: within this many seconds of its due time
SLO_SECONDS = 3.0

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


@dataclass
class Metric:
    """One reported number, with what it takes to read it."""

    name: str
    value: Optional[float]
    unit: str
    n: Optional[int] = None          # samples behind a summary
    percentile: Optional[float] = None

    def render(self) -> str:
        if self.value is None:
            text = "n/a"
        elif self.unit == "count" and float(self.value).is_integer():
            text = f"{int(self.value)}"
        else:
            text = f"{self.value:.6g}"
        extra = []
        if self.percentile is not None:
            extra.append(f"p{self.percentile:g}")
        if self.n is not None:
            extra.append(f"n={self.n}")
        suffix = f" ({', '.join(extra)})" if extra else ""
        return f"{self.name:<34} {text:>12} {self.unit}{suffix}"


# -- summary statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail(values: Sequence[float]) -> Optional[tuple]:
    """(percentile, value): the highest nearest-rank percentile with at
    least :data:`TAIL_BEYOND` samples strictly beyond its rank, or None
    when that percentile would not lie above the median (fewer than
    ``2 * TAIL_BEYOND`` samples)."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND                  # 1-based nearest rank
    pct = math.floor(1000.0 * rank / n) / 10.0
    return pct, sorted(values)[rank - 1]


def timing(prefix: str, samples_s: Sequence[float]) -> List[Metric]:
    """``<prefix>.p50`` and ``<prefix>.tail`` in ms from seconds."""
    ms = [1e3 * s for s in samples_s]
    t = tail(ms)
    return [
        Metric(f"{prefix}.p50", median(ms), "ms", n=len(ms), percentile=50),
        Metric(f"{prefix}.tail", t[1] if t else None, "ms", n=len(ms),
               percentile=t[0] if t else None),
    ]


def error_rate(attempted: int, failed: int) -> float:
    """Failed, refused or wrong jobs over jobs attempted (each job
    counted once, whatever went wrong with it)."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted job")
    return failed / attempted


#: per-layer families a workload does not exercise; they are reported
#: as 0 so every run prints the whole catalog
ABSENT_LAYERS = {
    "prove-sha256": ("pairing.", "service.", "gen."),
    "serve-steady": ("native.kernel_ms.", "native.convert_ms.",
                     "native.calls."),
    "serve-burst": ("native.kernel_ms.", "native.convert_ms.",
                    "native.calls."),
}


#: what the traced run should show at the seed commit: each workload
#: stresses the layer it was chosen for (printed, not enforced)
EXPECTATIONS = {
    "prove-sha256": [
        ("prover.msm_ms >= 3/4 of POLY + MSM + assemble on bn128, bls12_381",
         lambda m: all(
             m[f"prover.msm_ms.{c}"] >= 0.75 * sum(
                 m[f"prover.{p}_ms.{c}"] for p in ("poly", "msm", "assemble"))
             for c in ("bn128", "bls12_381"))),
    ],
    "serve-steady": [
        ("service.verify_share >= 2/3 (verify time over worker job time)",
         lambda m: m["service.verify_share"] >= 2 / 3),
        ("service.cache_hit_ratio == 1",
         lambda m: m["service.cache_hit_ratio"] == 1.0),
    ],
    "serve-burst": [
        ("service.cache_hit_ratio < 1/2",
         lambda m: m["service.cache_hit_ratio"] < 0.5),
        ("service.context_ms > prover.msm_ms on every curve",
         lambda m: all(m["service.context_ms"] > m[f"prover.msm_ms.{c}"]
                       for c in CURVES.values())),
    ],
}


def expectations(workload: str, metrics: Iterable[Metric]) -> List[tuple]:
    """[(claim, held)] for a traced run's metrics."""
    values = {m.name: m.value for m in metrics}
    return [(text, bool(check(values)))
            for text, check in EXPECTATIONS[workload]]


# -- the catalog in BENCHMARK.json -----------------------------------------------


def declared_metrics(path: str = BENCHMARK_JSON) -> Dict[str, Dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    with open(path) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(metrics: Iterable[Metric], trace: bool, correct: bool,
                attempted: int, failed: int,
                declared: Optional[dict] = None) -> str:
    """The final JSON line: exactly the declared metrics of the run's
    kind.  A declared metric the run did not produce, or one it could
    not compute, is an error — the catalog and the code must agree."""
    declared = declared or declared_metrics()
    wanted = declared["per_layer" if trace else "end_to_end"]
    by_name = {m.name: m for m in metrics}
    missing = sorted(n for n in wanted
                     if n not in by_name or by_name[n].value is None)
    if missing:
        raise KeyError(f"declared metrics not produced: {missing}")
    for name, unit in wanted.items():
        if by_name[name].unit != unit:
            raise ValueError(f"{name}: unit {by_name[name].unit!r} "
                             f"differs from declared {unit!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(by_name[n].value), "unit": u}
                    for n, u in wanted.items()},
    })


def absent_layers(produced: Iterable[str], workload: str,
                  declared: Optional[dict] = None) -> List[Metric]:
    """Zero-valued entries for the declared per-layer metrics of the
    families ``workload`` does not exercise (see :data:`ABSENT_LAYERS`)."""
    declared = declared or declared_metrics()
    produced = set(produced)
    return [Metric(name, 0.0, unit)
            for name, unit in declared["per_layer"].items()
            if name not in produced
            and name.startswith(ABSENT_LAYERS[workload])]
