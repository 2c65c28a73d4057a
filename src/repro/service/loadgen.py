"""Load generation for the sharded proving service.

GZKP's service-shaped evaluation (§6, Table 4) is a *sustained stream*
of proofs, not a pre-materialized batch — so measuring the pipeline
honestly needs an arrival process, not ``prove_batch``.  This module
provides the two canonical shapes:

* **Poisson** arrivals — exponential inter-arrival gaps at a target
  rate, the steady-state open-loop model;
* **burst** arrivals — groups of simultaneous submissions separated by
  idle gaps, the worst case for the ingest queues and the shape that
  exercises backpressure.

Everything is seeded and deterministic: the same ``seed`` yields the
same arrival offsets and the same synthesized job stream, so a load
run is reproducible end to end (and testable without statistics).

The generator submits with ``wait=False`` — a full shard queue raises
:class:`~repro.errors.ServiceOverloadedError` and the generator honors
the ``retry_after`` hint (bounded retries). Each job's latency runs from
its due time on the schedule, not from when ``submit()`` was reached,
so it includes the backpressure delay a real client would see and the
wait that a slow ``submit()`` imposes on the jobs due behind it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError, ServiceOverloadedError

__all__ = ["poisson_arrivals", "burst_arrivals", "synthesize_jobs",
           "percentile", "LoadReport", "LoadGenerator"]


def poisson_arrivals(rate_per_s: float, n: int,
                     seed: int = 0) -> List[float]:
    """``n`` cumulative arrival offsets (seconds from start) of a
    Poisson process at ``rate_per_s`` — exponential gaps, seeded."""
    if rate_per_s <= 0:
        raise ServiceError("rate_per_s must be > 0")
    rng = random.Random(f"loadgen-poisson:{seed}")
    offsets, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(rate_per_s)
        offsets.append(t)
    return offsets


def burst_arrivals(n: int, burst_size: int,
                   gap_s: float) -> List[float]:
    """``n`` offsets arriving in bursts of ``burst_size`` simultaneous
    jobs separated by ``gap_s`` of silence."""
    if burst_size < 1:
        raise ServiceError("burst_size must be >= 1")
    return [(i // burst_size) * gap_s for i in range(n)]


def synthesize_jobs(keys: Sequence[Tuple[str, str]], n: int,
                    seed: int = 0, backend: Optional[str] = None,
                    witness_bits: int = 16) -> list:
    """``n`` deterministic jobs drawn uniformly over a (curve, circuit)
    key population — single-witness circuits only (the built-in and
    mulchain families).  Uniform key draws are what gives the bounded
    per-worker handle cache its steady-state hit rate."""
    from repro.service.service import ProofJob

    if not keys:
        raise ServiceError("synthesize_jobs needs a non-empty key set")
    rng = random.Random(f"loadgen-jobs:{seed}")
    jobs = []
    for i in range(n):
        curve, circuit = keys[rng.randrange(len(keys))]
        witness = (rng.randrange(1, 1 << witness_bits),)
        jobs.append(ProofJob(curve, circuit, witness, backend,
                             f"load-{seed}-{i}"))
    return jobs


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))   # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class LoadReport:
    """Outcome of one load run (all latencies in seconds)."""

    arrival_mode: str
    jobs: int
    completed: int = 0
    ok: int = 0
    errors: int = 0
    rejections: int = 0          # overload rejections absorbed by retry
    dropped: int = 0             # jobs whose submit retries ran out
    elapsed_seconds: float = 0.0
    jobs_per_second: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    per_shard: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "arrival_mode": self.arrival_mode,
            "jobs": self.jobs,
            "completed": self.completed,
            "ok": self.ok,
            "errors": self.errors,
            "rejections": self.rejections,
            "dropped": self.dropped,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "jobs_per_second": round(self.jobs_per_second, 4),
            "latency_seconds": {
                "p50": round(self.latency_p50, 4),
                "p95": round(self.latency_p95, 4),
                "p99": round(self.latency_p99, 4),
                "mean": round(self.latency_mean, 4),
            },
            "per_shard": self.per_shard,
        }


class LoadGenerator:
    """Open-loop driver: submits a job stream against a
    :class:`~repro.service.service.ProvingService` on an arrival
    schedule and reports throughput + latency percentiles."""

    def __init__(self, service, *, submit_retries: int = 100,
                 max_retry_sleep: float = 2.0):
        self.service = service
        self.submit_retries = submit_retries
        self.max_retry_sleep = max_retry_sleep

    def run(self, jobs: Sequence, offsets: Sequence[float],
            arrival_mode: str = "poisson") -> LoadReport:
        if len(jobs) != len(offsets):
            raise ServiceError("jobs and offsets differ in length")
        report = LoadReport(arrival_mode=arrival_mode, jobs=len(jobs))
        latencies: List[float] = []
        lock = threading.Lock()
        pending = []
        t0 = time.monotonic()

        def _on_done(due_at: float):
            def callback(future):
                result = future.result()
                with lock:
                    latencies.append(time.monotonic() - due_at)
                    report.completed += 1
                    if result.ok:
                        report.ok += 1
                    else:
                        report.errors += 1
            return callback

        for job, offset in zip(jobs, offsets):
            due_at = t0 + offset
            delay = due_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            future = None
            for _ in range(self.submit_retries + 1):
                try:
                    future = self.service.submit(job, wait=False)
                    break
                except ServiceOverloadedError as exc:
                    report.rejections += 1
                    time.sleep(min(exc.retry_after, self.max_retry_sleep))
            if future is None:
                report.dropped += 1
                continue
            future.add_done_callback(_on_done(due_at))
            pending.append(future)

        for future in pending:
            future.result()
        elapsed = time.monotonic() - t0
        report.elapsed_seconds = elapsed
        if elapsed > 0:
            report.jobs_per_second = report.ok / elapsed
        if latencies:
            report.latency_p50 = percentile(latencies, 50)
            report.latency_p95 = percentile(latencies, 95)
            report.latency_p99 = percentile(latencies, 99)
            report.latency_mean = sum(latencies) / len(latencies)
        report.per_shard = self.service.shard_stats()
        return report
