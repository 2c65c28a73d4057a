"""``serve-steady`` and ``serve-burst``: open-loop load on
``repro.service.ProvingService`` from one process, two workers.

* ``serve-steady`` — Poisson arrivals at 1.2 jobs/s (about half of what
  the service drains), ``verify="inline"``, nine warm keys, every
  handle lookup a cache hit, ``submit(wait=False)``.  Per-proof pairing
  verification is most of each job: this shows the verify path and the
  service's overhead under moderate load.
* ``serve-burst`` — every job due at t=0, ``submit(wait=True)``, more
  jobs than the two 16-deep shard queues hold, ``verify="batched"``,
  twelve warm keys against a two-handle worker cache: most lookups
  miss (MSM preprocessing on the critical path), verification runs in
  windows, and the queues fill.

Each job's latency runs from its due time to its verified result
(:mod:`openloop`).
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from core import (CURVES, SLO_SECONDS, Metric, absent_layers, error_rate,
                  median, timing)
from floor import peak_rss_mb
from openloop import generator_lateness, run_open_loop
from tracing import PairingTimer, layer_summary, prover_layers


@dataclass(frozen=True)
class ServeConfig:
    circuits: Tuple[str, ...]
    verify: str
    worker_cache: object        # int or None
    wait: bool
    rate: float                 # jobs/s; 0 = every job due at t=0
    #: jobs per second of --seconds (the job count is a whole number of
    #: rounds over the keys, so every key gets the same share)
    jobs_per_second: float
    min_rounds: int = 2
    setups: int = 2             # set-ups per run; setup_s is their median


#: service workers (one per core of the 2-core reference host)
WORKERS = 2


CONFIGS = {
    "serve-steady": ServeConfig(
        circuits=("mulchain16", "mulchain64", "cubic"), verify="inline",
        worker_cache=None, wait=False, rate=1.2, jobs_per_second=1.2,
        min_rounds=3),
    "serve-burst": ServeConfig(
        circuits=("mulchain8", "mulchain16", "mulchain32", "mulchain64"),
        verify="batched", worker_cache=2, wait=True, rate=0.0,
        jobs_per_second=1.8, min_rounds=3),
}

TINY = {
    "serve-steady": ServeConfig(
        circuits=("cubic",), verify="inline", worker_cache=None, wait=False,
        rate=8.0, jobs_per_second=8.0, min_rounds=7, setups=1),
    "serve-burst": ServeConfig(
        circuits=("cubic", "mulchain8"), verify="batched", worker_cache=1,
        wait=True, rate=0.0, jobs_per_second=8.0, min_rounds=4, setups=1),
}

#: worker phases that make up ``Groth16Prover.prove``
PROVE_PHASES = ("setup", "POLY", "MSM", "assemble")


def make_jobs(workload: str, cfg: ServeConfig, seconds: float,
              rng: random.Random, floor: str) -> Tuple[list, List[float]]:
    """The workload's traffic and its seeded payloads.

    The traffic shape — which key each job uses (every key the same
    number of times, shuffled) and when it is due — is part of the
    workload's definition and drawn from a fixed seed, so the cache
    hit/miss sequence and the offered load are the same in every run.
    ``rng`` (the run's seed) draws the witnesses."""
    from repro.service import ProofJob
    from repro.service.registry import get_circuit

    shape = random.Random(f"perfbench:{workload}:shape")
    keys = [(c, k) for c in CURVES for k in cfg.circuits]
    rounds = max(cfg.min_rounds,
                 math.ceil(cfg.jobs_per_second * seconds / len(keys)))
    order = keys * rounds
    shape.shuffle(order)
    # Poisson arrivals conditioned on N arrivals in [0, N/rate]: the
    # arrival times are sorted uniform draws.
    span = len(order) / cfg.rate if cfg.rate else 0.0
    offsets = sorted(shape.uniform(0.0, span) for _ in order)
    jobs = []
    for curve, circuit in order:
        n = get_circuit(circuit).n_witness
        witness = tuple(rng.randrange(1, 1 << 62) for _ in range(n))
        jobs.append(ProofJob(curve, circuit, witness, backend=floor))
    return jobs, offsets


def _job_failure(result) -> str:
    """Why a returned job counts as failed ('' if it does not)."""
    if not result.ok:
        return f"{result.error_kind}: {result.error}"
    if not result.verified:
        return "not verified"
    for event in result.telemetry.get("events", []):
        kind = event.get("kind", "")
        if "downgrade" in kind or "fallback" in kind:
            return f"left the native floor: {kind}"
        if kind == "native-coverage" and any(
                modes.get("fallback", 0) for modes in event.values()
                if isinstance(modes, dict)):
            return "native kernel fallback"
    return ""


def run(workload: str, seed: int, seconds: float, trace: bool, floor: str,
        tiny: bool = False) -> Dict[str, object]:
    from repro.errors import ServiceOverloadedError
    from repro.service import ProvingService

    cfg = (TINY if tiny else CONFIGS)[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs, offsets = make_jobs(workload, cfg, seconds, rng, floor)
    warm = [(c, k, floor) for c in CURVES for k in cfg.circuits]

    # Set-up: service construction (warm set-ups, warm handles with
    # their MSM preprocessing, worker fork), repeated; the last stays.
    setup_times = []
    for i in range(cfg.setups):
        t0 = time.perf_counter()
        svc = ProvingService(workers=WORKERS, verify=cfg.verify,
                             worker_cache=cfg.worker_cache, warm=warm)
        setup_times.append(time.perf_counter() - t0)
        if i + 1 < cfg.setups:
            svc.close()

    try:
        records, _ = run_open_loop(
            lambda job: svc.submit(job, wait=cfg.wait), jobs, offsets,
            refused=(ServiceOverloadedError,))
        stats = svc.shard_stats()
    finally:
        svc.close()
    rss = peak_rss_mb()

    for rec in records:
        rec.failure = rec.error or (_job_failure(rec.result)
                                    if rec.result is not None else "")
    checked = _independent_check(records, rng, trace)
    failed = sum(1 for r in records if r.failure)
    done = [r for r in records if r.result is not None and r.done]
    ok = [r for r in done if not r.failure]

    metrics = [
        Metric("setup_s", statistics.median(setup_times), "s",
               n=len(setup_times)),
        Metric("peak_rss_mb", rss, "MB"),
        Metric("error_rate", error_rate(len(records), failed), "ratio",
               n=len(records)),
    ]
    metrics += timing("job_ms", [r.latency for r in done])
    first_due = min(r.due for r in records)
    last_done = max((r.done for r in ok), default=first_due)
    metrics.append(Metric(
        "jobs_per_s", len(ok) / (last_done - first_due) if ok else None,
        "1/s", n=len(ok)))
    metrics.append(Metric(
        "slo_ok_ratio",
        sum(1 for r in ok if r.latency <= SLO_SECONDS) / len(records),
        "ratio", n=len(records)))
    for name, suffix in CURVES.items():
        metrics += timing(
            f"prove_ms.{suffix}",
            [sum(r.result.phase_seconds().get(p, 0.0) for p in PROVE_PHASES)
             for r in done if r.result.curve == name])
    if trace:
        metrics += _layer_metrics(workload, cfg.verify == "batched", records,
                                  stats, checked, rng)
    return {"metrics": metrics, "attempted": len(records), "failed": failed,
            "params": {"config": cfg.__dict__, "jobs": len(jobs),
                       "seconds": seconds}}


def _independent_check(records, rng: random.Random, trace: bool) -> list:
    """Re-verify a seeded sample of returned proof bytes (one job per
    curve) from the names alone — ``setup_for`` + ``deserialize_proof``
    + ``Groth16Verifier`` — so the service's own flag is not taken on
    trust.  Returns (record, proof, keys) for the traced section."""
    from repro.service.service import setup_for
    from repro.snark import Groth16Verifier, deserialize_proof

    checked = []
    for name in CURVES:
        mine = [r for r in records if r.result is not None
                and not r.failure and r.result.curve == name]
        if not mine:
            continue
        rec = rng.choice(mine)
        res = rec.result
        _, keys = setup_for(res.curve, res.circuit)
        verifier = Groth16Verifier(keys.verifying_key, keys.curve)
        proof = deserialize_proof(res.proof_bytes, keys.curve)
        if not verifier.verify(proof, res.public_inputs):
            rec.failure = "independent re-verification failed"
        elif trace:
            checked.append((rec, proof, keys))
    return checked


def _pairing_split(batched: bool, records, checked,
                   rng: random.Random) -> Tuple[List[Metric], float]:
    """Per-proof Miller-loop / final-exponentiation time and counts per
    curve, from re-verifying in this process with the engines wrapped:
    each sampled proof alone (``Groth16Verifier``) on serve-steady, the
    sampled proof's key group as one window (``BatchVerifier``) on
    serve-burst.  Each check also runs untraced, after an untimed
    warm-up, to price the tracing."""
    from repro.ff.opcount import OpCounter
    from repro.snark import BatchVerifier, Groth16Verifier, deserialize_proof

    out: List[Metric] = []
    overheads = []
    for rec, proof, keys in checked:
        suffix = CURVES[rec.result.curve]
        if not batched:
            verifier = Groth16Verifier(keys.verifying_key, keys.curve)
            group = [(proof, rec.result.public_inputs)]

            def check(counter=None, v=verifier, g=group):
                return v.verify(g[0][0], g[0][1], counter=counter)
        else:
            key = (rec.result.curve, rec.result.circuit)
            group = [(deserialize_proof(r.result.proof_bytes, keys.curve),
                      r.result.public_inputs) for r in records
                     if r.result is not None and not r.failure
                     and (r.result.curve, r.result.circuit) == key]
            verifier = BatchVerifier(keys.verifying_key, keys.curve)
            seed = rng.getrandbits(64)

            def check(counter=None, v=verifier, g=group, s=seed):
                ok, _ = v.verify_window([p for p, _ in g],
                                        [x for _, x in g],
                                        rng=random.Random(s), counter=counter)
                return ok
        check()                                   # warm caches
        t0 = time.perf_counter()
        check()
        plain_s = time.perf_counter() - t0
        timer, counter = PairingTimer(), OpCounter()
        timer.install([verifier.engine])
        try:
            t0 = time.perf_counter()
            check(counter)
            traced_s = time.perf_counter() - t0
        finally:
            timer.uninstall()
        n = len(group)
        overheads.append((traced_s - plain_s) / n)
        out += [
            Metric(f"pairing.miller_ms.{suffix}",
                   1e3 * timer.totals["miller_s"] / n, "ms", n=n),
            Metric(f"pairing.final_exp_ms.{suffix}",
                   1e3 * timer.totals["final_exp_s"] / n, "ms", n=n),
            Metric(f"pairing.miller_loops.{suffix}",
                   counter.total("miller_loop") / n, "count", n=n),
            Metric(f"pairing.final_exps.{suffix}",
                   counter.total("final_exp") / n, "count", n=n),
        ]
    return out, (statistics.mean(overheads) if overheads else 0.0)


def _layer_metrics(workload: str, batched: bool, records,
                   stats: List[dict], checked,
                   rng: random.Random) -> List[Metric]:
    done = [r for r in records if r.result is not None and r.done]
    out: List[Metric] = []
    for name, suffix in CURVES.items():
        mine = [r for r in done if r.result.curve == name]
        layers = [prover_layers(r.result.job_span["children"])
                  for r in mine if r.result.job_span]
        out += layer_summary(suffix, layers)
        out.append(Metric(f"prover.preprocess_s.{suffix}",
                          sum(s["preprocess_s"] for s in layers), "s",
                          n=len(layers)))
    pairing, overhead_s = _pairing_split(batched, records, checked, rng)
    out += pairing

    def phase_ms(phase: str) -> float:
        return 1e3 * (median([r.result.phase_seconds().get(phase, 0.0)
                              for r in done]) or 0.0)

    worker_s = sum(r.result.wall_seconds() for r in done)
    hits = sum(s["context_cache"]["hits"] for s in stats)
    misses = sum(s["context_cache"]["misses"] for s in stats)
    outside = [r.latency - r.result.wall_seconds() for r in done]
    bad_events = sum(1 for r in done if _job_failure(r.result).startswith(
        ("left the native floor", "native kernel fallback")))
    out += [
        Metric("native.fallbacks", bad_events, "count"),
        Metric("service.verify_ms", phase_ms("verify"), "ms", n=len(done)),
        Metric("service.context_ms", phase_ms("context"), "ms", n=len(done)),
        Metric("service.worker_job_ms",
               1e3 * (median([r.result.wall_seconds() for r in done])
                      or 0.0), "ms", n=len(done)),
        Metric("service.verify_share",
               sum(r.result.phase_seconds().get("verify", 0.0)
                   for r in done) / worker_s if worker_s else 0.0,
               "ratio", n=len(done)),
        Metric("service.submit_ms",
               1e3 * median([r.submit_seconds for r in records]), "ms",
               n=len(records)),
        Metric("service.outside_worker_ms", 1e3 * (median(outside) or 0.0),
               "ms", n=len(outside)),
        Metric("service.cache_hit_ratio",
               hits / (hits + misses) if hits + misses else 0.0, "ratio",
               n=hits + misses),
        Metric("service.cache_hits", hits, "count"),
        Metric("service.cache_misses", misses, "count"),
        Metric("service.queue_depth_hwm",
               max(s["queue_depth_hwm"] for s in stats), "count"),
        Metric("service.rejections", sum(s["rejections"] for s in stats),
               "count"),
        Metric("gen.late_ms.max", 1e3 * generator_lateness(records), "ms",
               n=len(records)),
        Metric("trace.overhead_ms", 1e3 * overhead_s, "ms",
               n=len(checked)),
    ]
    return out + absent_layers([m.name for m in out], workload)
