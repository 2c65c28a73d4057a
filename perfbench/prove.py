"""``prove-sha256``: a closed loop with one caller proving the
sha256-like circuit on the native floor, rotating over three curves.

Each iteration calls ``Groth16Prover.prove`` (built by
``make_gzkp_prover``) with fresh seeded masks and waits for the proof.
MSM is most of a proof here, so this workload shows MSM, kernel and
int <-> word-row conversion work; it never reaches the pairing or the
service.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

from core import (CURVES, SLO_SECONDS, Metric, absent_layers, error_rate,
                  median, timing)
from floor import peak_rss_mb
from tracing import NativeTimer, layer_summary, prover_layers

#: sha256_like_circuit rounds per curve: 523 constraints (domain 1024)
#: on ALT-BN128 and BLS12-381; 203 (domain 256) on MNT4753, whose key
#: generation would otherwise take about 90 s
ROUNDS = {"ALT-BN128": 48, "BLS12-381": 48, "MNT4753": 16}
TINY_ROUNDS = {"ALT-BN128": 2, "BLS12-381": 2, "MNT4753": 1}

#: the fixed seed of each curve's trusted setup (the CRS is a system
#: parameter; the workload seed drives only the per-proof masks)
KEY_SEED = "perfbench:prove-sha256:{curve}:{rounds}"


def _fallbacks() -> int:
    """Dispatches that left the native floor since the last call."""
    from repro.backend import coverage
    from repro.backend.native import drain_kernel_events

    counts = coverage.drain()
    bad = sum(modes.get("fallback", 0) for modes in counts.values())
    bad += sum(1 for e in drain_kernel_events()
               if any(w in e["kind"] for w in ("fallback", "downgrade",
                                                "failed", "disabled")))
    return bad


def run(seed: int, seconds: float, trace: bool, floor: str,
        tiny: bool = False) -> Dict[str, object]:
    from repro.circuits.gadget_circuits import sha256_like_circuit
    from repro.curves.params import CURVES as CURVE_PAIRS
    from repro.service.telemetry import Telemetry
    from repro.snark import Groth16Verifier, make_gzkp_prover
    from repro.snark import keys as keys_mod

    rounds = TINY_ROUNDS if tiny else ROUNDS
    rng = random.Random(f"prove-sha256:{seed}")

    # Inputs: circuits, witnesses and keys (not timed).
    inputs = {}
    for name in CURVES:
        curve = CURVE_PAIRS[name]
        r1cs, assignment = sha256_like_circuit(curve.fr, rounds=rounds[name])
        keys = keys_mod.setup(r1cs, curve, rng=random.Random(
            KEY_SEED.format(curve=name, rounds=rounds[name])))
        public = assignment[1:1 + keys.proving_key.n_public]
        inputs[name] = (curve, r1cs, assignment, keys, public)

    # Set-up: prover construction (MSM checkpoint preprocessing
    # included) and one warm-up proof per curve.
    build_tel = {name: Telemetry() if trace else None for name in CURVES}
    t0 = time.perf_counter()
    provers = {}
    for name, (curve, r1cs, _, keys, _) in inputs.items():
        provers[name] = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                         backend=floor,
                                         telemetry=build_tel[name])
    for name, (_, _, assignment, _, _) in inputs.items():
        provers[name].prove(assignment,
                            rng=random.Random(rng.getrandbits(64)))
    setup_s = time.perf_counter() - t0
    _fallbacks()

    # The closed loop.  A traced run alternates traced and untraced
    # rotations so the tracing overhead is measured in the same run.
    native = NativeTimer()
    order = list(CURVES)
    proofs: List[dict] = []
    start = time.perf_counter()
    deadline = start + seconds
    # whole rotations only (equal samples per curve); a traced run
    # needs at least one traced and one untraced rotation
    min_proofs = len(order) * (2 if trace else 1)
    i = 0
    while (time.perf_counter() < deadline or i % len(order)
           or i < min_proofs):
        name = order[i % len(order)]
        traced = trace and (i // len(order)) % 2 == 0
        mask_rng = random.Random(rng.getrandbits(64))
        tel = Telemetry() if traced else None
        if traced:
            native.install()
        t = time.perf_counter()
        proof = provers[name].prove(inputs[name][2], rng=mask_rng,
                                    telemetry=tel)
        dt = time.perf_counter() - t
        rec = {"curve": name, "seconds": dt, "traced": traced,
               "proof": proof, "fallbacks": _fallbacks()}
        if traced:
            native.uninstall()
            rec["native"] = native.reset()
            rec["layers"] = prover_layers(tel.to_dict()["spans"])
        proofs.append(rec)
        i += 1
    elapsed = time.perf_counter() - start

    # Output checks (not timed): the shape of every proof, and a full
    # pairing verification of a seeded sample per curve.
    verifiers = {name: Groth16Verifier(keys.verifying_key, curve)
                 for name, (curve, _, _, keys, _) in inputs.items()}
    for rec in proofs:
        rec["ok"] = (rec["fallbacks"] == 0 and
                     verifiers[rec["curve"]].check_proof_shape(rec["proof"]))
    for name in CURVES:
        sample = rng.choice([r for r in proofs if r["curve"] == name])
        if not verifiers[name].verify(sample["proof"], inputs[name][4]):
            sample["ok"] = False
    failed = sum(1 for r in proofs if not r["ok"])

    untraced = [r for r in proofs if not r["traced"]]
    metrics = [
        Metric("setup_s", setup_s, "s", n=1),
        Metric("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric("error_rate", error_rate(len(proofs), failed), "ratio",
               n=len(proofs)),
    ]
    for name, suffix in CURVES.items():
        metrics += timing(f"prove_ms.{suffix}",
                          [r["seconds"] for r in untraced
                           if r["curve"] == name])
    metrics += timing("job_ms", [r["seconds"] for r in untraced])
    metrics += [
        Metric("jobs_per_s", len(proofs) / elapsed, "1/s", n=len(proofs)),
        Metric("slo_ok_ratio",
               sum(1 for r in proofs if r["ok"] and
                   r["seconds"] <= SLO_SECONDS) / len(proofs),
               "ratio", n=len(proofs)),
    ]
    if trace:
        metrics += _layer_metrics(proofs, build_tel)
    return {"metrics": metrics, "attempted": len(proofs), "failed": failed,
            "params": {"rounds": rounds, "seconds": seconds,
                       "proofs": len(proofs)}}


def _layer_metrics(proofs: List[dict], build_tel: dict) -> List[Metric]:
    out: List[Metric] = []
    overheads = []
    for name, suffix in CURVES.items():
        mine = [r for r in proofs if r["curve"] == name]
        traced = [r for r in mine if r["traced"]]
        n = len(traced)
        out += layer_summary(suffix, [r["layers"] for r in traced])
        pre = sum(s["seconds"] for s in build_tel[name].to_dict()["spans"]
                  if s["name"] == "preprocess")
        out.append(Metric(f"prover.preprocess_s.{suffix}", pre, "s"))
        out += [
            Metric(f"native.kernel_ms.{suffix}",
                   1e3 * median([r["native"]["kernel_s"] for r in traced]),
                   "ms", n=n),
            Metric(f"native.convert_ms.{suffix}",
                   1e3 * median([r["native"]["convert_s"] for r in traced]),
                   "ms", n=n),
            Metric(f"native.calls.{suffix}",
                   statistics.mean(r["native"]["calls"] for r in traced),
                   "count", n=n),
        ]
        overheads.append(
            median([r["seconds"] for r in traced])
            - median([r["seconds"] for r in mine if not r["traced"]]))
    out.append(Metric("native.fallbacks",
                      sum(r["fallbacks"] for r in proofs), "count"))
    out.append(Metric("trace.overhead_ms", 1e3 * statistics.mean(overheads),
                      "ms", n=len(overheads)))
    return out + absent_layers(
        [m.name for m in out], "prove-sha256")
