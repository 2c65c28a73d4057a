"""Ablation: prover amortization — cold vs warm per-job latency x backend.

GZKP's §4.1 amortization claim in service form: MSM checkpoint
preprocessing (and setup derivation) runs once per (curve, circuit),
so a *warm* prover context should prove each job measurably faster
than a *cold* one, with telemetry recording zero preprocess doublings
and context-cache hits on the warm path. This ablation measures both
modes per backend through the inline proving service:

* **cold** — a fresh service per job: every job pays context build +
  checkpoint preprocessing (the `preprocess` spans appear under the
  job's `context` span);
* **warm** — one service with `warm=[(curve, circuit)]`: contexts are
  pre-built before the first job, every job runs the amortized path.

Results land in EXPERIMENTS.md and BENCH_prover.json.

Set ``PROVER_ABLATION_TINY=1`` (CI smoke) to run one tiny cold/warm
pair with correctness asserts only — no timings, no file writes.
"""

import json
import os
import re
import time
from pathlib import Path

from repro.service import ProofJob, ProvingService

TINY = os.environ.get("PROVER_ABLATION_TINY", "") == "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BENCH_JSON = REPO_ROOT / "BENCH_prover.json"
_MARK_START = "<!-- prover-amortization-ablation:start -->"
_MARK_END = "<!-- prover-amortization-ablation:end -->"

CURVE = "ALT-BN128"
CIRCUIT = "cubic"
N_JOBS = 4
TINY_JOBS = 2


def _jobs(n, backend):
    return [ProofJob(CURVE, CIRCUIT, (3 + i,), backend=backend)
            for i in range(n)]


def _preprocess_spans(span, out=None):
    out = [] if out is None else out
    if span["name"] == "preprocess":
        out.append(span)
    for child in span.get("children", []):
        _preprocess_spans(child, out)
    return out


def _check(results, warm):
    assert all(r.ok and r.verified for r in results), [
        (r.job_id, r.error) for r in results if not r.ok
    ]
    for r in results:
        spans = _preprocess_spans(r.job_span)
        pdbl = sum(s["ops"].get("pdbl", 0) for s in spans)
        events = {(e["kind"], e["detail"]) for e in r.telemetry["events"]}
        if warm:
            assert pdbl == 0, "warm job performed preprocess doublings"
            assert ("prover-context-cache", "hit") in events
            assert ("msm-context-cache", "hit") in events
        else:
            assert pdbl > 0, "cold job skipped preprocess doublings"
            assert ("prover-context-cache", "miss") in events


def _run_mode(backend, warm, n_jobs):
    """Per-job latency: cold rebuilds the service (and thus contexts)
    for every job; warm keeps one pre-warmed service across the run."""
    per_job = []
    if warm:
        with ProvingService(workers=0, parallel_msm=False,
                            warm=[(CURVE, CIRCUIT, backend)]) as svc:
            results = []
            for job in _jobs(n_jobs, backend):
                t0 = time.perf_counter()
                results.extend(svc.prove_batch([job]))
                per_job.append(time.perf_counter() - t0)
    else:
        results = []
        for job in _jobs(n_jobs, backend):
            with ProvingService(workers=0, parallel_msm=False) as svc:
                t0 = time.perf_counter()
                results.extend(svc.prove_batch([job]))
                per_job.append(time.perf_counter() - t0)
    _check(results, warm)
    return {
        "backend": backend,
        "mode": "warm" if warm else "cold",
        "jobs": n_jobs,
        "per_job_s": [round(s, 4) for s in per_job],
        "mean_job_s": sum(per_job) / len(per_job),
        "preprocess_pdbl_per_job": 0 if warm else sum(
            s["ops"].get("pdbl", 0)
            for s in _preprocess_spans(results[0].job_span)
        ),
    }


def _write_outputs(rows):
    payload = {
        "benchmark": "prover-amortization",
        "unit": "seconds per proof job (inline service, proofs verified)",
        "curve": CURVE,
        "circuit": CIRCUIT,
        "rows": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        _MARK_START,
        "## Prover amortization ablation — cold vs warm x backend",
        "",
        f"Per-job latency of {N_JOBS} `{CIRCUIT}` jobs on `{CURVE}` "
        "through the inline proving service. *cold* tears the service "
        "down between jobs, so every proof pays setup + MSM checkpoint "
        "preprocessing; *warm* pre-builds prover contexts (`warm=` "
        "flag) once, and telemetry confirms zero preprocess doublings "
        "and context-cache hits per job — GZKP §4.1's claim that the "
        "point vector never changes for an application, realised at "
        "the service layer. Raw rows: `BENCH_prover.json`.",
        "",
        "| backend | mode | mean s/job | preprocess pdbl/job |",
        "|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['backend']} | {r['mode']} | {r['mean_job_s']:.3f} | "
            f"{r['preprocess_pdbl_per_job']} |"
        )
    ratios = []
    by_backend = {}
    for r in rows:
        by_backend.setdefault(r["backend"], {})[r["mode"]] = r
    for backend, modes in sorted(by_backend.items()):
        if "cold" in modes and "warm" in modes:
            ratio = (modes["cold"]["mean_job_s"]
                     / max(modes["warm"]["mean_job_s"], 1e-9))
            ratios.append(f"{backend}: {ratio:.2f}x")
    if ratios:
        lines += ["", "Cold/warm latency ratio — " + ", ".join(ratios)
                  + "."]
    lines += ["", _MARK_END]
    block = "\n".join(lines)
    text = EXPERIMENTS_MD.read_text()
    pattern = re.compile(
        re.escape(_MARK_START) + ".*?" + re.escape(_MARK_END), re.DOTALL
    )
    if pattern.search(text):
        text = pattern.sub(block, text)
    else:
        text = text.rstrip("\n") + "\n\n" + block + "\n"
    EXPERIMENTS_MD.write_text(text)


def test_prover_amortization_ablation(regen):
    backends = ["python", "native"]
    if TINY:
        cold = _run_mode(backends[-1], warm=False, n_jobs=TINY_JOBS)
        warm = _run_mode(backends[-1], warm=True, n_jobs=TINY_JOBS)
        assert warm["preprocess_pdbl_per_job"] == 0
        assert cold["preprocess_pdbl_per_job"] > 0
        return

    def sweep():
        return [_run_mode(backend, warm, N_JOBS)
                for backend in backends
                for warm in (False, True)]

    rows = regen(sweep)
    print()
    print("Prover amortization (per-job seconds, proofs verified)")
    print(f"{'backend':>8} {'mode':>6} {'s/job':>8} {'pre-pdbl':>9}")
    for r in rows:
        print(f"{r['backend']:>8} {r['mode']:>6} "
              f"{r['mean_job_s']:>8.3f} {r['preprocess_pdbl_per_job']:>9}")
    for backend in backends:
        cold = next(r for r in rows
                    if r["backend"] == backend and r["mode"] == "cold")
        warm = next(r for r in rows
                    if r["backend"] == backend and r["mode"] == "warm")
        # the acceptance claim: warm jobs are measurably cheaper
        assert warm["mean_job_s"] < cold["mean_job_s"], (
            f"{backend}: warm {warm['mean_job_s']:.3f}s !< "
            f"cold {cold['mean_job_s']:.3f}s"
        )
    _write_outputs(rows)


if __name__ == "__main__":  # manual run without pytest-benchmark
    rows = [_run_mode(b, w, N_JOBS)
            for b in ("python", "native") for w in (False, True)]
    for row in rows:
        print(row)
    _write_outputs(rows)
