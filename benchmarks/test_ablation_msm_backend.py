"""Ablation: MSM bucket accumulation, scalar fold vs segmented tree.

Pippenger-style point-merging is the MSM hot path (§5 of the paper).
This ablation times ``accumulate_buckets`` in isolation — the same
(bucket, point) entry stream handed to the ``python`` backend's ordered
scalar fold and to the ``native`` backend's sorted segmented batch-affine
reduction (:mod:`repro.backend.native_curve`) — on G1 of two curves and
one G2, at two scales for the main curve. Buckets must agree
group-element-for-group-element; the native path must be >= 3x faster at
each curve's largest G1 scale. Results land in EXPERIMENTS.md and
BENCH_msm_backend.json.

Timings interleave the two backends rep-for-rep and keep the minimum,
so background noise hits both sides equally.

Set ``MSM_ABLATION_TINY=1`` (CI smoke) to run tiny scales with the
equality asserts only — no timings recorded, no speedup bar, no file
writes.
"""

import json
import os
import random
import re
import time
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.backend.native import native_available
from repro.curves import CURVES

TINY = os.environ.get("MSM_ABLATION_TINY", "") == "1"

#: (curve, group attr, n entries, n buckets, timing reps)
SCALES = [
    ("BLS12-381", "g1", 4096, 255, 9),
    ("BLS12-381", "g1", 8192, 255, 9),
    ("MNT4753", "g1", 4096, 255, 5),
    ("BLS12-381", "g2", 2048, 255, 5),
]
TINY_SCALES = [
    ("BLS12-381", "g1", 192, 16, 1),
    ("BLS12-381", "g2", 96, 8, 1),
]

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BENCH_JSON = REPO_ROOT / "BENCH_msm_backend.json"
_MARK_START = "<!-- msm-backend-ablation:start -->"
_MARK_END = "<!-- msm-backend-ablation:end -->"

SPEEDUP_BAR = 3.0


def _entry_stream(group, n, n_buckets, seed):
    """Pairwise-independent points (offset chain) with uniform random
    bucket ids — the shape a real window's point-merging sees."""
    rng = random.Random(seed)
    gen = group.generator
    acc = group.to_jacobian(group.scalar_mul(rng.getrandbits(128), gen))
    jpts = []
    for _ in range(n):
        jpts.append(acc)
        acc = group.jmixed_add(acc, gen)
    aff = group.batch_normalize(jpts)
    return [(rng.randrange(n_buckets), p) for p in aff]


def _run_scale(curve_name, group_attr, n, n_buckets, reps):
    group = getattr(CURVES[curve_name], group_attr)
    o = group.ops
    inf = (o.one, o.one, o.zero)
    entries = _entry_stream(group, n, n_buckets, seed=n + n_buckets)
    backends = {name: get_backend(name) for name in ("python", "native")}

    def run(backend):
        buckets = [inf] * n_buckets
        t0 = time.perf_counter()
        backend.accumulate_buckets(group, buckets, entries)
        return time.perf_counter() - t0, buckets

    # Warm (compiles/caches) and check agreement bucket-for-bucket.
    _, ref = run(backends["python"])
    _, got = run(backends["native"])
    for i in range(n_buckets):
        assert group.from_jacobian(ref[i]) == group.from_jacobian(got[i]), (
            f"{curve_name} {group_attr} n={n}: bucket {i} diverges"
        )

    times = {"python": float("inf"), "native": float("inf")}
    for _ in range(reps):
        for name in ("python", "native"):
            dt, _ = run(backends[name])
            times[name] = min(times[name], dt)
    return {
        "curve": curve_name,
        "group": group_attr.upper(),
        "n": n,
        "buckets": n_buckets,
        "python_ms": times["python"] * 1e3,
        "native_ms": times["native"] * 1e3,
        "speedup": times["python"] / times["native"],
    }


def _write_outputs(rows):
    payload = {
        "benchmark": "msm-bucket-accumulation",
        "unit": "ms (best-of-reps, interleaved, single core)",
        "speedup_bar_g1_largest_scale": SPEEDUP_BAR,
        "rows": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        _MARK_START,
        "## MSM bucket-accumulation ablation — scalar fold vs segmented tree",
        "",
        "`accumulate_buckets` in isolation (the point-merging hot path): "
        "python backend's ordered scalar fold vs native backend's sorted "
        "segmented batch-affine reduction over the native Montgomery "
        "kernels. Interleaved best-of timings, caches warm, single core; "
        "buckets verified group-equal every run. Raw rows: "
        "`BENCH_msm_backend.json`.",
        "",
        "| curve | group | entries | buckets | python (ms) | native (ms) "
        "| speedup |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['curve']} | {r['group']} | {r['n']} | {r['buckets']} | "
            f"{r['python_ms']:.1f} | {r['native_ms']:.1f} | "
            f"{r['speedup']:.2f}x |"
        )
    lines += [
        "",
        f"Acceptance bar: >= {SPEEDUP_BAR:.0f}x on G1 at each curve's "
        "largest benchmarked scale. G2 rides the same tree through Fq2 "
        "Karatsuba lanes (3 base muls per Fq2 mul), where the scalar "
        "baseline is slower still.",
        _MARK_END,
    ]
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


@pytest.mark.skipif(not native_available(),
                    reason="native Montgomery kernels unavailable "
                           "(no C compiler)")
def test_msm_backend_ablation(regen):
    scales = TINY_SCALES if TINY else SCALES

    def sweep():
        return [_run_scale(*scale) for scale in scales]

    rows = regen(sweep)
    print()
    print("MSM bucket accumulation: python scalar fold vs native "
          "segmented tree")
    print(f"{'curve':>10} {'grp':>4} {'n':>6} {'python ms':>10} "
          f"{'native ms':>9} {'speedup':>8}")
    for r in rows:
        print(f"{r['curve']:>10} {r['group']:>4} {r['n']:>6} "
              f"{r['python_ms']:>10.1f} {r['native_ms']:>9.1f} "
              f"{r['speedup']:>7.2f}x")
    if TINY:
        return  # smoke mode: equality asserts already ran inside
    # The bar applies at each curve's largest benchmarked G1 scale.
    largest = {}
    for r in rows:
        if r["group"] == "G1":
            cur = largest.get(r["curve"])
            if cur is None or r["n"] > cur["n"]:
                largest[r["curve"]] = r
    for r in largest.values():
        assert r["speedup"] >= SPEEDUP_BAR, (
            f"{r['curve']} G1 n={r['n']}: {r['speedup']:.2f}x < "
            f"{SPEEDUP_BAR}x"
        )
    _write_outputs(rows)
