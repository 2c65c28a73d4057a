"""Ablation: scalar Python vs the compiled native backend.

Times one forward N=2^12 NTT over the BLS12-381 scalar field through the
GZKP engine's ``compute()`` (the batched-executor path), once per
backend, and records the wall-clock ratio in EXPERIMENTS.md. The native
backend must be at least 5x faster than the scalar executor walk it
replaces; the reference loop (incremental twiddles, no per-butterfly
``pow``) is timed too so the table shows both scalar baselines.
"""

import re
import time
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.backend.native import native_available
from repro.curves import CURVES
from repro.gpusim import V100
from repro.ntt.gpu_gzkp import GzkpNtt
from repro.ntt.reference import ntt

LOG_N = 12
N = 1 << LOG_N

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
_MARK_START = "<!-- backend-microbench:start -->"
_MARK_END = "<!-- backend-microbench:end -->"


def _best_of(func, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep_backend_speed():
    field = CURVES["BLS12-381"].fr
    import random

    rng = random.Random(0)
    vals = [rng.randrange(field.modulus) for _ in range(N)]

    eng_py = GzkpNtt(field, V100, backend="python")
    eng_nb = GzkpNtt(field, V100, backend="native")

    # Warm every cache outside the clock (twiddle tables, Montgomery
    # twiddle rows, root-of-unity memos) and check the answers agree.
    out_py = eng_py.compute(vals)
    out_nb = eng_nb.compute(vals)
    assert out_py == out_nb
    assert ntt(field, vals, backend="python") == out_nb

    t_exec = _best_of(lambda: eng_py.compute(vals))
    t_ref = _best_of(lambda: ntt(field, vals, backend="python"))
    t_nb = _best_of(lambda: eng_nb.compute(vals))
    return {
        "field": "BLS12-381 Fr",
        "n": N,
        "python_executor_ms": t_exec * 1e3,
        "python_reference_ms": t_ref * 1e3,
        "native_ms": t_nb * 1e3,
        "speedup_vs_executor": t_exec / t_nb,
        "speedup_vs_reference": t_ref / t_nb,
    }


def _write_experiments_block(row):
    lines = [
        _MARK_START,
        "## Backend microbenchmark — scalar Python vs native kernels",
        "",
        f"One forward NTT, N=2^{LOG_N}, {row['field']}, via "
        "`GzkpNtt.compute()` (best of 3, caches warm; single core):",
        "",
        "| path | wall-clock (ms) | native speedup |",
        "|---|---|---|",
        f"| python backend, executor schedule | "
        f"{row['python_executor_ms']:.1f} | "
        f"{row['speedup_vs_executor']:.1f}x |",
        f"| python reference loop (cached incremental twiddles) | "
        f"{row['python_reference_ms']:.1f} | "
        f"{row['speedup_vs_reference']:.1f}x |",
        f"| native backend | {row['native_ms']:.1f} | 1.0x |",
        "",
        "The acceptance bar (>= 5x) is against the executor schedule the "
        "native backend substitutes for; the tighter reference-loop row "
        "is kept for honesty about how much of the win is the compiled "
        "sweep vs avoiding per-butterfly `pow`.",
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
                    reason="no C compiler: native floor unavailable")
def test_backend_speedup(regen):
    assert get_backend("native").fuses_ntt_sweeps
    row = regen(sweep_backend_speed)
    print()
    print(f"Backend microbench: N=2^{LOG_N} forward NTT, {row['field']}")
    print(f"{'path':>42} {'ms':>9} {'speedup':>8}")
    print(f"{'python (executor schedule)':>42} "
          f"{row['python_executor_ms']:>9.1f} "
          f"{row['speedup_vs_executor']:>7.1f}x")
    print(f"{'python (reference loop)':>42} "
          f"{row['python_reference_ms']:>9.1f} "
          f"{row['speedup_vs_reference']:>7.1f}x")
    print(f"{'native (compiled sweep)':>42} {row['native_ms']:>9.1f} "
          f"{'1.0':>7}x")
    _write_experiments_block(row)
    # Acceptance: the compiled sweep beats the scalar path it
    # replaces by at least 5x at the paper's smallest NTT scale.
    assert row["speedup_vs_executor"] >= 5.0
