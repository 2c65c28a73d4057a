"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q

The last tests run the whole benchmark in its tiny configuration
(seconds per workload once the key cache is warm).
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import core
import floor
from openloop import generator_lateness, run_open_loop

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


# -- the tail rule --------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 27, 36, 78, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    pct, value = core.tail(values)
    assert sum(1 for v in values if v > value) == core.TAIL_BEYOND
    assert pct == pytest.approx(100 * (n - 10) / n, abs=0.1)
    assert pct <= 100 * (n - 10) / n           # never rounded up


def test_tail_known_values():
    assert core.tail(list(range(100))) == (90.0, 89)
    assert core.tail(list(range(20))) == (50.0, 9)


@pytest.mark.parametrize("n", [0, 1, 10, 11, 19])
def test_tail_needs_twenty_samples(n):
    assert core.tail(list(range(n))) is None
    p50, tail_metric = core.timing("x_ms", [0.001] * n)
    assert tail_metric.value is None and tail_metric.n == n


def test_timing_reports_ms_with_percentile_and_count():
    p50, tl = core.timing("job_ms", [i / 1000 for i in range(1, 31)])
    assert (p50.name, p50.unit, p50.n) == ("job_ms.p50", "ms", 30)
    assert p50.value == pytest.approx(15.5)
    assert tl.name == "job_ms.tail" and tl.percentile == 66.6
    assert tl.value == pytest.approx(20.0)


# -- the error-rate base --------------------------------------------------------


def test_error_rate_counts_every_attempted_job_once():
    # 8 attempted: 1 refused, 1 failed, 1 wrong output -> 3 / 8
    assert core.error_rate(attempted=8, failed=3) == 3 / 8
    assert core.error_rate(attempted=5, failed=0) == 0.0
    with pytest.raises(ValueError):
        core.error_rate(attempted=0, failed=0)


# -- due-time latency -----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class Overloaded(Exception):
    pass


def _done(value="ok"):
    fut = concurrent.futures.Future()
    fut.set_result(value)
    return fut


def test_blocking_submit_is_charged_to_the_jobs_behind_it():
    clock = FakeClock()
    blocks = {0: 5.0}                    # job 0's submit blocks 5 s

    def submit(i):
        clock.sleep(blocks.get(i, 0.0))
        return _done(i)

    records, start = run_open_loop(submit, [0, 1, 2], [0.0, 0.0, 1.0],
                                   clock=clock, sleep=clock.sleep)
    # due at start, start, start+1; all three resolve at start+5
    assert [r.latency for r in records] == [5.0, 5.0, 4.0]
    assert records[0].submit_seconds == 5.0
    # the wait was imposed by the service, not by the driver
    assert generator_lateness(records) == 0.0


def test_refused_submit_has_no_latency_and_is_a_failure():
    clock = FakeClock()

    def submit(i):
        if i == 1:
            raise Overloaded("queue full")
        return _done(i)

    records, _ = run_open_loop(submit, [0, 1, 2], [0.0, 0.5, 1.0],
                               refused=(Overloaded,), clock=clock,
                               sleep=clock.sleep)
    assert [r.refused for r in records] == [False, True, False]
    assert records[1].latency is None and "queue full" in records[1].error
    assert core.error_rate(len(records),
                           sum(1 for r in records if r.error)) == 1 / 3


def test_late_generator_is_reported():
    clock = FakeClock()

    def oversleep(seconds):
        clock.now += seconds + 0.25

    records, _ = run_open_loop(lambda i: _done(i), [0, 1], [0.0, 1.0],
                               clock=clock, sleep=oversleep)
    assert generator_lateness(records) == pytest.approx(0.25)
    assert records[1].latency == pytest.approx(0.25)


def test_unresolved_job_is_an_error_after_the_timeout():
    records, _ = run_open_loop(lambda i: concurrent.futures.Future(), [0],
                               [0.0], timeout=0.01)
    assert records[0].error and records[0].latency is None


# -- the catalog ----------------------------------------------------------------


def _declared():
    return core.declared_metrics()


def test_result_line_refuses_a_missing_or_unit_mismatched_metric():
    declared = {"end_to_end": {"a_ms": "ms", "b_s": "s"}, "per_layer": {}}
    good = [core.Metric("a_ms", 1.5, "ms"), core.Metric("b_s", 2.0, "s"),
            core.Metric("extra", 3.0, "count")]
    line = json.loads(core.result_line(good, False, True, 4, 0, declared))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {"a_ms", "b_s"}
    with pytest.raises(KeyError):
        core.result_line(good[:1], False, True, 4, 0, declared)
    with pytest.raises(ValueError):
        core.result_line([core.Metric("a_ms", 1.0, "s"), good[1]], False,
                         True, 4, 0, declared)


def test_catalog_names_are_unique_and_well_formed():
    with open(core.BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]]
    assert len(names) == len(set(names))
    assert "setup_s" in _declared()["end_to_end"]
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {w["name"] for w in spec["workloads"]} == set(core.WORKLOADS)


# -- the key cache --------------------------------------------------------------


def test_key_cache_returns_the_keys_setup_would(tmp_path):
    floor.use_checkout_sources()
    import keycache
    from repro.curves.params import CURVES
    from repro.service.registry import get_circuit
    from repro.snark import keys as keys_mod

    real = getattr(keys_mod.setup, "__wrapped__", keys_mod.setup)
    cached = keycache.caching_setup(real, str(tmp_path))
    curve = CURVES["ALT-BN128"]
    r1cs = get_circuit("cubic").build(curve.fr)
    want = real(r1cs, curve, rng=random.Random("k"))
    for _ in range(2):                   # first computes, second loads
        rng = random.Random("k")
        got = cached(r1cs, curve, rng=rng)
        assert got.proving_key == want.proving_key
        assert got.verifying_key == want.verifying_key
        assert got.trapdoor == want.trapdoor
        after = random.Random("k")
        real(r1cs, curve, rng=after)
        assert rng.getstate() == after.getstate()
    assert len(os.listdir(tmp_path)) == 1


# -- the native-layer timer -----------------------------------------------------


def test_native_timer_splits_self_time_and_restores_methods():
    floor.use_checkout_sources()
    from repro.backend.native import NativeField, get_native_field
    from tracing import NativeTimer

    field = get_native_field((1 << 61) - 1)
    if field is None:
        pytest.skip("native kernels unavailable")
    before = dict(vars(NativeField))
    timer = NativeTimer()
    timer.install()
    try:
        rows = field.encode([1, 2, 3])      # encode -> words_from_ints
        field.mul(rows, rows)               #           + mul_const
    finally:
        timer.uninstall()
    totals = timer.reset()
    assert totals["calls"] == 4
    assert totals["convert_s"] > 0 and totals["kernel_s"] > 0
    assert dict(vars(NativeField)) == before


# -- the whole benchmark, tiny --------------------------------------------------


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_benchmark_prints_exactly_the_catalog(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "2",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    wanted = _declared()["per_layer" if trace == "1" else "end_to_end"]
    for workload in core.WORKLOADS:
        printed = {k.split("/", 1)[1]: v for k, v in line["metrics"].items()
                   if k.startswith(workload + "/")}
        assert set(printed) == set(wanted), workload
        assert all(printed[n]["unit"] == u for n, u in wanted.items())
    if trace == "1":
        assert "# expect" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(core.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prove-sha256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
