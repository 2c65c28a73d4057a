"""LoadGenerator timing against a stub service: latency is measured from
each job's due time, so a slow ``submit()`` shows up in the latency of
the jobs queued behind it (no coordinated omission)."""

import time
from concurrent.futures import Future
from types import SimpleNamespace

from repro.service.loadgen import LoadGenerator

BLOCK_S = 0.2


class _SlowFirstSubmit:
    """Completes every job at once, but its first ``submit`` blocks."""

    def __init__(self):
        self.calls = 0

    def submit(self, job, wait=True):
        self.calls += 1
        if self.calls == 1:
            time.sleep(BLOCK_S)
        future = Future()
        future.set_result(SimpleNamespace(ok=True))
        return future

    def shard_stats(self):
        return []


def test_latency_counts_the_wait_behind_a_slow_submit():
    report = LoadGenerator(_SlowFirstSubmit()).run(["first", "second"],
                                                   [0.0, 0.0])
    assert report.ok == 2
    # Both jobs were due at t=0. The second could only be submitted once
    # the first submit returned, BLOCK_S later, and that wait is part of
    # its latency. With two samples the nearest-rank p50 is the smaller
    # latency, so it bounds the second job's.
    assert report.latency_p50 >= BLOCK_S
