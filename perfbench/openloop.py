"""Open-loop load driver whose clock starts at each job's *due* time.

A job's latency runs from when it was due to be sent to when its result
arrived.  If ``submit`` blocks (backpressure) the jobs behind it are
sent late, and that wait is charged to them — the generator does not
get to hide it (coordinated omission).  The generator's *own* lateness
— how far it sent a job past the later of its due time and the moment
the previous ``submit`` returned — is reported separately
(``gen.late_ms.max``); a large value means the driver, not the
service, set the pace, and the run is invalid.

``repro.service.loadgen.LoadGenerator`` is not used for timing: it
starts each job's clock when the job is sent, which omits exactly the
wait described above.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Type


@dataclass
class Sent:
    """The life of one job as the driver saw it (perf_counter seconds)."""

    index: int
    due: float
    submit_start: float = 0.0
    submit_end: float = 0.0
    done: Optional[float] = None
    result: object = None
    refused: bool = False
    error: Optional[str] = None
    #: why the job counts as failed, set by the caller's output checks
    failure: str = ""

    @property
    def latency(self) -> Optional[float]:
        """Due time to result, or None if no result arrived."""
        return None if self.done is None else self.done - self.due

    @property
    def submit_seconds(self) -> float:
        return self.submit_end - self.submit_start


def run_open_loop(submit: Callable, jobs: Sequence, offsets: Sequence[float],
                  refused: Tuple[Type[BaseException], ...] = (),
                  timeout: float = 120.0,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  ) -> Tuple[List[Sent], float]:
    """Send ``jobs[i]`` at ``start + offsets[i]`` through ``submit``
    (which returns a ``concurrent.futures.Future``) and wait for every
    result.  An exception of a type in ``refused`` marks the job
    refused; any other exception propagates.  Returns the per-job
    records and the start time the offsets are relative to."""
    if len(jobs) != len(offsets):
        raise ValueError("one offset per job")
    records = [Sent(i, 0.0) for i in range(len(jobs))]
    futures = []
    lock = threading.Lock()

    def on_done(rec: Sent, fut) -> None:
        stamp = clock()
        with lock:
            rec.done = stamp
            try:
                rec.result = fut.result()
            except Exception as exc:  # recorded as the job's failure
                rec.error = f"{type(exc).__name__}: {exc}"

    start = clock()
    for rec, job, offset in zip(records, jobs, offsets):
        rec.due = start + offset
        delay = rec.due - clock()
        if delay > 0:
            sleep(delay)
        rec.submit_start = clock()
        try:
            fut = submit(job)
        except refused as exc:
            rec.submit_end = clock()
            rec.refused = True
            rec.error = f"{type(exc).__name__}: {exc}"
            continue
        rec.submit_end = clock()
        futures.append(fut)
        fut.add_done_callback(lambda f, r=rec: on_done(r, f))

    deadline = clock() + timeout
    for fut in futures:
        remaining = deadline - clock()
        if remaining <= 0:
            break
        try:
            fut.result(timeout=remaining)
        except Exception:  # on_done has recorded it
            pass
    with lock:
        for rec in records:
            if not rec.refused and rec.done is None and rec.error is None:
                rec.error = "no result within the driver's timeout"
    return records, start


def generator_lateness(records: Sequence[Sent]) -> float:
    """Max seconds the driver itself sent a job late: past the later of
    its due time and the return of the previous ``submit``."""
    worst = 0.0
    previous_end = float("-inf")
    for rec in records:
        ready = max(rec.due, previous_end)
        worst = max(worst, rec.submit_start - ready)
        previous_end = rec.submit_end
    return worst
