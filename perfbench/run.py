"""Benchmark entry point.

    python3 perfbench/run.py --workload prove-sha256 --seed 1 --seconds 20 --trace 0

runs one workload and prints a metric table, a provenance line and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.
``--workload all`` runs the three workloads one after another, each in
its own process.  ``--tiny`` shrinks every workload so the whole
benchmark runs in seconds (for the self-tests).  The exit code is 0 only
if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

import floor
from core import WORKLOADS, expectations, result_line


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process (its own peak memory, no state
    carried over); one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {workload}: no result (exit {proc.returncode})")
            return 1
        correct &= line["correct"] and proc.returncode == 0
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{workload}/{k}": v
                        for k, v in line["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        floor.use_checkout_sources()
        import keycache

        keycache.install(os.path.join(floor.STATE_DIR, "keys"))
        backend = floor.resolve_floor()
        events = floor.warm_kernels(backend)
    except floor.FloorError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bad = [e for e in events if "failed" in e["kind"]]
    if bad:
        print(f"perfbench: native kernel build failed: {bad}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.workload == "prove-sha256":
        import prove

        out = prove.run(args.seed, args.seconds, bool(args.trace), backend,
                        tiny=args.tiny)
    else:
        import serve

        out = serve.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), backend, tiny=args.tiny)
    correct = out["failed"] == 0

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"floor={backend} wall={time.perf_counter() - started:.1f}s")
    for metric in out["metrics"]:
        print("  " + metric.render())
    if args.trace:
        for claim, held in expectations(args.workload, out["metrics"]):
            print(f"# expect {claim}: {'holds' if held else 'DOES NOT HOLD'}")
    record = {
        "provenance": floor.provenance(backend, args.seed, args.workload,
                                       {**out["params"],
                                        "trace": args.trace,
                                        "tiny": args.tiny}),
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": [m.__dict__ for m in out["metrics"]],
    }
    print("# provenance " + json.dumps(record["provenance"], default=str))
    _save(args, record)
    print(result_line(out["metrics"], bool(args.trace), correct,
                      out["attempted"], out["failed"]))
    return 0 if correct else 1


def _save(args, record) -> None:
    """Keep the full record (provenance, every metric with its sample
    count) beside the kernel cache."""
    path = os.path.join(
        floor.STATE_DIR, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{'-tiny' if args.tiny else ''}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
