"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workloads and metrics are those
declared in BENCHMARK.json.  Every workload runs in fresh worker processes
(perfbench/worker.py), one at a time, and a run takes --seconds in all,
set-up included:

--trace 0  WORKERS workers, one after the other, each with an
           equal share of the time left.  A worker goes from fresh process
           to ready (import, input generation, one warm-up task) and then
           runs the closed loop untraced for the rest of its share.
           setup_s is the median of the ready times; the task metrics pool
           the timed tasks of all workers, which averages out the
           run-to-run differences between processes; peak_rss_mb is the
           median of the workers' peaks.
--trace 1  one worker that, once ready, runs half the time left untraced
           and half traced, and reports the per-layer metrics.

Workers run BLAS on a single thread (SINGLE_THREAD_BLAS).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error.  Every task any worker runs counts in attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.harness import end_to_end  # noqa: E402  (needs ROOT on the path)

# Each worker gives one set-up time; every worker beyond the first costs
# one set-up's worth of timed tasks.
WORKERS = 3
TASK_STRIDE = 1000          # worker i times tasks 1 + i * TASK_STRIDE, ...
RUN_LIMIT_S = 170.0
# Workers run BLAS on one thread.  With the default pool of one thread per
# core, class-sweeps took 1.6 times as long whenever another process kept
# one of the two cores busy; on one thread it took the same time either way.
SINGLE_THREAD_BLAS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def _lines(proc, deadline: float):
    """(line, perf_counter when read) from the worker's stdout until EOF."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode(), time.perf_counter()
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise WorkerError("worker ran past the time limit")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk


def run_worker(args, mode: str, until: float, first_task: int, deadline: float):
    """Start one worker that measures until time.time() reaches ``until``
    and wait for it; (seconds to ready, its report)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--until", repr(until), "--mode", mode,
           "--first-task", str(first_task)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            env={**os.environ, **SINGLE_THREAD_BLAS})
    try:
        lines = _lines(proc, deadline)
        ready = next(lines, None)
        if ready is None or ready[0] != "ready":
            raise WorkerError(f"worker did not get ready (said {ready!r})")
        report = next(lines, None)
        if report is None:
            raise WorkerError("worker ended without a report")
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if rc != 0:
            raise WorkerError(f"worker exited {rc}")
        return ready[1] - start, json.loads(report[0])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "herglotzlab", "__init__.py")):
        print(f"error: no herglotzlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    end = time.time() + args.seconds
    try:
        if args.trace:
            _, report = run_worker(args, "traced", end, 1, deadline)
            reports = [report]
            measured = report["metrics"]
            declared = bench["per_layer"]
        else:
            ready, reports = [], []
            for i in range(WORKERS):
                until = time.time() + (end - time.time()) / (WORKERS - i)
                seconds, report = run_worker(args, "timed", until,
                                             1 + i * TASK_STRIDE, deadline)
                ready.append(seconds)
                reports.append(report)
            measured = end_to_end([r["metrics"]["timed"] for r in reports])
            measured["setup_s"] = statistics.median(ready)
            measured["peak_rss_mb"] = statistics.median(
                r["metrics"]["peak_rss_mb"] for r in reports)
            declared = bench["end_to_end"]
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for problem in (p for r in reports for p in r["problems"]):
        print(f"FAILED {problem}", file=sys.stderr)
    shown = [(m["name"], m["unit"]) for m in declared]
    if not args.trace:
        shown.append(("failed_ratio", "1"))
    for name, unit in shown:
        print(f"{args.workload:>13} {name:<28} {measured[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
