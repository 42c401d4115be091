"""One benchmark process: set up one workload, then run it.

Started by run.py as ``python -m perfbench.worker`` from the checkout root.
It writes exactly two lines to its standard output: ``ready`` once set-up
(package import, input generation, one warm-up task) is done, then one JSON
object with the figures of the mode asked for:

timed   run the closed loop until --until with no wrappers installed.
traced  run half the time left untraced, then the other half with a
        wrapper on every entry point in layers.TARGETS; report the
        per-layer metrics and write the spans to
        .perfbench/spans-<workload>-<seed>.jsonl.

--until is a time.time() value; a phase always runs at least one task.

Timed tasks are numbered from --first-task; the warm-up is task 0.
Everything else the program prints goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def thread_count() -> int:
    """OS threads of this process, BLAS pool included."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def import_program() -> float:
    """Import herglotzlab.cli from this checkout's src/; seconds taken."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import herglotzlab.cli
    seconds = time.perf_counter() - t0
    if not os.path.abspath(herglotzlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"herglotzlab imported from {herglotzlab.__file__}, not {src}")
    return seconds


def _problems(phase) -> list:
    return [f"task {r.task} (seed {r.seed}): {p}" for r in phase.records for p in r.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--first-task", type=int, default=1)
    args = parser.parse_args(argv)

    proto, sys.stdout = sys.stdout, sys.stderr
    import_s = import_program()
    from perfbench import harness, layers, spans, workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](tmpdir)
        threads = [thread_count()]
        tracer = spans.Tracer() if args.mode == "traced" else None

        def loop(first_task, seconds, traced):
            with (spans.Installed(tracer, layers.TARGETS) if traced
                  else contextlib.nullcontext()):
                return harness.run_closed_loop(
                    wl.make_inputs, wl.run, wl.check, args.seed, first_task, seconds,
                    tracer=tracer if traced else None,
                    after_task=lambda: threads.append(thread_count()))

        warmup = loop(0, 0.0, tracer is not None)
        print("ready", file=proto, flush=True)
        left = max(0.0, args.until - time.time())
        if args.mode == "timed":
            timed = loop(args.first_task, left, False)
            phases = [warmup, timed]
            out = {"timed": timed.figures()}
        else:
            plain = loop(args.first_task, left / 2, False)
            left = max(0.0, args.until - time.time())
            traced = loop(args.first_task + len(plain.records), left, True)
            phases = [warmup, plain, traced]
            out = layers.per_layer(tracer, traced.records, warmup_task=0)
            out["process.cpu_s"] = (sum(r.cpu_seconds for r in plain.records)
                                    / len(plain.records))
            out["process.trace_overhead"] = (traced.summary()["task_s.p50"]
                                             / plain.summary()["task_s.p50"])
            tracer.write_jsonl(os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        out["import.s"] = import_s
        out["process.threads"] = max(threads)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {
            "attempted": sum(len(p.records) for p in phases),
            "failed": sum(p.failed for p in phases),
            "problems": [msg for p in phases for msg in _problems(p)],
            "metrics": out,
        }
        print(json.dumps(report, allow_nan=False), file=proto, flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
