"""The closed loop that drives a workload, and its end-to-end summary.

One generator thread sends task k (seed ``base + k``) only after task k - 1
has finished and been checked, for as long as another task of the same
length still fits in the phase's time.  A task fails if it raises or if its
gate reports a problem; the loop records the failure and goes on.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class TaskRecord:
    task: int
    seed: int
    seconds: float          # wall time of the program calls only
    cpu_seconds: float      # process CPU time over the same interval
    problems: list = field(default_factory=list)
    result: Optional[dict] = None


@dataclass
class Phase:
    records: list
    wall: float             # first input generated to last gate checked

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)

    def figures(self) -> dict:
        """What end_to_end needs from this phase, in JSON-ready form."""
        return {"task_s": [r.seconds for r in self.records],
                "passed": len(self.records) - self.failed, "wall": self.wall}

    def summary(self) -> dict:
        return end_to_end([self.figures()])


def end_to_end(phases: list) -> dict:
    """End-to-end figures (all but set-up and memory) of timed phases
    given as ``Phase.figures()``, pooled over the phases."""
    times = [t for p in phases for t in p["task_s"]]
    passed = sum(p["passed"] for p in phases)
    return {
        "tasks_per_s": passed / sum(p["wall"] for p in phases),
        "task_s.p50": statistics.median(times),
        "failed_ratio": (len(times) - passed) / len(times),
    }


def run_closed_loop(make_inputs: Callable, run: Callable, check: Callable,
                    base_seed: int, first_task: int, seconds: float,
                    tracer=None, after_task: Optional[Callable] = None,
                    clock: Callable[[], float] = time.perf_counter,
                    cpu_clock: Callable[[], float] = time.process_time) -> Phase:
    """Run tasks first_task, first_task + 1, ... within ``seconds``: the
    next task starts only if one as long as the last still ends in time, so
    long tasks do not overrun the phase.  At least one task runs.
    ``run(make_inputs(seed))`` is the timed part; input generation and the
    gate ``check(result)`` are not."""
    records = []
    start = clock()
    task = first_task
    while True:
        seed = base_seed + task
        if tracer is not None:
            tracer.task = task
        result = None
        t0 = c0 = None
        try:
            inputs = make_inputs(seed)
            t0, c0 = clock(), cpu_clock()
            result = run(inputs)
            t1, c1 = clock(), cpu_clock()
            problems = check(result)
        except Exception as exc:  # a raising task is a failed task; the run goes on
            t1, c1 = clock(), cpu_clock()
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if t0 is None:
            t0, c0 = t1, c1
        records.append(TaskRecord(task, seed, t1 - t0, c1 - c0, problems, result))
        if after_task is not None:
            after_task()
        task += 1
        if clock() - start + (t1 - t0) > seconds:
            break
    return Phase(records, clock() - start)
