"""One timed batch of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up (interpreter start, imports, universes, input generation) is timed
as this process's CPU time up to the first task, and as wall time from
``--t0``, the parent's ``time.perf_counter()`` just before it started this
process; Linux's monotonic clock is shared between processes.

Each task is timed in CPU seconds (``time.process_time``) and preceded by
``calibrate()``, a fixed loop that never touches ``hfgames``: its CPU time
tracks the speed of the shared host, which ``run.py`` divides out.
``SETUP_CALIBRATIONS`` more runs of the loop follow set-up.

To replay one task, e.g. a reported failure:

    python3 perfbench/worker.py --workload recursion --seed 3 --task 17
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CALIBRATIONS = 20


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop (tuples, a dict, small sets),
    as a probe of the host's speed at this moment."""
    # A collection here would scan the library's heap: not the host's speed.
    gc.disable()
    started = process_time()
    table: dict = {}
    for i in range(3000):
        key = (i & 63, i >> 4)
        table[key] = table.get(key, 0) + len({i % 7, i % 11, i % 13})
    elapsed = process_time() - started
    gc.enable()
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--task", type=int, default=None, help="run only this task index")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else perf_counter()

    if not (SRC / "hfgames" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hfgames

    if Path(hfgames.__file__).resolve().parent != SRC / "hfgames":
        print(f"imported hfgames from {hfgames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tasks = WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - t0
    setup_cpu_s = process_time()
    setup = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_cal_s": [calibrate() for _ in range(SETUP_CALIBRATIONS)],
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    rec = Recorder(bool(args.trace))
    counts: Counter = Counter()
    times = []
    cpu_times = []
    cal_times = []
    failures = []
    indices = range(len(tasks)) if args.task is None else [args.task]
    for index in indices:
        task = tasks[index]
        rec.task = index
        cal_times.append(calibrate())
        started, started_cpu = perf_counter(), process_time()
        try:
            output = task.run(rec, counts)
            error = None
        except Exception as exc:  # a raising task is a failed task
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - started)
        cpu_times.append(process_time() - started_cpu)
        if error is None:
            try:
                error = task.check(output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"task": index, "kind": task.kind, "detail": error})
    if args.spans:
        rec.dump(args.spans)
    result = {
        **setup,
        "task_s": times,
        "task_cpu_s": cpu_times,
        "cal_s": cal_times,
        "kinds": [tasks[i].kind for i in indices],
        "failures": failures,
        "counts": dict(sorted(counts.items())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": rec.totals(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
