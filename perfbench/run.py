"""Benchmark for hfgames: clopen games, truth-telling games and recursion.

    python3 perfbench/run.py --workload truth_game --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: ``truth_game``, ``clopen_solve``, ``recursion``, ``evaluate``
(see ``workloads.py`` for what each runs and why).

Every timed batch runs in a fresh interpreter (``worker.py``), one process
at a time with one thread, so module-level caches start cold as they do
for a user's first call.

End-to-end timings are CPU seconds scaled to a nominal host speed.  On a
shared virtual host the speed of the same instructions can drift by up to
2x over seconds to minutes with other tenants' load, so a raw time says
more about the host than about the code.  Each worker times
``calibrate()``, a fixed loop outside ``hfgames``, before every task and
after set-up.  A task's CPU time ``t`` is reported as
``t * CAL_NOMINAL_S / c``, where ``c`` is the mean time of the loop over
the ``CAL_WINDOW`` calibrations on either side of the task: CPU seconds on
a host where the loop takes ``CAL_NOMINAL_S``.
The speed changes within a worker's few seconds, and a window this narrow
follows it where a per-worker mean does not.  Set-up is scaled by the mean
of the calibrations that follow it.  The raw wall and CPU times go to the
summary file.

``--trace 0`` sets the workload up ``SETUP_PROBES`` times, then runs
workers back to back while the next one fits in ``--seconds`` (at least
``MIN_WORKERS``).  Every worker runs the same seeded batch; each task's
latency is its median over the workers and ``batch_norm_s`` is the sum of
those medians.  It reports the end-to-end metrics; ``setup_s`` is the
median over every set-up in the run.

``--trace 1`` runs every workload twice, untraced and traced, and reports
the per-layer metrics from the traced spans, whatever ``--workload``
names, plus each workload's tracing overhead: the difference of the two
workers' scaled batch times, which reads below zero when the overhead is
smaller than the noise.  Span times are raw wall-clock.  It writes the
spans to ``perfbench/out/``.

Outputs are checked against ``reference.py``; a failure is printed with
the seed and task index that replay it through ``worker.py --task``.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("truth_game", "clopen_solve", "recursion", "evaluate")
SETUP_PROBES = 5
MIN_WORKERS = 3
# CPU seconds of one ``calibrate()`` loop at the nominal host speed: about
# its median on a 2.1 GHz Xeon with Python 3.11.7.
CAL_NOMINAL_S = 0.0015
CAL_WINDOW = 3
WORKER_TIMEOUT_S = 150


def _per(span: str, unit: str, counter: str = "") -> tuple:
    """Microseconds in ``span`` per unit of work counted in ``counter``."""
    counter = counter or f"{span}.{unit}s"
    return f"{span}.us_per_{unit}", "us", "lower", ("span", span), ("count", counter)


def _per_call(span: str) -> tuple:
    return f"{span}.us", "us", "lower", ("span", span), ("calls", span)


def _count(name: str) -> tuple:
    return name, "count", "lower", ("count", name), None


# Per-layer metrics: name, unit, better, numerator, denominator.  A span
# numerator is its total time in microseconds.
LAYER_METRICS = [
    _per("universe.topological_order", "node"),
    _per("universe.check_wellfounded", "edge"),
    *(
        _per_call(f"logic.{call}")
        for call in (
            "parse_formula", "to_text", "eval_instance.v4", "skolem_witness.v4",
            "eval_instance.v5", "skolem_witness.v5",
        )
    ),
    _per("logic.build_truth_predicate", "instance"),
    _per("logic.tarski_check", "instance"),
    _count("games.positions.wide"),
    _count("games.positions.deep"),
    *(
        _per(f"games.{solver}.{shape}", "position")
        for solver in (
            "value_strategy", "label_clopen", "winning_region", "verify_strategy", "count_nodes"
        )
        for shape in ("wide", "deep")
    ),
    _count("truthgames.interrogator_search.nodes"),
    _per("truthgames.interrogator_search", "node"),
    _per("truthgames.interrogator_search.faulty", "node"),
    (
        "truthgames.interrogator_search.exhausted_ratio", "ratio", "higher",
        ("count", "truthgames.interrogator_search.exhausted"),
        ("count", "truthgames.interrogator_search.searches"),
    ),
    *(
        (
            f"truthgames.teller.answer_{temp}_us", "us", "lower",
            ("span", f"truthgames.teller.answer_{temp}"), ("count", "truthgames.teller.answers"),
        )
        for temp in ("cold", "warm")
    ),
    _count("truthgames.play_truth_game.rounds"),
    _per("truthgames.play_truth_game", "round"),
    _per("truthgames.referee", "round", "truthgames.play_truth_game.rounds"),
    _per("truthgames.extract_satisfaction", "target"),
    _count("truthgames.extract_solution.probes"),
    _per("truthgames.extract_solution.small", "probe"),
    _per("truthgames.extract_solution.large", "probe"),
    _per("etr.etr_solve", "slice"),
    _per("etr.check_solution", "slice"),
    _per("etr.transitive_closure", "edge"),
    _per("etr.solve_via_transitive_closure", "slice"),
    _count("etr.descending_tree.nodes"),
    *(
        _per(f"etr.{call}", "node")
        for call in (
            "descending_tree", "kleene_brouwer", "solve_via_descending_tree",
            "solve_via_kleene_brouwer",
        )
    ),
    _per("etr.iterated_truth", "stage"),
    *((f"trace.overhead_s.{w}", "s", "lower", None, None) for w in WORKLOADS),
]


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int = 0, setup_only: bool = False, spans=None) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd += ["--t0", repr(perf_counter())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(
            f"worker {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(workload: str, seed: int, results: list[dict]) -> int:
    failed = 0
    for result in results:
        for f in result["failures"]:
            failed += 1
            print(
                f"FAIL workload={workload} seed={seed} task={f['task']} "
                f"kind={f['kind']}: {f['detail']}",
                file=sys.stderr,
            )
    return failed


def _counts_agree(workload: str, results: list[dict]) -> bool:
    first = results[0]["counts"]
    for result in results[1:]:
        other = result["counts"]
        if other != first:
            diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            print(f"COUNTS DIFFER workload={workload}: {diff}", file=sys.stderr)
            return False
    return True


def _scale(cal_s: list[float]) -> float:
    """Factor that turns CPU seconds measured next to ``cal_s`` into CPU
    seconds at the nominal host speed."""
    return CAL_NOMINAL_S / statistics.fmean(cal_s)


def setup_norm_s(result: dict) -> float:
    return result["setup_cpu_s"] * _scale(result["setup_cal_s"])


def task_norm_s(result: dict) -> list[float]:
    cal = result["cal_s"]
    return [
        t * _scale(cal[max(0, k - CAL_WINDOW): k + CAL_WINDOW + 1])
        for k, t in enumerate(result["task_cpu_s"])
    ]


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    started = perf_counter()
    probes = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    workers: list[dict] = []
    last = 0.0
    while len(workers) < MIN_WORKERS or perf_counter() - started + last < seconds:
        began = perf_counter()
        workers.append(spawn(workload, seed))
        last = perf_counter() - began
    setups = [setup_norm_s(r) for r in probes + workers]
    norm = [task_norm_s(w) for w in workers]
    n_tasks = len(norm[0])
    latency_ms = [1000 * statistics.median(w[k] for w in norm) for k in range(n_tasks)]
    attempted = n_tasks * len(workers)
    failed = _failures(workload, seed, workers)
    metrics = {
        "batch_norm_s": (sum(latency_ms) / 1000, "s"),
        "task_norm_ms_p50": (statistics.median(latency_ms), "ms"),
        "task_norm_ms_p90": (statistics.quantiles(latency_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
        "passed_frac": ((attempted - failed) / attempted, "fraction"),
    }
    summary = {
        "workload": workload, "seed": seed, "workers": len(workers), "tasks": n_tasks,
        "setup_samples": len(setups), "failed_frac": failed / attempted,
        "counts": workers[0]["counts"], "task_norm_ms": latency_ms,
        "kinds": workers[0]["kinds"],
        "batch_norm_s_each": [sum(w) for w in norm],
        "batch_cpu_s_each": [sum(w["task_cpu_s"]) for w in workers],
        "batch_wall_s_each": [sum(w["task_s"]) for w in workers],
        "cal_ms_each": [1000 * statistics.fmean(w["cal_s"]) for w in workers],
        "setup_wall_s_each": [r["setup_s"] for r in probes + workers],
    }
    correct = failed == 0 and _counts_agree(workload, workers)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def _layer_value(numerator, denominator, spans: dict, counts: dict) -> float:
    def read(term):
        kind, name = term
        if kind == "span":
            return spans[name]["total_us"]
        if kind == "calls":
            return spans[name]["calls"]
        return counts[name]

    value = read(numerator)
    return value / read(denominator) if denominator is not None else value


def traced(seed: int) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans: dict = {}
    counts: dict = {}
    overhead: dict = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        plain = spawn(workload, seed)
        spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with_spans = spawn(workload, seed, trace=1, spans=spans_file)
        pair = [plain, with_spans]
        attempted += sum(len(r["task_s"]) for r in pair)
        failed += _failures(workload, seed, pair)
        correct = correct and _counts_agree(workload, pair)
        overhead[workload] = sum(task_norm_s(with_spans)) - sum(task_norm_s(plain))
        spans.update(with_spans["spans"])
        counts.update(with_spans["counts"])
    metrics = {}
    for name, unit, _, numerator, denominator in LAYER_METRICS:
        if name.startswith("trace.overhead_s."):
            value = overhead[name.rsplit(".", 1)[1]]
        else:
            value = _layer_value(numerator, denominator, spans, counts)
        metrics[name] = (value, unit)
    summary = {"seed": seed, "spans": spans, "counts": counts, "overhead_s": overhead}
    correct = correct and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hfgames" / "__init__.py").is_file():
        print(f"no hfgames source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # Byte-compile first, as an installed package would be.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        if args.trace:
            result, summary = traced(args.seed)
        else:
            result, summary = untraced(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    tag = "trace" if args.trace else args.workload
    (OUT / f"summary-{tag}-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:52s} {value:14.6g} {unit}")
    if not args.trace:
        print(
            f"samples: {summary['workers']} workers x {summary['tasks']} tasks, "
            f"{summary['setup_samples']} set-ups; failed_frac {summary['failed_frac']:g}; "
            f"raw batch median {statistics.median(summary['batch_cpu_s_each']):.3f} s CPU, "
            f"{statistics.median(summary['batch_wall_s_each']):.3f} s wall"
        )
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
