"""Paired benchmark runs of two checkouts, and the BENCH_<n>.json they make.

    python3 scripts/bench_pairs.py run --parent DIR --change DIR \\
        --workload truth_game --seed 1 --pairs 10 --out RUNS
    python3 scripts/bench_pairs.py write --out RUNS --bench BENCH_8.json

``run`` runs ``perfbench/run.py --trace 0`` in each checkout for the run
length ``BENCHMARK.json`` sets, one run at a time, alternating which side
goes first from pair to pair.  Before the first pair each side runs once
untimed and unrecorded: the first run after a source edit, or in a tree
without ``__pycache__``, reads ``peak_rss_mb`` a few MB high.  After each
run it copies that checkout's
``perfbench/out/summary-<workload>-seed<N>.json`` to ``RUNS/<side>/``,
numbered by pair, and adds the run's end-to-end metrics (the last line
``run.py`` prints) under ``"metrics"``: the summary file does not hold
``setup_s`` or ``peak_rss_mb``.  Each run is followed by one timed
``python -m hfgames.cli verify all --seed 1 --json`` in the same checkout,
recorded as the metric ``verify_all_s`` (wall seconds, process start
included) and, under ``"verify_all_sha256"``, the sha256 of what it
prints.  After the pairs, each side runs the tier-1 suite once
(``python -m pytest -q -s --continue-on-collection-errors``), and
``RUNS/<side>/tier1-<workload>-seed<N>-from<k>.json`` records its wall
seconds, exit code and ``ACCEPTANCE n ...`` lines, and the line counts of
its ``src/hfgames/*.py``, in total and of ``oracles.py``.  Pairs are
numbered on from those of the same workload and seed already in ``RUNS``,
and ``k`` is this call's first pair, so a second ``run`` into the same
``--out`` adds to the first one's files.

``write`` reads every such file back and records, per workload, seed and
metric (the end-to-end ones and ``verify_all_s``), each side's median and
quartiles, how many pairs the change won (ties count for neither) and a
verdict (see ``verdict``), the number of pairs and each side's distinct
``verify all`` digests; and,
under ``"tier1"``, each side's tier-1 runs with the median and quartiles
of their wall time; and, under ``"src_delta"``, the change's net ``src/``
line delta, in total and without ``oracles.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import os
import re
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_pairs(parent: Path, change: Path, workload: str, seed: int, pairs: int,
              out: Path) -> None:
    seconds = _spec()["run_seconds"]
    checkouts = {"parent": parent, "change": change}
    for side in SIDES:
        (out / side).mkdir(parents=True, exist_ok=True)
    bench = [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    for side in SIDES:
        subprocess.run(bench, cwd=checkouts[side], capture_output=True, text=True, check=True)
    first = _next_pair(out, workload, seed)
    for k in range(first, first + pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            root = checkouts[side]
            proc = subprocess.run(bench, cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            name = f"summary-{workload}-seed{seed}.json"
            summary = json.loads((root / "perfbench" / "out" / name).read_text())
            summary["metrics"] = result["metrics"]
            digest, wall = _verify_all(root)
            summary["metrics"]["verify_all_s"] = {"value": wall, "unit": "s"}
            summary["verify_all_sha256"] = digest
            summary["correct"] = result["correct"]
            dest = out / side / f"summary-{workload}-seed{seed}-pair{k}.json"
            dest.write_text(json.dumps(summary, indent=1))
            batch = result["metrics"]["batch_norm_s"]["value"]
            print(f"pair {k} {side:6s} {workload} seed {seed}: batch_norm_s {batch:.4f}", flush=True)
    for side in SIDES:
        tier1 = {"workload": workload, "seed": seed, **_tier1(checkouts[side])}
        dest = out / side / f"tier1-{workload}-seed{seed}-from{first}.json"
        dest.write_text(json.dumps(tier1, indent=1))
        print(f"tier-1 {side:6s}: exit {tier1['exit']} in {tier1['wall_s']:.1f} s", flush=True)


def _next_pair(out: Path, workload: str, seed: int) -> int:
    """One past the highest pair of this workload and seed in ``out``."""
    done = [int(p.stem.rpartition("-pair")[2])
            for side in SIDES
            for p in (out / side).glob(f"summary-{workload}-seed{seed}-pair*.json")]
    return max(done, default=-1) + 1


def _timed(root: Path, args: list, **kwargs) -> tuple:
    """Run ``python args`` in ``root`` on its own ``src``: the process and
    its wall seconds."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, **kwargs)
    return proc, time.perf_counter() - start


def _tier1(root: Path) -> dict:
    args = ["-m", "pytest", "-q", "-s", "--continue-on-collection-errors"]
    proc, wall = _timed(root, args, text=True)
    lines = re.findall(r"ACCEPTANCE \d+ .*", proc.stdout)
    return {"wall_s": wall, "exit": proc.returncode, "acceptance": lines, "src_lines": _src_lines(root)}


def _src_lines(root: Path) -> dict:
    """Newlines in ``src/hfgames/*.py`` (as ``wc -l`` counts them), in total
    and in ``oracles.py``."""
    counts = {p.name: p.read_text().count("\n") for p in (root / "src" / "hfgames").glob("*.py")}
    return {"total": sum(counts.values()), "oracles": counts.get("oracles.py", 0)}


def _verify_all(root: Path) -> tuple[str, float]:
    """The sha256 of what ``verify all --seed 1 --json`` prints, and its
    wall seconds."""
    args = ["-m", "hfgames.cli", "verify", "all", "--seed", "1", "--json"]
    proc, wall = _timed(root, args, check=True, text=True)
    return hashlib.sha256(proc.stdout.encode()).hexdigest(), wall


def _spec() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def tier1_document(out: Path) -> dict:
    """Each side's tier-1 runs in ``out`` and the spread of their wall time."""
    doc = {}
    for side in SIDES:
        runs = [json.loads(p.read_text()) for p in sorted((out / side).glob("tier1-*.json"))]
        if runs:
            doc[side] = {"wall_s": _spread([r["wall_s"] for r in runs]), "runs": runs}
    return doc


def src_delta(tier1: dict) -> dict:
    """The change's net ``src/`` line delta against the parent, in total and
    without ``oracles.py``, from each side's last tier-1 run."""
    lines = {side: tier1[side]["runs"][-1]["src_lines"] for side in SIDES}
    total = lines["change"]["total"] - lines["parent"]["total"]
    return {"total": total, "without_oracles": total - (lines["change"]["oracles"] - lines["parent"]["oracles"])}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str, bound) -> str:
    """How a metric moved, from each side's ``_spread`` and the pairs won.

    ``gain``: the change won at least nine tenths of the pairs, and its
    median is better than the parent's by more than the parent's
    interquartile range.  ``worse``: its median is worse than the parent's
    by more than ``bound``, the metric's ``BENCHMARK.json`` bound, read as a
    fraction of the parent's median (0.25 allows 25 %); a metric with no
    bound, such as ``verify_all_s``, is never read as worse.  ``within
    bound``: otherwise.
    """
    ahead = parent["median"] - change["median"]
    if better != "lower":
        ahead = -ahead
    if 10 * wins >= 9 * pairs and ahead > parent["q3"] - parent["q1"]:
        return "gain"
    if bound is not None and -ahead > bound * abs(parent["median"]):
        return "worse"
    return "within bound"


def bench_document(out: Path, spec: dict) -> list:
    """One entry per workload and seed: for each end-to-end metric, both
    sides' median and quartiles over the runs in ``out``, the pairs the
    change won and its ``verdict``, plus the number of pairs and each
    side's distinct ``verify all`` digests.  ``spec`` maps a metric's name
    to its ``BENCHMARK.json`` entry; a metric it lacks is lower-is-better
    with no bound."""
    runs: dict = {}
    for side in SIDES:
        for path in sorted((out / side).glob("summary-*.json")):
            doc = json.loads(path.read_text())
            group = runs.setdefault((doc["workload"], doc["seed"]), {})
            group.setdefault(path.name, {})[side] = doc
    entries = []
    for (workload, seed), by_pair in sorted(runs.items()):
        paired = [p for p in by_pair.values() if len(p) == 2]
        metrics = {}
        for name, first in paired[0]["parent"]["metrics"].items():
            sides = {s: [p[s]["metrics"][name]["value"] for p in paired] for s in SIDES}
            entry = spec.get(name, {})
            better = entry.get("better", "lower")
            sign = -1 if better == "lower" else 1
            wins = sum(1 for a, b in zip(sides["parent"], sides["change"]) if sign * (b - a) > 0)
            parent, change = _spread(sides["parent"]), _spread(sides["change"])
            metrics[name] = {
                "unit": first["unit"],
                "better": better,
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "verdict": verdict(parent, change, wins, len(paired), better, entry.get("bound")),
            }
        entries.append({
            "workload": workload,
            "seed": seed,
            "pairs": len(paired),
            "all_correct": all(p[s]["correct"] for p in paired for s in SIDES),
            "verify_all_sha256": {s: sorted({p[s]["verify_all_sha256"] for p in paired}) for s in SIDES},
            "metrics": metrics,
        })
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--out", type=Path, required=True)
    write = sub.add_parser("write")
    write.add_argument("--out", type=Path, required=True)
    write.add_argument("--bench", type=Path, required=True)
    write.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run_pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.seed,
                  args.pairs, args.out)
        return 0
    spec = {m["name"]: m for m in _spec()["end_to_end"]}
    tier1 = tier1_document(args.out)
    doc = {
        "harness": "perfbench/run.py --trace 0, then one timed verify all --seed 1 --json,"
                   " alternating sides, one run at a time; the tier-1 suite once per side after"
                   " each workload's pairs",
        "note": args.note,
        "results": bench_document(args.out, spec),
        "tier1": tier1,
        "src_delta": src_delta(tier1),
    }
    args.bench.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
