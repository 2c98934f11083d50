"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hfgames.logic import Structure  # noqa: E402
from hfgames.truthgames import honest_teller, interrogator_search, truth_game  # noqa: E402
from hfgames.universe import build_universe  # noqa: E402

import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_SEED = 7
SMALL_TASKS = 12
GUARDED = (
    "truthgames.interrogator_search.nodes",
    "games.positions.wide",
    "games.positions.deep",
    "etr.descending_tree.nodes",
    "truthgames.extract_solution.probes",
    "truthgames.play_truth_game.rounds",
)


def _run_small(name: str) -> tuple[Counter, list]:
    tasks = WORKLOADS[name](SMALL_SEED)[:SMALL_TASKS]
    counts: Counter = Counter()
    errors = []
    for index, task in enumerate(tasks):
        error = task.check(task.run(Recorder(False), counts))
        if error is not None:
            errors.append((index, task.kind, error))
    return counts, errors


def test_full_pool_depth_two_search_node_count():
    V3 = Structure(build_universe(3))
    game = truth_game(V3)
    result = interrogator_search(game, honest_teller(game, V3), depth=2)
    assert result.proven_none
    assert result.nodes == 13_124


def test_small_batches_pass_and_counts_repeat():
    seen = Counter()
    for name in WORKLOADS:
        first, errors = _run_small(name)
        assert errors == []
        second, _ = _run_small(name)
        assert first == second
        seen.update(first)
    for name in GUARDED:
        assert seen[name] > 0, name


def test_self_time_excludes_children():
    rec = Recorder(True)
    rec.call("outer", lambda: rec.call("inner", sum, range(100_000)))
    totals = rec.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert inner["self_us"] == inner["total_us"]
    assert abs(outer["self_us"] - (outer["total_us"] - inner["total_us"])) < 1e-6


def test_times_are_scaled_to_the_nominal_host_speed():
    slow = {
        "task_cpu_s": [0.2, 0.4], "cal_s": [2 * run.CAL_NOMINAL_S] * 3,
        "setup_cpu_s": 0.6, "setup_cal_s": [run.CAL_NOMINAL_S, 3 * run.CAL_NOMINAL_S],
    }
    assert run.task_norm_s(slow) == pytest.approx([0.1, 0.2])
    assert run.setup_norm_s(slow) == pytest.approx(0.3)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in run.LAYER_METRICS
    ]
    plan = json.loads((HERE / "predictions.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for row in plan["per_layer_moves"]:
        assert row["metric"] in layer and row["moves"] in e2e and row["workload"] in run.WORKLOADS
    for row in plan["predictions"]:
        assert row["moves"] in run.WORKLOADS
        assert set(row["unchanged"]) == set(run.WORKLOADS) - {row["moves"]}


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
