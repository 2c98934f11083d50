"""scripts/bench_pairs.py's summary of paired runs, on fixture summaries."""

import hashlib
import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "batch_norm_s": {"better": "lower", "bound": 0.25},
    "passed_frac": {"better": "higher", "bound": 0.01},
}


def summary(out, side, workload, pair, batch, passed):
    doc = {
        "workload": workload,
        "seed": 1,
        "correct": True,
        "verify_all_sha256": "d" * 64,
        "metrics": {
            "batch_norm_s": {"value": batch, "unit": "s"},
            "passed_frac": {"value": passed, "unit": "fraction"},
        },
    }
    path = out / side / f"summary-{workload}-seed1-pair{pair}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def test_bench_document(tmp_path):
    # ((parent), (change)) batch_norm_s and passed_frac per pair: the change
    # wins pairs 0 and 1 on time, loses pair 2 and ties pair 3; it wins
    # passed_frac only in pair 2, by being higher, and ties the rest.
    pairs = [
        ((1.0, 1.0), (0.9, 1.0)),
        ((1.0, 1.0), (0.8, 1.0)),
        ((1.0, 0.9), (1.1, 1.0)),
        ((1.0, 1.0), (1.0, 1.0)),
    ]
    for k, ((p_batch, p_passed), (c_batch, c_passed)) in enumerate(pairs):
        summary(tmp_path, "parent", "recursion", k, p_batch, p_passed)
        summary(tmp_path, "change", "recursion", k, c_batch, c_passed)
    # A parent run whose change run is missing does not count.
    summary(tmp_path, "parent", "recursion", 4, 50.0, 0.0)
    summary(tmp_path, "parent", "evaluate", 0, 0.25, 1.0)
    summary(tmp_path, "change", "evaluate", 0, 0.5, 1.0)

    evaluate, recursion = bench_pairs.bench_document(tmp_path, SPEC)

    assert recursion["workload"] == "recursion" and recursion["pairs"] == 4
    batch, passed = recursion["metrics"]["batch_norm_s"], recursion["metrics"]["passed_frac"]
    assert batch["change_wins"] == 2 and batch["better"] == "lower"
    assert passed["change_wins"] == 1 and passed["better"] == "higher"
    assert batch["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert passed["parent"]["median"] == 1.0
    assert recursion["all_correct"] is True
    assert recursion["verify_all_sha256"] == {"parent": ["d" * 64], "change": ["d" * 64]}

    assert evaluate["pairs"] == 1
    assert evaluate["metrics"]["batch_norm_s"]["parent"] == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    assert evaluate["metrics"]["batch_norm_s"]["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert evaluate["metrics"]["batch_norm_s"]["change_wins"] == 0


def verdicts(tmp_path, parent: list, change: list) -> tuple:
    """The verdicts on batch_norm_s and passed_frac of pairs whose parent
    and change runs read the given batch_norm_s, each with passed_frac
    equal to its batch_norm_s."""
    for k, (p, c) in enumerate(zip(parent, change)):
        summary(tmp_path, "parent", "evaluate", k, p, p)
        summary(tmp_path, "change", "evaluate", k, c, c)
    (entry,) = bench_pairs.bench_document(tmp_path, SPEC)
    return entry["metrics"]["batch_norm_s"]["verdict"], entry["metrics"]["passed_frac"]["verdict"]


PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]


def test_verdict_gain(tmp_path):
    # The change wins 9 of 10 pairs by 10 %; the parent's quartiles are
    # 0.98 and 1.02.  passed_frac is higher-is-better: there the same
    # numbers are 10 % worse, past its 1 % bound.
    change = [p * 0.9 for p in PARENT[:9]] + [1.5]
    assert verdicts(tmp_path, PARENT, change) == ("gain", "worse")


def test_verdict_worse(tmp_path):
    # 30 % slower on every pair, past the 25 % bound; passed_frac gains.
    assert verdicts(tmp_path, PARENT, [p * 1.3 for p in PARENT]) == ("worse", "gain")


def test_verdict_within_bound(tmp_path):
    # batch_norm_s: 8 of 10 pairs won by 10 % is no gain, and 20 % slower
    # on every pair is within its 25 % bound.  passed_frac reads the same
    # numbers the other way up: 10 % lower is past its 1 % bound, and 20 %
    # higher on every pair is a gain.
    change = [p * 0.9 for p in PARENT[:8]] + [1.5, 1.5]
    assert verdicts(tmp_path, PARENT, change) == ("within bound", "worse")
    assert verdicts(tmp_path / "slower", PARENT, [p * 1.2 for p in PARENT]) == ("within bound", "gain")


def test_run_pairs_times_verify_all_next_to_each_run(tmp_path, monkeypatch):
    # A stand-in for both subprocesses: perfbench's run writes its summary
    # and prints its metrics line; verify all prints its report, which
    # differs on the third side run.
    calls = []
    reports = iter(["[1]", "[1]", "[2]", "[1]"])

    def fake_run(argv, cwd, **kwargs):
        calls.append((Path(cwd).name, argv[1:3]))
        if argv[1] == "perfbench/run.py":
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            summary_doc = {"workload": "evaluate", "seed": 1}
            (out / "summary-evaluate-seed1.json").write_text(json.dumps(summary_doc))
            line = {"correct": True, "metrics": {"batch_norm_s": {"value": 0.5, "unit": "s"}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")
        assert kwargs["env"]["PYTHONPATH"] == str(Path(cwd) / "src")
        return subprocess.CompletedProcess(argv, 0, stdout=next(reports, ""))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runs = tmp_path / "runs"
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "evaluate", 1, 2, runs)

    # One warm-up run per side, then each run is followed by its verify
    # all, sides alternating by pair; the tier-1 suite runs once per side
    # after the pairs.
    assert [side for side, _ in calls] == ["p", "c", "p", "p", "c", "c", "c", "c", "p", "p", "p", "c"]
    assert [argv for _, argv in calls[2:4]] == [["perfbench/run.py", "--workload"], ["-m", "hfgames.cli"]]
    (entry,) = bench_pairs.bench_document(runs, SPEC)
    assert entry["pairs"] == 2
    assert set(entry["metrics"]) == {"batch_norm_s", "verify_all_s"}
    assert entry["metrics"]["verify_all_s"]["better"] == "lower"
    # Each run's summary keeps its verify all digest; the entry lists each
    # side's distinct ones.  Run order: p, c (pair 0), c, p (pair 1).
    one, two = (hashlib.sha256(text.encode()).hexdigest() for text in ("[1]", "[2]"))
    pair1 = json.loads((runs / "change" / "summary-evaluate-seed1-pair1.json").read_text())
    assert pair1["verify_all_sha256"] == two
    assert entry["verify_all_sha256"] == {"parent": [one], "change": sorted([one, two])}


def test_run_pairs_runs_tier1_once_per_side(tmp_path, monkeypatch):
    # perfbench's run and verify all as above; the tier-1 suite prints its
    # ACCEPTANCE lines among pytest's progress dots.
    tier1_calls = []
    pytest_out = (
        "..ACCEPTANCE 1 [truth extraction]: PASS in 0.1s (30 targets)\n"
        ".ACCEPTANCE 9 [determinism]: PASS in 0.7s\n"
        "3 passed in 1.00s\n"
    )

    def fake_run(argv, cwd, **kwargs):
        if argv[1] == "perfbench/run.py":
            workload = argv[3]
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            summary_doc = {"workload": workload, "seed": 1}
            (out / f"summary-{workload}-seed1.json").write_text(json.dumps(summary_doc))
            line = {"correct": True, "metrics": {"batch_norm_s": {"value": 0.5, "unit": "s"}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")
        if argv[1:3] == ["-m", "pytest"]:
            assert kwargs["env"]["PYTHONPATH"] == str(Path(cwd) / "src")
            tier1_calls.append(Path(cwd).name)
            return subprocess.CompletedProcess(argv, 1 if Path(cwd).name == "c" else 0, stdout=pytest_out)
        return subprocess.CompletedProcess(argv, 0, stdout="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runs = tmp_path / "runs"
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "evaluate", 1, 3, runs)
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "recursion", 1, 2, runs)

    # Once per side per invocation, however many pairs it runs.
    assert tier1_calls == ["p", "c", "p", "c"]
    doc = bench_pairs.tier1_document(runs)
    assert set(doc) == {"parent", "change"}
    assert [(r["workload"], r["exit"]) for r in doc["change"]["runs"]] == [("evaluate", 1), ("recursion", 1)]
    assert doc["parent"]["runs"][0]["acceptance"] == [
        "ACCEPTANCE 1 [truth extraction]: PASS in 0.1s (30 targets)",
        "ACCEPTANCE 9 [determinism]: PASS in 0.7s",
    ]
    assert set(doc["parent"]["wall_s"]) == {"median", "q1", "q3"}
    # The summaries of the pairs do not pick the tier-1 files up.
    evaluate, recursion = bench_pairs.bench_document(runs, SPEC)
    assert (evaluate["pairs"], recursion["pairs"]) == (3, 2)


def test_second_run_adds_pairs_and_tier1_record(tmp_path, monkeypatch):
    # Two calls on one workload and seed into one directory: the second
    # numbers its pairs on from the first's and keeps the first's tier-1
    # record, and ``write`` reads both calls' files.  Each call's two
    # warm-up runs read 9.9, which no median may take up.
    batches = iter([9.9, 9.9, 0.5, 0.6, 0.7, 0.8, 9.9, 9.9, 0.9, 1.0, 1.1, 1.2])

    def fake_run(argv, cwd, **kwargs):
        if argv[1] == "perfbench/run.py":
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            (out / "summary-recursion-seed1.json").write_text(json.dumps({"workload": "recursion", "seed": 1}))
            line = {"correct": True, "metrics": {"batch_norm_s": {"value": next(batches), "unit": "s"}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")
        return subprocess.CompletedProcess(argv, 0, stdout="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runs = tmp_path / "runs"
    for _ in range(2):
        bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "recursion", 1, 2, runs)

    for side in bench_pairs.SIDES:
        names = sorted(p.name for p in (runs / side).iterdir())
        assert names == [f"summary-recursion-seed1-pair{k}.json" for k in range(4)] + [
            "tier1-recursion-seed1-from0.json", "tier1-recursion-seed1-from2.json"]
    bench = tmp_path / "BENCH.json"
    assert bench_pairs.main(["write", "--out", str(runs), "--bench", str(bench)]) == 0
    doc = json.loads(bench.read_text())
    (entry,) = doc["results"]
    assert entry["pairs"] == 4
    # Sides alternate on across the calls: parent, change, change, parent, ...
    assert entry["metrics"]["batch_norm_s"]["parent"]["median"] == statistics.median([0.5, 0.8, 0.9, 1.2])
    assert [len(doc["tier1"][side]["runs"]) for side in bench_pairs.SIDES] == [2, 2]


def test_run_pairs_warms_each_side_up_once_per_call(tmp_path, monkeypatch):
    # Each benchmark run is logged with the summary files ``RUNS`` holds
    # when it starts.
    runs = tmp_path / "runs"
    bench_runs = []

    def fake_run(argv, cwd, **kwargs):
        if argv[1] == "perfbench/run.py":
            bench_runs.append((Path(cwd).name, len(list(runs.glob("*/summary-*.json")))))
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            (out / "summary-evaluate-seed1.json").write_text(json.dumps({"workload": "evaluate", "seed": 1}))
            line = {"correct": True, "metrics": {"batch_norm_s": {"value": 0.5, "unit": "s"}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")
        return subprocess.CompletedProcess(argv, 0, stdout="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "evaluate", 1, 2, runs)
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "evaluate", 1, 1, runs)

    # Per call, each side warms up once before the first pair and the
    # warm-ups write nothing to RUNS; then each pair's runs are recorded.
    assert bench_runs == [
        ("p", 0), ("c", 0), ("p", 0), ("c", 1), ("c", 2), ("p", 3),
        ("p", 4), ("c", 4), ("p", 4), ("c", 5),
    ]
    assert len(list(runs.glob("*/summary-*.json"))) == 6
    (entry,) = bench_pairs.bench_document(runs, SPEC)
    assert entry["pairs"] == 3


def test_tier1_records_count_src_lines(tmp_path, monkeypatch):
    # Two planted trees: the change adds 3 lines to oracles.py and deletes
    # 5 elsewhere, so its net delta is -2, or -5 without oracles.py.
    planted = {
        "p": {"a.py": "x = 1\n" * 10, "oracles.py": "y = 2\n" * 4},
        "c": {"a.py": "x = 1\n" * 5, "oracles.py": "y = 2\n" * 7, "b.txt": "not counted\n"},
    }
    for side, files in planted.items():
        package = tmp_path / side / "src" / "hfgames"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)

    def fake_run(argv, cwd, **kwargs):
        if argv[1] == "perfbench/run.py":
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            (out / "summary-evaluate-seed1.json").write_text(json.dumps({"workload": "evaluate", "seed": 1}))
            line = {"correct": True, "metrics": {"batch_norm_s": {"value": 0.5, "unit": "s"}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")
        return subprocess.CompletedProcess(argv, 0, stdout="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runs = tmp_path / "runs"
    bench_pairs.run_pairs(tmp_path / "p", tmp_path / "c", "evaluate", 1, 1, runs)

    doc = bench_pairs.tier1_document(runs)
    assert doc["parent"]["runs"][0]["src_lines"] == {"total": 14, "oracles": 4}
    assert doc["change"]["runs"][0]["src_lines"] == {"total": 12, "oracles": 7}
    bench = tmp_path / "BENCH.json"
    assert bench_pairs.main(["write", "--out", str(runs), "--bench", str(bench)]) == 0
    assert json.loads(bench.read_text())["src_delta"] == {"total": -2, "without_oracles": -5}
