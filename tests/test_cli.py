import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hfgames import games, logic, suites
from hfgames.cli import main
from hfgames.logic import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parent.parent / "src"
# sha256 of ``verify all --seed 1 --json``.
JSON_DIGEST = "0f67fd2748fa87b60f4bbc049f3b01e8ba221283e46fb03652c1e462216a8077"


def run_child(argv, env=(), address_limit=None, timeout=60, prelude=""):
    """Run main(argv) in a fresh interpreter, which first caps its own
    address space at ``address_limit`` bytes if given, then runs the
    source ``prelude``."""
    code = "import sys\n"
    if address_limit is not None:
        code += (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_limit}, {address_limit}))\n"
        )
    code += prelude + f"from hfgames.cli import main\nsys.exit(main({list(argv)!r}))\n"
    environ = {**os.environ, "PYTHONPATH": str(SRC), **dict(env)}
    return subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=timeout
    )


def _buggy_label_clopen(G: games.Game):
    """Mutation fixture: demands all children carry the mover's label."""
    labels: dict = {}

    def label(p):
        if p in labels:
            return labels[p]
        d = G.decide(p)
        if d is not None:
            r = d
        else:
            mover = games.turn(p)
            children = [label(p + (x,)) for x in G.moves]
            r = mover if all(c == mover for c in children) else games.other_player(mover)
        labels[p] = r
        return r

    winner = label(())
    return labels, winner, games.Strategy(winner, {})


class TestEval:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "eval", "--rank", "2", "Ex. (x in #1)")
        assert code == 0
        assert out.strip() == "true, witness #0"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "eval", "--rank", "2", "#1 in #0")
        assert code == 0
        assert out.strip() == "false"

    def test_malformed_formula_nonzero_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--rank", "2", "Ex. (x in")
        assert code == 2
        assert "error" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--rank", "2", "--json", "Ex. (x in #1)")
        assert code == 0
        assert json.loads(out) == {
            "formula": "Ex. (x in #1)",
            "verdict": True,
            "witness": 0,
        }

    def test_nested_quantifiers_over_v5(self, capsys):
        started = time.process_time()
        code, out, _ = run(capsys, "eval", "--rank", "5", "Ax. Ey. (x = y)")
        assert code == 0 and out.strip() == "true"
        assert time.process_time() - started < 5

    def test_custom_predicate(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--rank", "2", "--pred", "Z=1", "Z(#1)"
        )
        assert code == 0 and out.strip() == "true"

    def test_non_integer_predicate_entry_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--rank", "2", "--pred", "P=a,b", "P(#0, #1)")
        assert code == 2
        assert "non-integer" in err

    def test_free_variables_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--rank", "2", "x in #1")
        assert code == 2

    @pytest.mark.parametrize("pred", [(), ("--pred", "P=0")], ids=["no-pred", "pred"])
    @pytest.mark.parametrize("formula, name", [("F(#0, #1)", "F"), ("#0 <| #1", "<|")])
    def test_unknown_predicate_usage_error(self, capsys, pred, formula, name):
        code, out, err = run(capsys, "eval", "--rank", "2", *pred, formula)
        assert code == 2 and out == ""
        assert f"unknown predicate symbol {name!r}" in err

    @pytest.mark.parametrize(
        "nested",
        [
            lambda n: "!" * (n - 1) + "(#0 in #1)",
            lambda n: "Ex. " * (n - 1) + "(#0 in #1)",
            lambda n: " & ".join(["(#0 in #1)"] * n),
            lambda n: "(" * n + "#0 in #1" + ")" * n,
        ],
        ids=["not", "exists", "and", "parens"],
    )
    def test_nesting_limit(self, capsys, nested):
        code, out, err = run(capsys, "eval", "--rank", "2", "--json", nested(MAX_NESTING))
        assert code == 0, err
        assert json.loads(out)["verdict"] in (True, False)
        code, out, err = run(capsys, "eval", "--rank", "2", nested(MAX_NESTING + 1))
        assert code == 2 and out == ""
        assert f"nested deeper than {MAX_NESTING} levels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("join", ["->", "<->", "|", "&"])
    def test_deep_formula_usage_error(self, capsys, join):
        text = f" {join} ".join(["(#0 in #1)"] * 3000)
        for formula in (text, "!" * 3000 + "(#0 in #1)"):
            code, out, err = run(capsys, "eval", "--rank", "2", formula)
            assert code == 2 and out == ""
            assert "nested deeper" in err and "Traceback" not in err


def exit_code(argv) -> int:
    """main(argv)'s exit code, argparse's own refusals included."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# Per solve game, the flags its handler does not read: 17 pairs.
UNREAD = {
    "choice": ["--seed", "--cap", "--max-nodes", "--depth", "--random-interrogators", "--pred"],
    "random-clopen": ["--rank", "--depth", "--random-interrogators", "--pred"],
    "truthtelling": ["--cap", "--max-nodes"],
    "recursion": ["--seed", "--cap", "--max-nodes", "--depth", "--random-interrogators"],
}
VALUES = {"--seed": "1", "--cap": "8", "--max-nodes": "5", "--depth": "1",
          "--random-interrogators": "1", "--pred": "Z=0", "--rank": "2"}
# Small runs of each game, which read every flag they are given.
SMALL = {
    "choice": ["--rank", "1"],
    "random-clopen": ["--seed", "2", "--cap", "3", "--max-nodes", "5"],
    "truthtelling": ["--rank", "1", "--seed", "2", "--depth", "0", "--random-interrogators", "0",
                     "--pred", "Z=0"],
    "recursion": ["--rank", "2", "--pred", "Z=0"],
}


class TestFlagsBelongToTheirCommand:
    @pytest.mark.parametrize(
        "game, flag", [(g, f) for g, flags in UNREAD.items() for f in flags], ids=lambda v: v
    )
    def test_flag_a_game_does_not_read_is_refused(self, capsys, game, flag):
        assert exit_code(["solve", game, flag, VALUES[flag]]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_refuses_a_clock(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"rounds": [{"clock": 1, "inquiry": "(#0 in #1)", "verdict": True}]}))
        assert exit_code(["play", "--replay", str(path), "--clock", "3"]) == 2
        assert capsys.readouterr().err == "error: argument --clock: not allowed with argument --replay\n"
        assert exit_code(["play", "--replay", str(path)]) == 0

    @pytest.mark.parametrize("game", sorted(SMALL))
    def test_every_flag_a_game_takes_is_read(self, monkeypatch, capsys, game):
        assert flags_never_read(monkeypatch, ["solve", game, *SMALL[game], "--json"]) == set()
        capsys.readouterr()

    def test_scan_flags_a_parsed_flag_never_read(self, monkeypatch, capsys):
        # A planted handler that reads none of its game's flags; --json is
        # read by the command around it.
        from hfgames import cli

        monkeypatch.setattr(cli, "_solve_random_clopen", lambda args: {"game": "g", "winner": "I"})
        argv = ["solve", "random-clopen", *SMALL["random-clopen"]]
        assert flags_never_read(monkeypatch, argv) == {"seed", "cap", "max_nodes"}
        capsys.readouterr()


class _ReadRecorder:
    """A namespace that records the attributes read off it once ``read``
    is set, so parsing reads nothing into it."""

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "__dict__").get("read")
        if read is not None and not name.startswith("__"):
            read.add(name)
        return object.__getattribute__(self, name)


def flags_never_read(monkeypatch, argv) -> set:
    """The flags argv's command parses that ``main`` never reads."""
    from hfgames import cli

    args = cli._PARSER.parse_args(argv, namespace=_ReadRecorder())
    parsed = set(vars(args)) - {"read", "fn", "command", "game"}
    args.__dict__["read"] = set()
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: args)
    assert cli.main(argv) == 0
    return parsed - args.__dict__["read"]


class TestSolve:
    def test_choice(self, capsys):
        code, out, _ = run(capsys, "solve", "choice", "--rank", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["winner"] == "II"
        assert doc["cross_check"]["agrees"] is True
        assert [[1], 0] in doc["strategy"]["table"]

    def test_choice_rank_four_solves(self, capsys):
        code, out, _ = run(capsys, "solve", "choice", "--rank", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["winner"] == "II" and doc["cross_check"]["strategy_verified"] is True
        assert len(doc["strategy"]["table"]) == 15

    def test_choice_rank_five_refused_in_bounded_memory(self):
        # The arena would hold 65536^2 plays; it is refused before it is
        # compiled.  Never run this without the address-space limit.
        start = time.monotonic()
        proc = run_child(["solve", "choice", "--rank", "5"], address_limit=1 << 30, timeout=5)
        assert time.monotonic() - start < 5
        assert proc.returncode == 3 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "65536^2 plays, over the node budget 100000" in proc.stderr

    def test_random_clopen_deterministic(self, capsys):
        code, out1, _ = run(capsys, "solve", "random-clopen", "--seed", "7", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "solve", "random-clopen", "--seed", "7", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["cross_check"]["agrees"] is True
        assert doc["cross_check"]["strategy_verified"] is True

    def test_truthtelling_honest_teller_wins(self, capsys):
        code, out, _ = run(
            capsys, "solve", "truthtelling", "--rank", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["winner"] == "teller"
        assert doc["interrogator_search"]["proven_none"] is True
        assert doc["random_interrogators"]["losses"] == 0

    def test_random_clopen_cap_below_two_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "random-clopen", "--cap", "1")
        assert code == 2
        assert "play cap" in err

    def test_recursion_round_trip(self, capsys):
        code, out, _ = run(capsys, "solve", "recursion", "--rank", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["round_trip_exact"] is True
        assert doc["check_solution"] is True

    @pytest.mark.parametrize(
        "argv, says",
        [
            (("truthtelling", "--rank", "2", "--depth", "-1"), "--depth must be at least 0, got -1"),
            (
                ("truthtelling", "--rank", "2", "--random-interrogators", "-3"),
                "--random-interrogators must be at least 0, got -3",
            ),
            (("random-clopen", "--max-nodes", "0"), "--max-nodes must be at least 1, got 0"),
            (("random-clopen", "--max-nodes", "-5"), "--max-nodes must be at least 1, got -5"),
        ],
        ids=["depth", "random-interrogators", "max-nodes-0", "max-nodes-negative"],
    )
    def test_negative_search_size_usage_error(self, capsys, argv, says):
        code, out, err = run(capsys, "solve", *argv, "--json")
        assert code == 2 and out == ""
        assert err == f"error: {says}\n"

    @pytest.mark.parametrize(
        "pred, says", [("F=0,1", "F is the teller's predicate"), ("<|=0,1", "<| guards the reads")]
    )
    def test_recursion_structure_fixing_its_predicates_usage_error(self, capsys, pred, says):
        code, out, err = run(capsys, "solve", "recursion", "--rank", "3", "--pred", pred)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {says}") and "Traceback" not in err


class TestPlay:
    def test_replay_reproduces_status(self, capsys, tmp_path, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("(#0 in #1)\nEx. (x in #3)\n")
        )
        code, out, err = run(
            capsys, "play", "--interactive", "--rank", "3", "--clock", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "teller_wins"
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "play", "--replay", str(path), "--rank", "3")
        assert code == 0
        assert json.loads(out2)["status"] == "teller_wins"

    def test_ordinal_session_replayed_as_natural_usage_error(self, capsys, tmp_path, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(#0 in #1)\n"))
        code, out, _ = run(
            capsys, "play", "--interactive", "--rank", "2", "--clock", "3", "--clock-mode", "ordinal"
        )
        assert code == 0 and json.loads(out)["clock_mode"] == "ordinal_countdown"
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, err = run(capsys, "play", "--replay", str(path), "--rank", "2")
        assert code == 2 and out == ""
        assert "'ordinal_countdown'" in err and "'first_move_natural'" in err

    def test_natural_transcript_replayed_as_ordinal_usage_error(self, capsys, tmp_path):
        doc = {
            "clock_mode": "first_move_natural",
            "status": "teller_wins",
            "rounds": [{"clock": 1, "inquiry": "(#0 in #1)", "verdict": True}, {"clock": 0}],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "play", "--replay", str(path), "--rank", "2", "--clock-mode", "ordinal"
        )
        assert code == 2 and out == ""
        assert "'first_move_natural'" in err and "'ordinal_countdown'" in err

    @pytest.mark.parametrize("source", [["--interactive", "--replay", "t.json"], []], ids=["both", "neither"])
    def test_play_takes_one_source(self, capsys, monkeypatch, source):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(#0 in #1)\n"))
        with pytest.raises(SystemExit) as exc:
            main(["play", *source, "--rank", "2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--interactive" in out.err and "--replay" in out.err

    def test_interactive_eof_is_ongoing(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, "play", "--interactive", "--rank", "2", "--clock", "3")
        assert code == 0
        assert json.loads(out)["status"] == "ongoing"

    def test_replay_flags_violation(self, capsys, tmp_path):
        bad = {
            "clock_mode": "first_move_natural",
            "status": "ongoing",
            "rounds": [{"clock": 1, "inquiry": "(#0 in #0)", "verdict": True}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "play", "--replay", str(path), "--rank", "2")
        assert code == 0
        assert json.loads(out)["status"] == "interrogator_wins"


    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps({"clock_mode": "first_move_natural", "status": "ongoing"}),
            json.dumps([1, 2]),
            json.dumps({"rounds": [{"clock": 1, "inquiry": "(#0 in #1)"}]}),
            json.dumps({"rounds": [{"inquiry": "(#0 in #1)", "verdict": True}]}),
            json.dumps({"rounds": [{"clock": 1, "inquiry": "(#0 in #1)", "verdict": "yes"}]}),
            json.dumps({"rounds": [{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": "a"}]}),
            json.dumps({"rounds": [{"clock": 1, "inquiry": "(x in #1)", "verdict": True}]}),
            json.dumps({"rounds": [{"clock": "w+", "inquiry": "(#0 in #1)", "verdict": True}]}),
            json.dumps({"rounds": [
                {"clock": 2, "inquiry": "(#0 in #1)", "verdict": True},
                {"clock": 2, "inquiry": "(#0 in #1)", "verdict": True},
            ]}),
            json.dumps({"rounds": [{"clock": 2}, {"clock": 1, "inquiry": "(#0 in #1)", "verdict": True}]}),
        ],
        ids=[
            "invalid-json", "no-rounds", "not-an-object", "no-verdict", "no-clock",
            "verdict-not-bool", "witness-not-code", "free-variable", "bad-ordinal",
            "clock-not-descending", "round-after-stop",
        ],
    )
    def test_malformed_replay_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        code, out, err = run(capsys, "play", "--replay", str(path), "--rank", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_replay_file_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "play", "--replay", str(tmp_path / "absent.json"))
        assert code == 2 and out == ""
        assert "cannot read transcript" in err

    @pytest.mark.parametrize("clock", ["0", "-3"])
    def test_clock_below_one_usage_error(self, capsys, monkeypatch, clock):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(#0 in #1)\n"))
        code, out, err = run(capsys, "play", "--interactive", "--rank", "2", "--clock", clock)
        assert code == 2 and out == ""
        assert "--clock must be at least 1" in err
        assert "You are the interrogator" not in err

    def test_interactive_play_judged_live(self, capsys, monkeypatch):
        import io

        def no_replay(game, transcript):
            raise AssertionError("the interactive loop replayed its transcript")

        monkeypatch.setattr("hfgames.truthgames.referee", no_replay)
        monkeypatch.setattr("sys.stdin", io.StringIO("(#0 in #1)\n(#1 in #0)\n"))
        code, out, err = run(capsys, "play", "--interactive", "--rank", "2", "--clock", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "teller_wins"
        assert [r["clock"] for r in doc["rounds"]] == [2, 1, 0]


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--seed", "1", "--rank", "3")
        assert code == 0
        assert "FAIL" not in out

    def test_json_bytes_pinned(self, capsys):
        # Refactors must keep this output byte-identical; change the digest
        # only together with a deliberate change to a suite's report.
        code, out, _ = run(capsys, "verify", "all", "--seed", "1", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGEST

    def test_json_bytes_pinned_in_a_fresh_process(self):
        # Terms, formulas and instances hash by identity, so a set of them
        # iterates in memory order; a fresh process with another string
        # hash seed must print the same bytes.
        proc = run_child(["verify", "all", "--seed", "1", "--json"], {"PYTHONHASHSEED": "7"})
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == JSON_DIGEST

    def test_cap_below_two_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "games", "--cap", "1")
        assert code == 2
        assert "play cap" in err

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "frobnicate")
        assert exc.value.code == 2

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "logic", "--seed", "1", "--json")
        code2, out2, _ = run(capsys, "verify", "logic", "--seed", "1", "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_inject_bug_fails_with_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(games, "label_clopen", _buggy_label_clopen)
        code, out, _ = run(capsys, "verify", "games", "--seed", "1")
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_node_budget_resource_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "etr", "--seed", "1", "--node-budget", "10"
        )
        assert code == 3
        assert "resource" in out

    @pytest.mark.parametrize(
        "argv",
        [("etr", "--node-budget", "-1", "--json"), ("etr", "--node-budget", "0")],
        ids=["flag", "flag zero"],
    )
    def test_node_budget_below_one_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--rank", "2")
        assert code == 2 and out == ""
        assert "node budget must be at least 1" in err

    def test_suite_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # Unknown suite names stop at argparse; a KeyError from inside a
        # suite is a fault, not bad input.
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(suites, "run_suite", broken)
        with pytest.raises(KeyError):
            main(["verify", "logic"])


class TestModuleEntry:
    def test_python_dash_m_help(self):
        environ = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "hfgames", "--help"],
            env=environ, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hfgames")


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head -c 50`` may, ends the
    command with exit 1 and nothing on stderr: no traceback.  The read end
    is closed before the child starts, so every write the child makes
    meets a closed pipe."""

    REPLAY = {
        "clock_mode": "first_move_natural",
        "status": "ongoing",
        "rounds": [{"clock": 1, "inquiry": "(#0 in #1)", "verdict": True}],
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "random-clopen", "--max-nodes", "5", "--json"],
            ["verify", "all", "--seed", "1", "--json"],
            ["play", "--replay", "t.json", "--rank", "2"],
        ],
        ids=["solve", "verify", "play"],
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv, tmp_path):
        (tmp_path / "t.json").write_text(json.dumps(self.REPLAY))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hfgames", *argv], stdout=write, stderr=subprocess.PIPE,
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestBoundedMemory:
    def test_main_in_process_leaves_no_parser_behind(self, capsys):
        """Twenty in-process runs of main, after three warm-up runs, leave
        under 1 KiB allocated in argparse: main parses with one parser,
        built once.  A parser built per call left about 13 KiB over the
        twenty runs.  The process-wide total is not bounded here: the
        intern table is bounded, but a resize of its dict can land on any
        run."""
        import gc
        import tracemalloc

        def runs(n):
            for _ in range(n):
                assert run(capsys, "eval", "#0 in #1", "--json")[0] == 0
                gc.collect()

        tracemalloc.start()
        try:
            runs(3)
            before = tracemalloc.take_snapshot()
            runs(20)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            d.size_diff for d in after.compare_to(before, "filename")
            if Path(d.traceback[0].filename).name == "argparse.py"
        )
        assert growth < 1024

    def test_verify_runs_in_process_leave_the_intern_table_as_it_was(self, capsys):
        """Twenty in-process runs of ``verify all`` leave as many live
        entries in the intern table as two warm-up runs left: every node a
        run builds goes with it.  A count, so a resize of the table's dict
        cannot move it."""
        import gc

        def runs(n):
            for _ in range(n):
                assert run(capsys, "verify", "all", "--seed", "1", "--json")[0] == 0
                gc.collect()

        runs(2)
        before = len(logic._interned)
        runs(20)
        assert len(logic._interned) == before

    def test_nodes_alive_at_exit_leave_quietly(self):
        """Nodes still held by another module's globals and by ``builtins``
        die while the interpreter shuts down.  ``sys`` keeps that module and
        ``logic`` alive to the end, so ``logic``'s globals are cleared
        first (modules go in reverse import order) and the chain in
        ``json`` dies after them: the entries' one callback must not read a
        global.  One that read the helper from ``logic``'s globals printed
        "Exception ignored" here."""
        prelude = (
            "import builtins, json\n"
            "from hfgames import logic\n"
            "from hfgames.logic import Const, Member, Not, Var, instance\n"
            "f = Member(Var('x'), Const(7))\n"
            "for _ in range(3000):\n"
            "    f = Not(f)\n"
            "json.kept_formula = f\n"
            "builtins.kept_instances = [instance(f, {'x': 0}), *(Member(Const(c), Var('y')) for c in range(1000))]\n"
            "sys.kept_modules = (json, logic)\n"
            "del f\n"
        )
        child = run_child(["eval", "#0 in #1"], prelude=prelude)
        assert (child.returncode, child.stdout, child.stderr) == (0, "true\n", "")


class TestRankBounds:
    """A rank the command cannot run on is a usage error that names the
    least rank it can."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "Ax. (x = x)"),
            ("solve", "choice"),
            ("solve", "recursion"),
            ("play", "--interactive"),
            ("verify", "games"),
            ("verify", "all"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_negative_rank_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--rank", "-1")
        assert code == 2 and out == ""
        assert "--rank must be at least" in err and "got -1" in err

    @pytest.mark.parametrize(
        "argv, least",
        [
            (("solve", "choice", "--rank", "0"), 1),
            (("solve", "truthtelling", "--rank", "0"), 1),
            (("verify", "logic", "--rank", "0"), 1),
            (("verify", "truthgames", "--rank", "1"), 2),
            (("verify", "etr", "--rank", "1"), 2),
            (("verify", "all", "--rank", "0"), 2),
            (("verify", "all", "--rank", "1"), 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_rank_below_least_usage_error(self, capsys, argv, least):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"--rank must be at least {least}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--rank", "0", "Ax. (x = x)"),
            ("solve", "recursion", "--rank", "0"),
            ("solve", "truthtelling", "--rank", "1", "--random-interrogators", "2"),
            ("verify", "logic", "--rank", "1"),
            ("verify", "games", "--rank", "0"),
            ("verify", "all", "--rank", "2", "--random-rank", "2"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_least_rank_runs(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 0


class TestOutsideTheUniverse:
    """Codes outside V_rank in the input are refused before anything is
    evaluated, and a rank above the ceiling before any universe is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--rank", "1", "#9 = #9"),
            ("eval", "--rank", "1", "--pred", "Z=99", "#0 = #0"),
            ("eval", "--rank", "2", "--pred", "Z=0;0,1", "#0 = #0"),
        ],
        ids=["constant", "pred-tuple", "pred-arities"],
    )
    def test_input_outside_the_universe_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "universe" in err or "arities" in err
        assert "Traceback" not in err

    def test_replay_asking_outside_the_universe_usage_error(self, capsys, tmp_path):
        doc = {"rounds": [{"clock": 1, "inquiry": "(#7 in #9)", "verdict": False}, {"clock": 0}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "play", "--replay", str(path), "--rank", "2")
        assert code == 2 and out == ""
        assert "constant #7 outside the universe" in err

    def test_interactive_line_outside_the_universe_reprompts(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("#7 in #9\n(#0 in #1)\n"))
        code, out, err = run(capsys, "play", "--interactive", "--rank", "2", "--clock", "1")
        assert code == 0
        assert "  ! constant #7 outside the universe" in err
        doc = json.loads(out)
        assert doc["status"] == "teller_wins"
        assert [r.get("inquiry") for r in doc["rounds"]] == ["(#0 in #1)", None]

    def test_interactive_unknown_predicate_reprompts(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("F(#0, #1)\n(#0 in #1)\n"))
        code, out, err = run(capsys, "play", "--interactive", "--rank", "2", "--clock", "1")
        assert code == 0
        assert "  ! unknown predicate symbol 'F'" in err
        doc = json.loads(out)
        assert doc["status"] == "teller_wins"
        assert [r.get("inquiry") for r in doc["rounds"]] == ["(#0 in #1)", None]

    @pytest.mark.parametrize(
        "argv",
        [("--rank", "2", "--random-rank", "6"), ("--rank", "6", "--random-rank", "1")],
        ids=["random-rank", "rank"],
    )
    def test_verify_heeds_max_rank(self, capsys, argv):
        code, out, err = run(capsys, "verify", "all", *argv)
        assert code == 3 and out == ""
        assert "rank 6 exceeds the maximum 5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "Ax. (x = x)"),
            ("solve", "choice"),
            ("solve", "truthtelling"),
            ("solve", "recursion"),
            ("play", "--interactive"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rank_above_the_ceiling_exits_3(self, capsys, argv):
        # V_6 has 2^65536 elements: each command refuses it before building it.
        code, out, err = run(capsys, *argv, "--rank", "6")
        assert code == 3 and out == ""
        assert "rank 6 exceeds the maximum 5" in err
