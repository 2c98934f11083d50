"""Fuzz gate for the command line: random subcommands and flags taken from
the parser itself, random interactive input and random replay files, run
through ``main`` in process.  Every run returns an exit code of 0-3 or
stops in argparse (code 2, or 0 for --help); no other exception may
escape."""

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfgames import cli
from hfgames.logic import Structure
from hfgames.truthgames import (
    ORDINAL,
    RandomInterrogator,
    honest_teller,
    play_truth_game,
    transcript_to_json,
    truth_game,
)
from hfgames.universe import MAX_RANK, build_universe

PARSER = cli.build_parser()
(SUBCOMMANDS,) = [a.choices for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]

# Options that set the size of the work are always passed, from ranges that
# keep each run short; each range holds -2, 0 and 1, where the bounds sit.
# The ranks also draw one above the ceiling, refused before any universe is
# built.
BOUNDED = {
    "rank": (-2, 2),
    "random_rank": (-2, 3),
    "depth": (-2, 2),
    "random_interrogators": (-2, 5),
    "max_nodes": (-2, 200),
}
# Integer options whose size costs little may take large values.
LARGE = {"seed", "cap", "clock", "node_budget"}
NOT_INTEGERS = ["", "x", "1.5", "2e3", "--"]

FORMULAS = ["Ax. Ey. (x = y)", "#0 in #1", "Ex. (Z(x) -> x = #0)", "Ax. (x in #9)", "x = x", "Ex. Ey."]
LINES = ["#0 = #0", "Ex. (x in #1)", "!(#1 in #1)", "#7 in #9", "Ex. x", "quit", ""]
PREDS = ["Z=0", "Z=0;1", "E=0,1;1,2", "Z", "Z=x", "=1", "Z=", "Z=99"]


def _transcripts() -> list[str]:
    out = []
    rng = random.Random("cli-fuzz:transcripts")
    for rank in (1, 2, 3):
        M = Structure(build_universe(rank))
        for mode in (None, ORDINAL):
            game = truth_game(M, mode) if mode else truth_game(M)
            t = play_truth_game(game, RandomInterrogator(rng, depth=3), honest_teller(game, M))
            out.append(transcript_to_json(game, t))
    return out


TRANSCRIPTS = _transcripts()


@st.composite
def replay_files(draw):
    """("replay", text) for a file to write, or ("replay", None) for a path
    that does not exist."""
    if draw(st.integers(0, 9)) == 0:
        return ("replay", None)
    text = draw(st.sampled_from(TRANSCRIPTS))
    if draw(st.booleans()):
        doc = json.loads(text)
        rounds = doc["rounds"]
        if rounds:
            rnd = rounds[draw(st.integers(0, len(rounds) - 1))]
            key = draw(st.sampled_from(["clock", "inquiry", "verdict", "witness"]))
            rnd[key] = draw(st.sampled_from([-1, 0, 3, 2**70, "w^(w)", "#0 = #0", None, True, [], "w+"]))
        text = json.dumps(doc)
    elif draw(st.booleans()):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.text(max_size=8)) + text[k + draw(st.integers(0, 8)):]
    return ("replay", text)


@st.composite
def integers(draw, dest):
    """One value in twenty is not an integer, one in four is at or below 1,
    and the rest run from 1 up."""
    pick = draw(st.integers(0, 19))
    if pick == 0:
        return draw(st.sampled_from(NOT_INTEGERS))
    lo, hi = BOUNDED.get(dest, (-2, 10**9 if dest in LARGE else 5))
    if pick < 6:
        return str(draw(st.integers(lo, 1)))
    above = [MAX_RANK + 1] if dest in ("rank", "random_rank") else []
    return str(draw(st.sampled_from([hi, *above]) | st.integers(1, min(hi, 10))))


def values(action):
    if action.choices:
        return st.sampled_from([*action.choices, "frobnicate"])
    if action.type is int:
        return integers(action.dest)
    if action.dest == "replay":
        return replay_files()
    return {
        "formula": st.sampled_from(FORMULAS) | st.text(max_size=12),
        "pred": st.sampled_from(PREDS),
    }.get(action.dest, st.text(max_size=8))


@st.composite
def invocations(draw):
    name = draw(st.sampled_from([*SUBCOMMANDS, None]))
    if name is None:
        return draw(st.sampled_from([[], ["--help"], ["frobnicate"]]))
    argv = [name]
    parsers = [SUBCOMMANDS[name]]
    # A nested subcommand (solve's game) brings its own flags: only those
    # its command reads.
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._HelpAction):
                if draw(st.integers(0, 29)) == 0:
                    argv.append(draw(st.sampled_from(action.option_strings)))
            elif isinstance(action, argparse._SubParsersAction):
                argv.append(draw(values(action)))
                if argv[-1] in action.choices:
                    parsers.append(action.choices[argv[-1]])
            elif not action.option_strings:
                argv.append(draw(values(action)))
            elif action.dest in BOUNDED or draw(st.booleans()):
                flag = draw(st.sampled_from(action.option_strings))
                argv += [flag] if action.nargs == 0 else [flag, draw(values(action))]
    return argv


def run_main(argv, stdin_text):
    """``main(argv)`` under the given stdin, restored afterwards; returns
    (exit code, stderr)."""
    saved_stdin = sys.stdin
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "transcript.json")
        for arg in argv:
            if isinstance(arg, tuple) and arg[1] is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(arg[1])
        argv = [path if isinstance(arg, tuple) else arg for arg in argv]
        try:
            sys.stdin = io.StringIO(stdin_text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    assert exc.code == 2 or (exc.code == 0 and {"-h", "--help"} & set(argv)), exc.code
                    code = exc.code
        finally:
            sys.stdin = saved_stdin
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    invocations(),
    st.lists(st.sampled_from(LINES) | st.text(max_size=12), max_size=6).map("\n".join),
)
@example(["solve", "truthtelling", "--rank", "0", "--depth", "1", "--random-interrogators", "1"], "")
@example(["verify", "all", "--rank", "1", "--random-rank", "2"], "")
def test_cli_exits_with_a_documented_code(argv, stdin_text):
    code, err = run_main(argv, stdin_text)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
