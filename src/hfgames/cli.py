"""Command-line workbench: evaluate formulas, solve games, play the
truth-telling game, and run the verification suites.

Exit codes: 0 success, 1 suite failure or a stdout closed before the
output was written, 2 usage or parse error, 3 resource bound exceeded.
Each setting has one name: a flag.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional

from . import etr, games, logic, suites, truthgames
from .errors import (
    HFGamesError,
    MalformedTranscriptError,
    ParseError,
    ResourceBoundError,
    SignatureError,
)
from .universe import WellFoundedRelation, build_universe

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _at_least(name: str, value: int, least: int) -> int:
    if value < least:
        raise ParseError(f"{name} must be at least {least}, got {value}")
    return value


def _play_cap(cap: int) -> int:
    # Random clopen games draw their depth from 2 .. cap.
    return _at_least("play cap", cap, 2)


# The least --rank each game or suite runs on: V_0 is empty, V_1 = {0}, and
# the recursion cases draw relations of two or more nodes.
_LEAST_RANK = {"choice": 1, "truthtelling": 1, "logic": 1, "truthgames": 2, "etr": 2, "all": 2}


def _parse_pred(spec: str) -> tuple[str, frozenset]:
    name, _, body = spec.partition("=")
    if not name or not body:
        raise ParseError(f"predicate spec must be NAME=tuples, got {spec!r}")
    tuples = set()
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            tuples.add(tuple(int(x) for x in chunk.split(",")))
        except ValueError:
            raise ParseError(f"predicate {name!r} has a non-integer entry in {chunk!r}") from None
    return name, frozenset(tuples)


def _structure(args) -> logic.Structure:
    U = build_universe(args.rank)
    preds = dict(_parse_pred(spec) for spec in (args.pred or []))
    try:
        return logic.Structure(U, preds)
    except SignatureError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    M = _structure(args)
    inst = logic.parse_closed(args.formula, M.signature(), M.universe)
    verdict = logic.eval_instance(M, inst)
    witness: Optional[int] = None
    if verdict and isinstance(inst, logic.Exists):
        witness = logic.skolem_witness(M, inst)
    if args.json:
        print(json.dumps(
            {"formula": logic.to_text(inst), "verdict": verdict, "witness": witness},
            sort_keys=True,
        ))
    else:
        line = "true" if verdict else "false"
        if witness is not None:
            line += f", witness #{witness}"
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _solve_choice(args) -> dict:
    U = build_universe(args.rank)
    G = games.choice_game(U)
    # Refuse before the arena is compiled: it may hold width ** cap plays.
    width, bound = len(G.moves), etr.DEFAULT_NODE_BUDGET
    if width ** G.play_cap > bound:
        raise ResourceBoundError(
            f"choice game over V_{args.rank} has {width}^{G.play_cap} plays,"
            f" over the node budget {bound}"
        )
    winner, strat = games.value_strategy(G)
    _, label_winner, _ = games.label_clopen(G)
    verified = games.verify_strategy(G, strat).ok
    return {
        "game": "choice",
        "rank": args.rank,
        "winner": winner,
        "strategy": games.strategy_doc(strat),
        "cross_check": {
            "label_winner": label_winner,
            "agrees": label_winner == winner,
            "strategy_verified": verified,
        },
    }


def _solve_random_clopen(args) -> dict:
    rng = random.Random(f"solve:{args.seed}")
    max_nodes = _at_least("--max-nodes", args.max_nodes, 1)
    G = games.random_clopen_game(rng, max_nodes=max_nodes, max_cap=_play_cap(args.cap))
    winner, strat = games.value_strategy(G)
    _, label_winner, label_strat = games.label_clopen(G)
    return {
        "game": "random-clopen",
        "seed": args.seed,
        "nodes": games.count_nodes(G),
        "winner": winner,
        "strategy": games.strategy_doc(strat),
        "cross_check": {
            "label_winner": label_winner,
            "agrees": label_winner == winner,
            "strategy_verified": games.verify_strategy(G, strat).ok,
            "label_strategy_verified": games.verify_strategy(G, label_strat).ok,
        },
    }


def _solve_truthtelling(args) -> dict:
    _at_least("--depth", args.depth, 0)
    _at_least("--random-interrogators", args.random_interrogators, 0)
    M = _structure(args)
    game = truthgames.truth_game(M)
    teller = truthgames.honest_teller(game, M)
    search = truthgames.interrogator_search(game, teller, depth=args.depth)
    rng = random.Random(f"truthtelling:{args.seed}")
    random_losses = 0
    for _ in range(args.random_interrogators):
        t = truthgames.play_truth_game(
            game, truthgames.RandomInterrogator(rng, depth=6), teller
        )
        if t.status == truthgames.INTERROGATOR_WINS:
            random_losses += 1
    targets = logic.enumerate_instances(M, 3)
    extracted = truthgames.extract_satisfaction(teller, game, targets)
    return {
        "game": "truthtelling",
        "rank": args.rank,
        "winner": "teller" if search.plan is None and random_losses == 0 else "interrogator",
        "interrogator_search": {
            "depth": args.depth,
            "proven_none": search.proven_none,
            "nodes": search.nodes,
        },
        "random_interrogators": {
            "count": args.random_interrogators,
            "losses": random_losses,
        },
        "extracted_class_size": len(extracted.entries),
        "extracted_targets": len(targets),
    }


def _solve_recursion(args) -> dict:
    M = _structure(args)
    size = min(M.universe.size, 4)
    nodes = list(range(size))
    edges = frozenset((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    rel = WellFoundedRelation(frozenset(nodes), edges)
    rule = etr.RecursionRule.parse("x = #0 | Ej. ((j <| i) & F(j, x))")
    try:
        game = truthgames.recursion_game(M, rel, rule)
    except SignatureError as exc:
        raise ParseError(str(exc)) from None
    solution = etr.etr_solve(M, rel, rule)
    teller = truthgames.honest_teller(game, M, solution=solution)
    extracted = truthgames.extract_solution(teller, game)
    return {
        "game": "recursion",
        "rank": args.rank,
        "relation": {"nodes": nodes, "edges": sorted(map(list, edges))},
        "rule": logic.to_text(rule.formula),
        "winner": "teller",
        "solution": sorted(f"{i} {x}" for i, x in extracted.pairs),
        "round_trip_exact": extracted.pairs == solution.pairs,
        "check_solution": etr.check_solution(M, rel, rule, extracted),
    }


def cmd_solve(args) -> int:
    handlers = {
        "choice": _solve_choice,
        "random-clopen": _solve_random_clopen,
        "truthtelling": _solve_truthtelling,
        "recursion": _solve_recursion,
    }
    doc = handlers[args.game](args)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"game: {doc['game']}")
        print(f"winner: {doc['winner']}")
        for key, value in sorted(doc.items()):
            if key in ("game", "winner"):
                continue
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# play


def cmd_play(args) -> int:
    M = _structure(args)
    mode = truthgames.ORDINAL if args.clock_mode == "ordinal" else truthgames.NATURAL
    game = truthgames.truth_game(M, mode)
    teller = truthgames.honest_teller(game, M)
    if args.replay is not None:
        if args.clock is not None:
            raise ParseError("argument --clock: not allowed with argument --replay")
        try:
            with open(args.replay, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read transcript {args.replay!r}: {exc}") from None
        transcript = truthgames.transcript_from_json(game, text)
        try:
            transcript.status = truthgames.referee(game, transcript)
        except MalformedTranscriptError as exc:
            raise ParseError(f"malformed transcript: {exc}") from None
        print(truthgames.transcript_to_json(game, transcript))
        return EXIT_OK
    clock = 8 if args.clock is None else args.clock
    transcript = _interactive_loop(game, teller, _at_least("--clock", clock, 1))
    print(truthgames.transcript_to_json(game, transcript))
    return EXIT_OK


def _interactive_loop(game, teller, clock: int) -> truthgames.Transcript:
    err = sys.stderr
    state = truthgames.RefereeState(game)
    print(f"You are the interrogator; the clock starts at {clock}.", file=err)
    print("Type a closed formula per turn (empty line or 'quit' to stop).", file=err)
    while len(state.rounds) < clock:
        print(f"clock {clock - len(state.rounds)}> ", end="", file=err, flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line or line == "quit":
            break
        try:
            inquiry = logic.parse_closed(line, game.signature(), game.structure.universe)
        except HFGamesError as exc:
            print(f"  ! {exc}", file=err)
            continue
        violations = state.ask(teller, game.clock(clock - len(state.rounds)), inquiry)
        pron = state.rounds[-1].pronouncement
        reply = "true" if pron.verdict else "false"
        if pron.witness is not None:
            reply += f", witness #{pron.witness}"
        print(f"  teller: {reply}", file=err)
        if violations:
            print(f"  violation! {violations[0]}", file=err)
            break
    if len(state.rounds) == clock and not state.lost:
        state.process_round(truthgames.Round(game.clock(0), None, None))
    transcript = truthgames.Transcript(state.rounds, state.status())
    print(f"status: {transcript.status}", file=err)
    return transcript


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    random_rank = max(args.rank, args.random_rank)
    build_universe(random_rank)  # both ranks within universe.MAX_RANK
    cfg = suites.RunConfig(
        universe_rank=args.rank,
        random_rank=random_rank,
        play_cap=_play_cap(args.cap),
        seed=args.seed,
        node_budget=_at_least("node budget", args.node_budget, 1),
    )
    reports = suites.run_suite(args.suite, cfg)
    if args.json:
        print(json.dumps([r.to_doc() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.to_text())
    if any(r.hit_resource_bound for r in reports):
        return EXIT_RESOURCE
    if any(r.failed for r in reports):
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfgames",
        description="Desk-scale determinacy games, truth predicates, and transfinite recursion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a closed formula over V_rank")
    p_eval.add_argument("formula")
    p_eval.add_argument("--rank", type=int, default=2)
    p_eval.add_argument("--pred", action="append", metavar="NAME=a,b;c,d")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_solve = sub.add_parser("solve", help="solve a built-in game")
    p_solve.set_defaults(fn=cmd_solve)
    games_sub = p_solve.add_subparsers(dest="game", required=True)
    # Each game takes the flags its handler reads, and no other.
    p_choice, p_clopen, p_truth, p_rec = (
        games_sub.add_parser(game) for game in ("choice", "random-clopen", "truthtelling", "recursion")
    )
    for p_game in (p_choice, p_truth, p_rec):
        p_game.add_argument("--rank", type=int, default=3)
    for p_game in (p_clopen, p_truth):
        p_game.add_argument("--seed", type=int, default=1)
    p_clopen.add_argument("--cap", type=int, default=8)
    p_clopen.add_argument("--max-nodes", type=int, default=2000)
    p_truth.add_argument("--depth", type=int, default=2)
    p_truth.add_argument("--random-interrogators", type=int, default=50)
    for p_game in (p_truth, p_rec):
        p_game.add_argument("--pred", action="append")
    for p_game in (p_choice, p_clopen, p_truth, p_rec):
        p_game.add_argument("--json", action="store_true")

    p_play = sub.add_parser("play", help="play the truth-telling game")
    source = p_play.add_mutually_exclusive_group(required=True)
    source.add_argument("--interactive", action="store_true")
    source.add_argument("--replay", metavar="FILE")
    p_play.add_argument("--rank", type=int, default=3)
    p_play.add_argument("--clock", type=int, help="the interactive play's first clock (default 8)")
    p_play.add_argument("--clock-mode", choices=["natural", "ordinal"], default="natural")
    p_play.add_argument("--pred", action="append")
    p_play.set_defaults(fn=cmd_play)

    p_verify = sub.add_parser("verify", help="run a module's property suite")
    p_verify.add_argument(
        "suite", choices=["logic", "games", "truthgames", "etr", "all"]
    )
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--rank", type=int, default=3)
    p_verify.add_argument("--random-rank", type=int, default=4)
    p_verify.add_argument("--cap", type=int, default=8)
    p_verify.add_argument("--node-budget", type=int, default=etr.DEFAULT_NODE_BUDGET)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


# Built once: a parser built per call leaves argparse's allocations behind
# on every run of a long-lived process.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        what = getattr(args, "game", None) or getattr(args, "suite", None)
        if hasattr(args, "rank"):
            _at_least("--rank", args.rank, _LEAST_RANK.get(what, 0))
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull,
        # so the flush at exit is quiet too (the Python docs' SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HFGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
