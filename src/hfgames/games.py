"""Finite game trees with open/clopen payoffs and their solvers.

Positions are plain tuples of moves; player I moves at even lengths.  A
game's ``decide`` function reports the winner once a position is decided,
and decided positions stay decided on every extension.  Plays that reach
the cap undecided count as wins for the closed player.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    IncompleteStrategyError,
    InvariantError,
    NotClopenError,
    PlayCapError,
    ResourceBoundError,
)
from .universe import Ordinal, Universe, member

PLAYER_I = "I"
PLAYER_II = "II"


def other_player(p: str) -> str:
    return PLAYER_II if p == PLAYER_I else PLAYER_I


def turn(position: tuple) -> str:
    return PLAYER_I if len(position) % 2 == 0 else PLAYER_II


@dataclass(frozen=True)
class Game:
    """A finite two-player game of perfect information.

    kind is "clopen", "open_I", or "open_II"; for clopen games player I is
    the designated open player when computing ordinal values.
    """

    moves: tuple
    decide: Callable[[tuple], Optional[str]]
    play_cap: int
    kind: str = "clopen"
    name: Optional[str] = None
    payload: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in ("clopen", "open_I", "open_II"):
            raise InvariantError(f"unknown game kind {self.kind!r}")
        if not self.moves:
            raise InvariantError("empty move space")
        if self.play_cap < 1:
            raise InvariantError("play cap must be positive")

    @property
    def open_player(self) -> str:
        return PLAYER_II if self.kind == "open_II" else PLAYER_I

    @property
    def closed_player(self) -> str:
        return other_player(self.open_player)

    def winner_at_cap(self, position: tuple) -> str:
        """Truncation convention: an undecided full-length play goes to the
        closed player; clopen games may not have one."""
        d = self.decide(position)
        if d is not None:
            return d
        if self.kind == "clopen":
            raise NotClopenError(
                f"clopen game undecided at full-length position {position}"
            )
        return self.closed_player


@dataclass(frozen=True)
class Strategy:
    player: str
    table: Mapping[tuple, object]

    def move_at(self, position: tuple):
        if position not in self.table:
            raise IncompleteStrategyError(
                f"strategy for {self.player} has no move at {position}"
            )
        return self.table[position]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_position(G: Game, position: tuple) -> None:
    if len(position) > G.play_cap:
        raise PlayCapError(f"position of length {len(position)} exceeds cap {G.play_cap}")


def game_value(G: Game, position: tuple = (), _memo: Optional[dict] = None) -> Optional[Ordinal]:
    """Ordinal value for the open player, or None when unvalued.

    Value 0 at positions decided for the open player; the open player's
    moves add one above the least valued child; the closed player's
    positions are valued only when every child is, at the supremum (the
    maximum, on finite branching).
    """
    _check_position(G, position)
    memo = _memo if _memo is not None else {}

    def value(p: tuple) -> Optional[Ordinal]:
        if p in memo:
            return memo[p]
        d = G.decide(p)
        if d == G.open_player:
            result: Optional[Ordinal] = Ordinal.zero()
        elif d is not None or len(p) == G.play_cap:
            result = None
        else:
            child_values = [value(p + (x,)) for x in G.moves]
            if turn(p) == G.open_player:
                valued = [v for v in child_values if v is not None]
                result = min(valued).succ() if valued else None
            else:
                if any(v is None for v in child_values):
                    result = None
                else:
                    result = max(child_values)
        memo[p] = result
        return result

    return value(position)


def value_strategy(G: Game) -> tuple[str, Strategy]:
    """Winner and a winning strategy from the ordinal-value analysis.

    The open player descends in value (least such move); the closed player
    stays on unvalued positions (least such move).
    """
    memo: dict = {}
    root = game_value(G, (), _memo=memo)

    def value(p):
        if p not in memo:
            game_value(G, p, _memo=memo)
        return memo[p]

    if root is not None:
        winner = G.open_player
    else:
        winner = G.closed_player
    table: dict = {}
    frontier = [()]
    seen = set()
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        if G.decide(p) is not None or len(p) >= G.play_cap:
            continue
        if turn(p) == winner:
            if winner == G.open_player:
                v = value(p)
                best = None
                for x in G.moves:
                    cv = value(p + (x,))
                    if cv is not None and cv < v:
                        best = x
                        break
            else:
                best = None
                for x in G.moves:
                    if value(p + (x,)) is None:
                        best = x
                        break
            if best is None:
                raise InvariantError(f"no admissible move at {p}; value analysis broken")
            table[p] = best
            frontier.append(p + (best,))
        else:
            frontier.extend(p + (x,) for x in G.moves)
    return winner, Strategy(winner, table)


def _minimax(
    G: Game, memo: dict, node_budget: Optional[int] = None
) -> Callable[[tuple], str]:
    """Memoized backward induction: the returned function gives the winner
    at a position, filling ``memo``.  A mover who can reach a child won by
    them wins; undecided full-length plays go by ``G.winner_at_cap``."""
    count = 0

    def win(p: tuple) -> str:
        nonlocal count
        if p in memo:
            return memo[p]
        count += 1
        if node_budget is not None and count > node_budget:
            raise ResourceBoundError(f"winning_region exceeded {node_budget} nodes")
        d = G.decide(p)
        if d is not None:
            result = d
        elif len(p) == G.play_cap:
            result = G.winner_at_cap(p)
        else:
            mover = turn(p)
            result = other_player(mover)
            for x in G.moves:
                if win(p + (x,)) == mover:
                    result = mover
                    break
        memo[p] = result
        return result

    return win


def label_clopen(G: Game) -> tuple[dict, str, Strategy]:
    """Backward-induction labeling of a clopen game tree.

    Every reachable node is labeled I or II: a node whose mover can reach a
    node already carrying their label gets that label.  Returns the
    labeling, the root label, and the stay-on-label strategy.
    """
    if G.kind != "clopen":
        raise NotClopenError("labeling applies to clopen games")
    labels: dict = {}
    label = _minimax(G, labels)
    winner = label(())
    table: dict = {}
    frontier = [()]
    while frontier:
        p = frontier.pop()
        if G.decide(p) is not None or len(p) >= G.play_cap:
            continue
        if turn(p) == winner:
            best = None
            for x in G.moves:
                if label(p + (x,)) == winner:
                    best = x
                    break
            table[p] = best
            frontier.append(p + (best,))
        else:
            frontier.extend(p + (x,) for x in G.moves)
    return labels, winner, Strategy(winner, table)


def winning_region(G: Game, node_budget: Optional[int] = None) -> frozenset:
    """Positions from which exhaustive minimax gives player I the win."""
    wins: dict = {}
    minimax = _minimax(G, wins, node_budget)
    minimax(())
    # Force evaluation of the full truncated tree so the region is total.
    frontier = [()]
    while frontier:
        p = frontier.pop()
        if G.decide(p) is None and len(p) < G.play_cap:
            for x in G.moves:
                minimax(p + (x,))
                frontier.append(p + (x,))
    return frozenset(p for p, w in wins.items() if w == PLAYER_I)


def play(G: Game, strategy_I: Strategy, strategy_II: Strategy) -> tuple[str, tuple]:
    """Run both strategies to a decision (or the cap); returns winner and
    the transcript position."""
    if strategy_I.player != PLAYER_I or strategy_II.player != PLAYER_II:
        raise InvariantError("play expects a strategy for each player in order")
    p: tuple = ()
    while True:
        d = G.decide(p)
        if d is not None:
            return d, p
        if len(p) == G.play_cap:
            return G.winner_at_cap(p), p
        mover = strategy_I if turn(p) == PLAYER_I else strategy_II
        x = mover.move_at(p)
        if x not in G.moves:
            raise InvariantError(f"illegal move {x!r} at {p}")
        p = p + (x,)


def verify_strategy(G: Game, s: Strategy) -> VerifyResult:
    """Exhaustively walk every opposing play; verified iff s always wins."""
    frontier: list[tuple] = [()]
    while frontier:
        p = frontier.pop()
        d = G.decide(p)
        if d is not None:
            if d != s.player:
                return VerifyResult(False, p)
            continue
        if len(p) == G.play_cap:
            if G.winner_at_cap(p) != s.player:
                return VerifyResult(False, p)
            continue
        if turn(p) == s.player:
            frontier.append(p + (s.move_at(p),))
        else:
            frontier.extend(p + (x,) for x in G.moves)
    return VerifyResult(True)


def validate_prefix_monotone(G: Game, rng, samples: int = 200) -> Optional[tuple]:
    """Sample plays looking for a decided position that flips on extension;
    returns a witness position pair or None."""
    for _ in range(samples):
        p: tuple = ()
        decided_as: Optional[str] = None
        decided_at: Optional[tuple] = None
        while len(p) < G.play_cap:
            d = G.decide(p)
            if decided_as is not None and d != decided_as:
                return (decided_at, p)
            if decided_as is None and d is not None:
                decided_as, decided_at = d, p
            p = p + (rng.choice(G.moves),)
    return None


# ---------------------------------------------------------------------------
# Built-in games.


def choice_game(universe: Universe) -> Game:
    """Player I names a nonempty set, player II answers with an element.

    Two moves, then decided: II wins iff her answer is a member of I's set;
    naming the empty set loses immediately for I.  A winning strategy for II
    is exactly a choice function on the universe.
    """
    if universe.size < 1:
        raise InvariantError("choice game needs a nonempty universe")

    def decide(p: tuple) -> Optional[str]:
        if not p:
            return None
        if p[0] == 0:
            return PLAYER_II
        if len(p) == 1:
            return None
        return PLAYER_II if member(p[1], p[0]) else PLAYER_I

    return Game(
        moves=tuple(universe.elements),
        decide=decide,
        play_cap=2,
        kind="clopen",
        name="choice",
        payload={"rank": universe.rank},
    )


def table_game(
    moves: Iterable,
    decided: Mapping[tuple, str],
    play_cap: int,
    kind: str = "clopen",
) -> Game:
    """Game given by an explicit table of earliest decided positions.

    The shortest decided prefix of a position fixes its winner, which makes
    ``decide`` prefix-monotone by construction.
    """
    table = dict(decided)

    def decide(p: tuple) -> Optional[str]:
        for k in range(len(p) + 1):
            if p[:k] in table:
                return table[p[:k]]
        return None

    return Game(
        moves=tuple(moves),
        decide=decide,
        play_cap=play_cap,
        kind=kind,
        name="table",
        payload={"decided": table},
    )


def random_clopen_game(
    rng,
    max_nodes: int = 2000,
    max_branching: int = 4,
    max_cap: int = 8,
) -> Game:
    """Seeded random clopen game, decided-position table built breadth-first."""
    if max_cap < 2:
        raise InvariantError(f"max_cap must be at least 2, got {max_cap}")
    branching = rng.randint(2, max_branching)
    cap = rng.randint(2, max_cap)
    decide_prob = rng.uniform(0.15, 0.45)
    moves = tuple(range(branching))
    decided: dict[tuple, str] = {}
    frontier: list[tuple] = [()]
    nodes = 1
    while frontier:
        p = frontier.pop(0)
        if p and rng.random() < decide_prob:
            decided[p] = rng.choice((PLAYER_I, PLAYER_II))
            continue
        if len(p) == cap:
            decided[p] = rng.choice((PLAYER_I, PLAYER_II))
            continue
        children = [p + (x,) for x in moves]
        if nodes + len(children) > max_nodes:
            decided[p] = rng.choice((PLAYER_I, PLAYER_II))
            continue
        nodes += len(children)
        frontier.extend(children)
    if () in decided:
        # Keep the root playable: a decided root makes a degenerate game.
        root_winner = decided.pop(())
        for x in moves:
            decided.setdefault((x,), root_winner)
    return table_game(moves, decided, cap, kind="clopen")


def count_nodes(G: Game) -> int:
    """Nodes of the truncated game tree (interior plus decided frontier)."""
    total = 0
    frontier = [()]
    while frontier:
        p = frontier.pop()
        total += 1
        if G.decide(p) is None and len(p) < G.play_cap:
            frontier.extend(p + (x,) for x in G.moves)
    return total


# ---------------------------------------------------------------------------
# Serialization.


def _positions_of_table(G: Game) -> dict:
    if G.payload is None or "decided" not in G.payload:
        raise InvariantError("only table games and named built-ins serialize")
    return G.payload["decided"]


def game_to_json(G: Game) -> str:
    if G.name == "choice":
        doc = {"rule": "choice", "rank": G.payload["rank"]}
    elif G.name == "table":
        doc = {
            "rule": "table",
            "kind": G.kind,
            "moves": list(G.moves),
            "cap": G.play_cap,
            "decided": sorted(
                ([list(p), w] for p, w in _positions_of_table(G).items()),
            ),
        }
    else:
        raise InvariantError(f"game {G.name!r} has no serial form")
    return json.dumps(doc, sort_keys=True)


def game_from_json(text: str) -> Game:
    doc = json.loads(text)
    rule = doc.get("rule")
    if rule == "choice":
        from .universe import build_universe

        return choice_game(build_universe(doc["rank"]))
    if rule == "table":
        decided = {tuple(p): w for p, w in doc["decided"]}
        return table_game(doc["moves"], decided, doc["cap"], doc.get("kind", "clopen"))
    raise InvariantError(f"unknown game rule {rule!r}")


def transcript_to_json(winner: str, position: tuple) -> str:
    return json.dumps({"moves": list(position), "winner": winner}, sort_keys=True)


def strategy_to_json(s: Strategy) -> str:
    return json.dumps(
        {
            "player": s.player,
            "table": sorted([list(p), m] for p, m in s.table.items()),
        },
        sort_keys=True,
    )
