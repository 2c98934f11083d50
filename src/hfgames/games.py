"""Finite game trees with open/clopen payoffs and their solvers.

Positions are plain tuples of moves; player I moves at even lengths.  A
game's ``decide`` function reports the winner once a position is decided.
It is asked only on positions whose proper prefixes are all undecided:
every caller stops a play at its first decided position, so what
``decide`` returns past a decided position is unspecified.  Plays that
reach the cap undecided count as wins for the closed player.

Every solver runs on an arena: the truncated game tree compiled once,
breadth-first, into parallel lists (``_arena``), with one call of
``decide`` per position.  A parent comes before its children, so values
and winners are one pass over the indices in reverse order (retrograde
analysis, linear in the edges), and strategies are walks over indices.
No solver recurses on depth.  A single module-level entry keeps the most
recent game's arena, matched by identity, so solvers called one after
another on the same game share one compile, and a long-lived process holds
at most one arena.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    IncompleteStrategyError,
    InvariantError,
    NotClopenError,
    ParseError,
    PlayCapError,
    ResourceBoundError,
)
from .universe import Ordinal, Universe, build_universe, member

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
    the designated open player when computing ordinal values.  ``decide``
    is asked only on positions whose proper prefixes it left undecided.
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
        return self._outcome_at_cap(position, self.decide(position))

    def _outcome_at_cap(self, position: tuple, decided: Optional[str]) -> str:
        if decided is not None:
            return decided
        if self.kind == "clopen":
            raise _not_clopen(position)
        return self.closed_player


def _not_clopen(position: tuple) -> NotClopenError:
    return NotClopenError(f"clopen game undecided at full-length position {position}")


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


class _Arena:
    """The truncated tree of one game, breadth-first in parallel lists.

    Node 0 is the root.  ``positions[i]`` is node i's tuple and
    ``decided[i]`` its ``decide`` result.  The children of node i are
    ``first[i]`` .. ``first[i] + width - 1`` in move order; ``first[i]`` is
    -1 at a leaf, which is decided or at the cap.  Values and winners are
    computed on first use and kept with the arena.
    """

    __slots__ = ("game", "positions", "first", "decided", "width", "move_index", "_values", "_wins")

    def __init__(self, G: Game, node_budget: Optional[int]):
        decide, moves, cap = G.decide, G.moves, G.play_cap
        positions: list = [()]
        first: list = []
        decided: list = []
        # The loop reads the nodes it appends: breadth-first order.
        for p in positions:
            d = decide(p)
            decided.append(d)
            if d is None and len(p) < cap:
                first.append(len(positions))
                positions.extend([p + (x,) for x in moves])
                if node_budget is not None and len(positions) > node_budget:
                    raise ResourceBoundError(f"game tree exceeded {node_budget} nodes")
            else:
                first.append(-1)
        self.game = G
        self.positions = positions
        self.first = first
        self.decided = decided
        self.width = len(moves)
        self.move_index = {x: k for k, x in enumerate(moves)}
        self._values: Optional[list] = None
        self._wins: Optional[list] = None

    def find(self, position: tuple) -> int:
        """Index of ``position``, or of the decided leaf it extends."""
        i = 0
        for depth, x in enumerate(position):
            if self.first[i] < 0:
                break
            k = self.move_index.get(x)
            if k is None:
                raise InvariantError(f"illegal move {x!r} at {position[:depth]}")
            i = self.first[i] + k
        return i

    def values(self) -> list:
        """Ordinal value of every node as an int (finite branching and cap
        keep every value below omega), None where unvalued."""
        if self._values is None:
            G, first, positions, width = self.game, self.first, self.positions, self.width
            open_player = G.open_player
            open_parity = 0 if open_player == PLAYER_I else 1
            values: list = [None] * len(positions)
            for i in range(len(positions) - 1, -1, -1):
                f = first[i]
                if f < 0:
                    if self.decided[i] == open_player:
                        values[i] = 0
                    continue
                children = values[f:f + width]
                if len(positions[i]) % 2 == open_parity:
                    valued = [v for v in children if v is not None]
                    if valued:
                        values[i] = min(valued) + 1
                elif None not in children:
                    values[i] = max(children)
            self._values = values
        return self._values

    def wins(self) -> list:
        """Winner of every node by backward induction.

        An undecided leaf of a clopen game holds its own index instead of a
        winner.  A node takes the first child, in move order, that its
        mover wins or that holds an index, so an index reaches a node
        exactly when a depth-first minimax from there would meet that leaf
        before a winning move.
        """
        if self._wins is None:
            first, positions, width = self.first, self.positions, self.width
            wins: list = [None] * len(positions)
            for i in range(len(positions) - 1, -1, -1):
                f = first[i]
                if f < 0:
                    d = self.decided[i]
                    if d is None:
                        d = i if self.game.kind == "clopen" else self.game.closed_player
                    wins[i] = d
                    continue
                mover = PLAYER_II if len(positions[i]) % 2 else PLAYER_I
                w = other_player(mover)
                for c in wins[f:f + width]:
                    if c == mover or type(c) is int:
                        w = c
                        break
                wins[i] = w
            self._wins = wins
        return self._wins


_last_arena: Optional[_Arena] = None


def _arena(G: Game, node_budget: Optional[int] = None) -> _Arena:
    """G's arena, compiled unless G is the game compiled last.

    Only that one arena is kept, so memory stays bounded however many games
    a process solves.  ``node_budget`` raises ResourceBoundError as soon as
    the tree passes it.
    """
    global _last_arena
    if _last_arena is None or _last_arena.game is not G:
        # Drop the old arena first: two never coexist, and a compile cut
        # short by the budget leaves none.
        _last_arena = None
        _last_arena = _Arena(G, node_budget)
    elif node_budget is not None and len(_last_arena.positions) > node_budget:
        raise ResourceBoundError(f"game tree exceeded {node_budget} nodes")
    return _last_arena


def game_value(G: Game, position: tuple = ()) -> Optional[Ordinal]:
    """Ordinal value for the open player, or None when unvalued.

    Value 0 at positions decided for the open player; the open player's
    moves add one above the least valued child; the closed player's
    positions are valued only when every child is, at the supremum (the
    maximum, on finite branching).
    """
    _check_position(G, position)
    A = _arena(G)
    v = A.values()[A.find(position)]
    return None if v is None else Ordinal.from_nat(v)


def value_strategy(G: Game) -> tuple[str, Strategy]:
    """Winner and a winning strategy from the ordinal-value analysis.

    The open player descends in value (least such move); the closed player
    stays on unvalued positions (least such move).
    """
    A = _arena(G)
    values, first, positions, width = A.values(), A.first, A.positions, A.width
    winner = G.open_player if values[0] is not None else G.closed_player
    table: dict = {}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        f = first[i]
        if f < 0:
            continue
        p = positions[i]
        if turn(p) == winner:
            best = None
            if winner == G.open_player:
                for c in range(f, f + width):
                    if values[c] is not None and values[c] < values[i]:
                        best = c
                        break
            elif None in values[f:f + width]:
                best = values.index(None, f, f + width)
            if best is None:
                raise InvariantError(f"no admissible move at {p}; value analysis broken")
            table[p] = G.moves[best - f]
            frontier.append(best)
        else:
            frontier.extend(range(f, f + width))
    return winner, Strategy(winner, table)


def label_clopen(G: Game) -> tuple[dict, str, Strategy]:
    """Backward-induction labeling of a clopen game tree.

    Every reachable node is labeled I or II: a node whose mover can reach a
    node already carrying their label gets that label.  Returns the
    labeling, the root label, and the stay-on-label strategy.
    """
    if G.kind != "clopen":
        raise NotClopenError("labeling applies to clopen games")
    A = _arena(G)
    wins, first, positions, width = A.wins(), A.first, A.positions, A.width
    winner = wins[0]
    if type(winner) is int:
        raise _not_clopen(positions[winner])
    labels = {p: w for p, w in zip(positions, wins) if type(w) is str}
    table: dict = {}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        f = first[i]
        if f < 0:
            continue
        if turn(positions[i]) == winner:
            best = wins.index(winner, f, f + width)
            table[positions[i]] = G.moves[best - f]
            frontier.append(best)
        else:
            frontier.extend(range(f, f + width))
    return labels, winner, Strategy(winner, table)


def winning_region(G: Game, node_budget: Optional[int] = None) -> frozenset:
    """Positions from which exhaustive minimax gives player I the win."""
    A = _arena(G, node_budget)
    wins = A.wins()
    unsettled = [w for w in wins if type(w) is int]
    if unsettled:
        raise _not_clopen(A.positions[unsettled[0]])
    return frozenset(p for p, w in zip(A.positions, wins) if w == PLAYER_I)


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
    """Exhaustively walk every opposing play; verified iff s always wins.

    An illegal move in s raises InvariantError, as in ``play``.
    """
    A = _arena(G)
    first, positions, width = A.first, A.positions, A.width
    frontier = [0]
    while frontier:
        i = frontier.pop()
        f = first[i]
        if f < 0:
            if G._outcome_at_cap(positions[i], A.decided[i]) != s.player:
                return VerifyResult(False, positions[i])
            continue
        p = positions[i]
        if turn(p) == s.player:
            x = s.move_at(p)
            k = A.move_index.get(x)
            if k is None:
                raise InvariantError(f"illegal move {x!r} at {p}")
            frontier.append(f + k)
        else:
            frontier.extend(range(f, f + width))
    return VerifyResult(True)


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

    No entry may extend another, so ``decide`` is one lookup: a position
    whose proper prefixes are undecided is decided iff it is in the table.
    """
    table = dict(decided)
    return Game(
        moves=tuple(moves),
        decide=table.get,
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
    return len(_arena(G).positions)


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
    """Parse a game written by ``game_to_json``.  Any other document raises
    ParseError, a table entry that repeats or extends another included."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"game is not JSON: {exc}") from None
    rule = doc.get("rule") if isinstance(doc, dict) else None
    if rule == "choice" and type(doc.get("rank")) is int:
        return choice_game(build_universe(doc["rank"]))
    if rule != "table":
        raise ParseError('a game needs rule "choice" with an integer rank, or rule "table"')
    moves, cap, entries = doc.get("moves"), doc.get("cap"), doc.get("decided")
    if not (
        isinstance(moves, list)
        and all(type(x) in (int, str) for x in moves)
        and len(set(moves)) == len(moves)
        and type(cap) is int
        and isinstance(entries, list)
    ):
        raise ParseError("a table game needs distinct moves, an integer cap and decided entries")
    legal, pairs = set(moves), []
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], list)
            and all(type(x) in (int, str) and x in legal for x in entry[0])
            and entry[1] in (PLAYER_I, PLAYER_II)
        ):
            raise ParseError(f'decided entry {entry!r} is not [legal moves, "I" or "II"]')
        pairs.append((tuple(entry[0]), entry[1]))
    decided: dict = {}
    for p, w in sorted(pairs, key=lambda pw: len(pw[0])):
        if any(p[:k] in decided for k in range(len(p) + 1)):
            raise ParseError(f"decided position {list(p)} repeats or extends another entry")
        decided[p] = w
    try:
        return table_game(moves, decided, cap, doc.get("kind", "clopen"))
    except InvariantError as exc:
        raise ParseError(str(exc)) from None


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
