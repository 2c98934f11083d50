"""Finite game trees with open/clopen payoffs and their solvers.

Positions are plain tuples of moves; player I moves at even lengths.  A
game's ``decide`` function reports the winner once a position is decided.
It is asked only on positions whose proper prefixes are all undecided:
every caller stops a play at its first decided position, so what
``decide`` returns past a decided position is unspecified.  Plays that
reach the cap undecided count as wins for the closed player.

Every solver runs on an arena: the truncated game tree compiled once, one
breadth-first level at a time, into parallel lists (``_arena``), with one
call of ``decide`` per position.  One player moves at every position of a
level, so values and winners are one pass over the levels from the cap
upwards (retrograde analysis, linear in the edges), and strategies are
walks over indices.  No solver recurses on depth.  A single module-level
entry keeps the most recent game's arena, matched by identity, so solvers
called one after another on the same game share one compile, and a
long-lived process holds at most one arena.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, count, repeat
from math import inf
from operator import add, contains
from typing import Callable, Iterable, Iterator, Mapping, Optional

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
    the designated open player when computing ordinal values.  ``decide``
    is asked only on positions whose proper prefixes it left undecided.
    """

    moves: tuple
    decide: Callable[[tuple], Optional[str]]
    play_cap: int
    kind: str = "clopen"
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
    -1 at a leaf, which is decided or at the cap.  Level d, the nodes at
    depth d, is ``levels[d]`` .. ``levels[d + 1] - 1``; the last entry of
    ``levels`` is the node count.  The tree is compiled level by level, and
    solved level by level from the cap upwards with the mover fixed per
    level.  ``unsettled`` records whether a clopen game has a play that
    ends undecided at the cap.  Values and winners are computed on first
    use and kept with the arena.
    """

    __slots__ = ("game", "positions", "first", "decided", "levels", "width", "move_index",
                 "unsettled", "_values", "_wins")

    def __init__(self, G: Game, node_budget: Optional[int]):
        decide, cap, width = G.decide, G.play_cap, len(G.moves)
        suffixes = [(x,) for x in G.moves]
        positions, first, decided, levels, level = [], [], [], [], [()]
        while True:
            levels.append(len(positions))
            positions += level
            ds = list(map(decide, level))
            decided += ds
            if len(level[0]) == cap or None not in ds:
                first += [-1] * len(ds)
                break
            if node_budget is not None and len(positions) + ds.count(None) * width > node_budget:
                raise ResourceBoundError(f"game tree exceeded {node_budget} nodes")
            child = count(len(positions), width).__next__
            first += [child() if d is None else -1 for d in ds]
            level = [p + x for p, d in zip(level, ds) if d is None for x in suffixes]
        levels.append(len(positions))
        self.game = G
        self.positions = positions
        self.first = first
        self.decided = decided
        self.levels = levels
        self.width = width
        self.move_index = {x: k for k, x in enumerate(G.moves)}
        self.unsettled = G.kind == "clopen" and None in ds
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

    def _solve(self, leaf: dict, at_cap: Iterator, combine: Callable) -> list:
        """Every node's result, one level at a time from the deepest up: a
        decided node's is ``leaf[winner]``, an undecided leaf's (at the cap)
        the next of ``at_cap``.  The interior nodes of a level own the next
        level in order, ``width`` children each, and ``combine(mover,
        children)`` maps the tuples of their children's results to theirs.
        """
        levels, decided, width = self.levels, self.decided, self.width
        out: list = [None] * len(decided)
        nxt = at_cap.__next__
        for depth in range(len(levels) - 2, -1, -1):
            lo, hi = levels[depth], levels[depth + 1]
            out[lo:hi] = [nxt() if d is None else leaf[d] for d in decided[lo:hi]]
            if depth:
                mover = PLAYER_I if depth % 2 else PLAYER_II
                nxt = combine(mover, zip(*[out[lo + k:hi:width] for k in range(width)])).__next__
        return out

    def values(self) -> list:
        """Ordinal value of every node as an int (finite branching and cap
        keep every value below omega), ``inf`` where unvalued: so the open
        player's node is its least child plus one and the closed player's
        its greatest child.
        """
        if self._values is None:
            open_player = self.game.open_player

            def combine(mover: str, children: Iterator) -> Iterator:
                if mover == open_player:
                    return map(add, map(min, children), repeat(1))
                return map(max, children)

            leaf = {open_player: 0, self.game.closed_player: inf}
            self._values = self._solve(leaf, repeat(inf), combine)
        return self._values

    def wins(self) -> list:
        """Winner of every node by backward induction.

        A node's mover wins iff some child is theirs, and an undecided leaf
        goes to the closed player.  In an unsettled arena such a leaf holds
        its own index instead of a winner, and a node takes the first
        child, in move order, that its mover wins or that holds an index,
        so an index reaches a node exactly when a depth-first minimax from
        there would meet that leaf before a winning move.
        """
        if self._wins is None:
            if self.unsettled:
                lo, decided = self.levels[-2], self.decided
                at_cap = (i for i in range(lo, len(decided)) if decided[i] is None)

                def combine(mover: str, children: Iterator) -> Iterator:
                    other = other_player(mover)
                    return (next((c for c in cs if c == mover or type(c) is int), other) for cs in children)
            else:
                at_cap = repeat(self.game.closed_player)

                def combine(mover: str, children: Iterator) -> Iterator:
                    has_move = map(contains, children, repeat(mover))
                    return map((other_player(mover), mover).__getitem__, has_move)

            self._wins = self._solve({PLAYER_I: PLAYER_I, PLAYER_II: PLAYER_II}, at_cap, combine)
        return self._wins


_last_arena: Optional[_Arena] = None


def _arena(G: Game, node_budget: Optional[int] = None) -> _Arena:
    """G's arena, compiled unless G is the game compiled last.

    Only that one arena is kept, so memory stays bounded however many games
    a process solves.  ``node_budget`` raises ResourceBoundError before the
    compile builds a level that would take the tree past it.
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
    return None if v == inf else Ordinal.from_nat(v)


def _strategy_walk(A: _Arena, winner: str, pick: Callable[[int, int], Optional[int]]) -> Strategy:
    """The winner's strategy on every node its plays reach: at the winner's
    turn at node i, with children from f, ``pick(i, f)`` names the child to
    move to; at the other player's turn every child is followed."""
    first, positions, width, moves = A.first, A.positions, A.width, A.game.moves
    table: dict = {}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        f = first[i]
        if f < 0:
            continue
        p = positions[i]
        if turn(p) == winner:
            best = pick(i, f)
            if best is None:
                raise InvariantError(f"no admissible move at {p}; value analysis broken")
            table[p] = moves[best - f]
            frontier.append(best)
        else:
            frontier.extend(range(f, f + width))
    return Strategy(winner, table)


def value_strategy(G: Game) -> tuple[str, Strategy]:
    """Winner and a winning strategy from the ordinal-value analysis.

    The open player descends in value (least such move); the closed player
    stays on unvalued positions (least such move).
    """
    A = _arena(G)
    values, width = A.values(), A.width
    winner = G.open_player if values[0] < inf else G.closed_player

    def descend(i: int, f: int) -> Optional[int]:
        for c in range(f, f + width):
            if values[c] < values[i]:
                return c
        return None

    def stay_unvalued(i: int, f: int) -> Optional[int]:
        return values.index(inf, f, f + width) if inf in values[f:f + width] else None

    return winner, _strategy_walk(A, winner, descend if winner == G.open_player else stay_unvalued)


def label_clopen(G: Game) -> tuple[dict, str, Strategy]:
    """Backward-induction labeling of a clopen game tree.

    Every reachable node is labeled I or II: a node whose mover can reach a
    node already carrying their label gets that label.  Returns the
    labeling, the root label, and the stay-on-label strategy.
    """
    if G.kind != "clopen":
        raise NotClopenError("labeling applies to clopen games")
    A = _arena(G)
    wins, positions, width = A.wins(), A.positions, A.width
    winner = wins[0]
    if type(winner) is int:
        raise _not_clopen(positions[winner])
    pairs = zip(positions, wins)
    labels = {p: w for p, w in pairs if type(w) is str} if A.unsettled else dict(pairs)
    return labels, winner, _strategy_walk(A, winner, lambda i, f: wins.index(winner, f, f + width))


def winning_region(G: Game, node_budget: Optional[int] = None) -> frozenset:
    """Positions from which exhaustive minimax gives player I the win."""
    A = _arena(G, node_budget)
    wins = A.wins()
    if A.unsettled:
        raise _not_clopen(A.positions[next(w for w in wins if type(w) is int)])
    return frozenset(compress(A.positions, map(PLAYER_I.__eq__, wins)))


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
        payload={"decided": table},
    )


def random_clopen_game(
    rng,
    max_nodes: int = 2000,
    max_branching: int = 4,
    max_cap: int = 8,
) -> Game:
    """Seeded random clopen game, decided-position table built breadth-first.

    The sequence of ``rng`` calls is part of the contract, not only the
    game: callers draw their next game from the state this one leaves.
    ``tests/test_games.py::TestRandomClopenGame::test_stream_pinned`` pins
    both.
    """
    if max_cap < 2:
        raise InvariantError(f"max_cap must be at least 2, got {max_cap}")
    branching = rng.randint(2, max_branching)
    cap = rng.randint(2, max_cap)
    decide_prob = rng.uniform(0.15, 0.45)
    moves = tuple(range(branching))
    rand, pick, players = rng.random, rng.choice, (PLAYER_I, PLAYER_II)
    decided: dict[tuple, str] = {}
    positions: list[tuple] = [()]
    # The loop reads the nodes it appends: breadth-first order.
    for p in positions:
        if (p and rand() < decide_prob) or len(p) == cap or len(positions) + branching > max_nodes:
            decided[p] = pick(players)
        else:
            positions.extend([p + (x,) for x in moves])
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


def strategy_to_json(s: Strategy) -> str:
    return json.dumps(
        {
            "player": s.player,
            "table": sorted([list(p), m] for p, m in s.table.items()),
        },
        sort_keys=True,
    )
