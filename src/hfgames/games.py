"""Finite clopen game trees and their solvers.

Positions are plain tuples of moves; player I moves at even lengths.  A
game's ``decide`` function reports the winner once a position is decided.
It is asked only on positions whose proper prefixes are all undecided:
every caller stops a play at its first decided position, so what
``decide`` returns past a decided position is unspecified.  Every game is
clopen: each play is decided by the cap, and compiling a game with a play
that reaches the cap undecided raises NotClopenError, so every solver
refuses it alike.  A game open for one player, cut at a cap, is a clopen
game whose ``decide`` gives the plays still undecided at the cap to the
other player.  Player I is the open player of the ordinal values.

Every solver runs on an arena: the truncated game tree compiled once, one
breadth-first level at a time, into parallel lists (``_arena``), with one
call of ``decide`` per position.  One player moves at every position of a
level, so the ordinal values are one pass over the levels from the cap
upwards (retrograde analysis, linear in the edges), the winners are read
off the values, and strategies are walks over indices.  No solver recurses
on depth.  A single module-level entry keeps the most recent game's arena,
matched by identity, so solvers called one after another on the same game
share one compile, and a long-lived process holds at most one arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from math import inf
from operator import add
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
    """A finite clopen game of perfect information.

    ``decide`` must decide every play by ``play_cap`` moves, and is asked
    only on positions whose proper prefixes it left undecided.
    """

    moves: tuple
    decide: Callable[[tuple], Optional[str]]
    play_cap: int
    payload: Optional[dict] = None

    def __post_init__(self):
        if not self.moves:
            raise InvariantError("empty move space")
        if self.play_cap < 1:
            raise InvariantError("play cap must be positive")


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
    level.  A game with a play that ends undecided at the cap is refused
    here.  Values and winners are computed on first use and kept with the
    arena.
    """

    __slots__ = ("game", "positions", "first", "decided", "levels", "width", "move_index",
                 "_values", "_wins")

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
                if None in ds:
                    raise _not_clopen(level[ds.index(None)])
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
        self._values: Optional[list] = None
        self._wins: Optional[list] = None

    def find(self, position: tuple) -> int:
        """Index of ``position``, or of the decided leaf it extends."""
        i = 0
        for depth, x in enumerate(position):
            k = self.move_index.get(x)
            if k is None:
                raise InvariantError(f"illegal move {x!r} at {position[:depth]}")
            if self.first[i] >= 0:
                i = self.first[i] + k
        return i

    def values(self) -> list:
        """Ordinal value of every node as an int (finite branching and cap
        keep every value below omega), ``inf`` where unvalued.

        One level at a time from the deepest up: a node decided for player I,
        the open player, is worth 0, one decided for player II ``inf``.  The
        interior nodes of a level own the next level in order, ``width``
        children each: player I's node is worth its least child plus one,
        player II's its greatest child.
        """
        if self._values is None:
            levels, decided, width = self.levels, self.decided, self.width
            leaf = {PLAYER_I: 0, PLAYER_II: inf}
            out: list = [None] * len(decided)
            nxt = repeat(inf).__next__
            for depth in range(len(levels) - 2, -1, -1):
                lo, hi = levels[depth], levels[depth + 1]
                out[lo:hi] = [nxt() if d is None else leaf[d] for d in decided[lo:hi]]
                if depth:
                    children = zip(*[out[lo + k:hi:width] for k in range(width)])
                    if depth % 2:  # player I moves at depth - 1
                        nxt = map(add, map(min, children), repeat(1)).__next__
                    else:
                        nxt = map(max, children).__next__
            self._values = out
        return self._values

    def wins(self) -> list:
        """Winner of every node: player I where the value is below ``inf``,
        player II elsewhere."""
        if self._wins is None:
            players = (PLAYER_II, PLAYER_I)
            self._wins = list(map(players.__getitem__, map(inf.__gt__, self.values())))
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
    """Ordinal value for player I, the open player, or None when unvalued.

    Value 0 at positions decided for player I; player I's moves add one
    above the least valued child; player II's positions are valued only
    when every child is, at the supremum (the maximum, on finite
    branching).
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

    Player I descends in value (least such move); player II stays on
    unvalued positions (least such move).
    """
    A = _arena(G)
    values, width = A.values(), A.width
    winner = PLAYER_I if values[0] < inf else PLAYER_II

    def descend(i: int, f: int) -> Optional[int]:
        for c in range(f, f + width):
            if values[c] < values[i]:
                return c
        return None

    def stay_unvalued(i: int, f: int) -> Optional[int]:
        return values.index(inf, f, f + width) if inf in values[f:f + width] else None

    return winner, _strategy_walk(A, winner, descend if winner == PLAYER_I else stay_unvalued)


def label_clopen(G: Game) -> tuple[dict, str, Strategy]:
    """Backward-induction labeling of the game tree.

    Every reachable node is labeled I or II: a node whose mover can reach a
    node already carrying their label gets that label.  Returns the
    labeling, the root label, and the stay-on-label strategy.
    """
    A = _arena(G)
    wins, width = A.wins(), A.width
    winner = wins[0]
    return dict(zip(A.positions, wins)), winner, _strategy_walk(
        A, winner, lambda i, f: wins.index(winner, f, f + width))


def winning_region(G: Game, node_budget: Optional[int] = None) -> frozenset:
    """Positions from which exhaustive minimax gives player I the win."""
    A = _arena(G, node_budget)
    return frozenset(compress(A.positions, map(PLAYER_I.__eq__, A.wins())))


def verify_strategy(G: Game, s: Strategy) -> VerifyResult:
    """Exhaustively walk every opposing play; verified iff s always wins.

    An illegal move in s raises InvariantError.
    """
    A = _arena(G)
    first, positions, width = A.first, A.positions, A.width
    frontier = [0]
    while frontier:
        i = frontier.pop()
        f = first[i]
        if f < 0:
            if A.decided[i] != s.player:
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
    )


def table_game(
    moves: Iterable,
    decided: Mapping[tuple, str],
    play_cap: int,
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
    After the branching, cap and decide probability, each non-root position
    draws one ``random()``, and each decided position draws its winner by
    ``getrandbits(2)`` until one is below 2, as ``rng.choice`` of the two
    players would.
    ``tests/test_games.py::TestRandomClopenGame::test_stream_pinned`` pins
    both.
    """
    if max_cap < 2:
        raise InvariantError(f"max_cap must be at least 2, got {max_cap}")
    branching = rng.randint(2, max_branching)
    cap = rng.randint(2, max_cap)
    decide_prob = rng.uniform(0.15, 0.45)
    moves = tuple(range(branching))
    rand, bits, players = rng.random, rng.getrandbits, (PLAYER_I, PLAYER_II)
    decided: dict[tuple, str] = {}
    positions: list[tuple] = [()]
    # The loop reads the nodes it appends: breadth-first order.
    for p in positions:
        if (p and rand() < decide_prob) or len(p) == cap or len(positions) + branching > max_nodes:
            r = bits(2)
            while r >= 2:
                r = bits(2)
            decided[p] = players[r]
        else:
            positions.extend([p + (x,) for x in moves])
    if () in decided:
        # Keep the root playable: a decided root makes a degenerate game.
        root_winner = decided.pop(())
        for x in moves:
            decided.setdefault((x,), root_winner)
    return table_game(moves, decided, cap)


def count_nodes(G: Game) -> int:
    """Nodes of the truncated game tree (interior plus decided frontier)."""
    return len(_arena(G).positions)


# ---------------------------------------------------------------------------
# Serialization.


def strategy_doc(s: Strategy) -> dict:
    """The strategy as a JSON document: its player and its sorted table."""
    return {"player": s.player, "table": sorted([list(p), m] for p, m in s.table.items())}
