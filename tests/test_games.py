import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames import games, suites
from hfgames.errors import (
    IncompleteStrategyError,
    InvariantError,
    NotClopenError,
    PlayCapError,
    ResourceBoundError,
)
from hfgames.games import (
    PLAYER_I,
    PLAYER_II,
    Game,
    Strategy,
    choice_game,
    count_nodes,
    game_value,
    label_clopen,
    other_player,
    play,
    random_clopen_game,
    strategy_to_json,
    table_game,
    turn,
    value_strategy,
    verify_strategy,
    winning_region,
)
from hfgames.universe import Ordinal, build_universe, member, ordinal_compare

from hfgames.oracles import (
    clopen_distance_dp,
    enumerate_positions,
    first_unsettled_leaf,
    minimax_winner_dp,
)

V3 = build_universe(3)


def simple_game(decided, cap=4, moves=(0, 1), kind="clopen"):
    return table_game(moves, decided, cap, kind)


def table_game_json(g) -> str:
    """A table game as one JSON document: its kind, moves, cap and sorted
    decided entries, each ``[position, winner]``."""
    doc = {
        "rule": "table",
        "kind": g.kind,
        "moves": list(g.moves),
        "cap": g.play_cap,
        "decided": sorted([list(p), w] for p, w in g.payload["decided"].items()),
    }
    return json.dumps(doc, sort_keys=True)


class TestGameValue:
    def test_decided_for_open_is_zero(self):
        g = simple_game({(): PLAYER_I})
        assert game_value(g) == Ordinal.from_nat(0)

    def test_one_move_to_win_is_one(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II})
        assert game_value(g) == Ordinal.from_nat(1)

    def test_value_matches_distance_dp(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_clopen_game(rng, max_nodes=600)
            dist = clopen_distance_dp(g)
            for p in enumerate_positions(g):
                v = game_value(g, p)
                d = dist[p]
                if d is None:
                    assert v is None, p
                else:
                    assert v is not None and v.to_int() == d, p

    def test_cap_exceeded(self):
        g = simple_game({(): PLAYER_I}, cap=2)
        with pytest.raises(PlayCapError):
            game_value(g, (0, 1, 0))


class TestValueStrategy:
    def test_root_decided_for_open(self):
        g = simple_game({(): PLAYER_I})
        winner, s = value_strategy(g)
        assert winner == PLAYER_I and s.table == {}

    def test_choice_game_over_v2(self):
        U = build_universe(2)
        winner, s = value_strategy(choice_game(U))
        assert winner == PLAYER_II
        assert s.table == {(1,): 0}

    def test_random_games_strategy_verified(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_clopen_game(rng, max_nodes=500)
            winner, s = value_strategy(g)
            assert verify_strategy(g, s).ok, table_game_json(g)

    def test_value_decreases_along_strategy(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=400)
            current = game_value(g)
            if current is None:
                continue
            winner, s = value_strategy(g)
            p = ()
            while g.decide(p) is None and len(p) < g.play_cap:
                if turn(p) == g.open_player:
                    p = p + (s.table[p],)
                else:
                    p = p + (rng.choice(g.moves),)
                nxt = game_value(g, p)
                assert nxt is not None
                assert ordinal_compare(nxt, current) <= 0
                if turn(p) == g.closed_player:  # open player just moved
                    assert ordinal_compare(nxt, current) < 0
                current = nxt
            assert g.decide(p) == g.open_player or current == Ordinal.from_nat(0)

    def test_closed_player_soundness(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=400)
            for p in enumerate_positions(g):
                if g.decide(p) is not None or len(p) >= g.play_cap:
                    continue
                v = game_value(g, p)
                if v is not None:
                    continue
                children = [game_value(g, p + (x,)) for x in g.moves]
                if turn(p) == g.closed_player:
                    assert any(c is None for c in children)
                else:
                    assert all(c is None for c in children)


class TestLabeling:
    def test_all_first_moves_decided_for_II(self):
        g = simple_game({(0,): PLAYER_II, (1,): PLAYER_II})
        labels, winner, s = label_clopen(g)
        assert winner == PLAYER_II
        assert labels[()] == PLAYER_II

    def test_reachable_I_leaf(self):
        g = simple_game(
            {(0, 0): PLAYER_I, (0, 1): PLAYER_I, (1, 0): PLAYER_II, (1, 1): PLAYER_II}
        )
        labels, winner, s = label_clopen(g)
        assert winner == PLAYER_I
        assert s.table[()] == 0

    def test_agreement_with_value_strategy(self):
        rng = random.Random(41)
        for _ in range(100):
            g = random_clopen_game(rng, max_nodes=500)
            w_value, _ = value_strategy(g)
            _, w_label, s = label_clopen(g)
            assert w_value == w_label
            assert verify_strategy(g, s).ok

    def test_not_clopen_rejected(self):
        g = Game(moves=(0,), decide=lambda p: None, play_cap=2, kind="clopen")
        with pytest.raises(NotClopenError):
            label_clopen(g)
        g2 = simple_game({(): PLAYER_I}, kind="open_I")
        with pytest.raises(NotClopenError):
            label_clopen(g2)


class TestWinningRegion:
    def test_decided_positions_in_region(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II})
        region = winning_region(g)
        assert (0,) in region
        assert (1,) not in region

    def test_choice_root_outside_region(self):
        g = choice_game(V3)
        assert () not in winning_region(g)

    def test_region_matches_minimax_and_avoidance(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=400)
            region = winning_region(g)
            oracle = minimax_winner_dp(g)
            assert region == frozenset(
                p for p, w in oracle.items() if w == PLAYER_I
            )
            for p in oracle:
                if p in region or g.decide(p) is not None or len(p) >= g.play_cap:
                    continue
                children = [p + (x,) for x in g.moves]
                if turn(p) == PLAYER_II:
                    assert any(c not in region for c in children)
                else:
                    assert all(c not in region for c in children)


class TestPlay:
    def test_root_decided(self):
        g = simple_game({(): PLAYER_II})
        w, pos = play(g, Strategy(PLAYER_I, {}), Strategy(PLAYER_II, {}))
        assert w == PLAYER_II and pos == ()

    def test_value_strategy_beats_random_tables(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=300)
            winner, s = value_strategy(g)
            opponent = other_player(winner)
            table = {
                p: rng.choice(g.moves)
                for p in enumerate_positions(g)
                if g.decide(p) is None and len(p) < g.play_cap and turn(p) == opponent
            }
            opp = Strategy(opponent, table)
            if winner == PLAYER_I:
                got, _ = play(g, s, opp)
            else:
                got, _ = play(g, opp, s)
            assert got == winner

    def test_choice_game_paper_play(self):
        g = choice_game(build_universe(2))
        sI = Strategy(PLAYER_I, {(): 1})
        sII = Strategy(PLAYER_II, {(1,): 0})
        w, pos = play(g, sI, sII)
        assert w == PLAYER_II and pos == (1, 0)

    def test_missing_table_entry(self):
        g = simple_game({(0, 0): PLAYER_I, (0, 1): PLAYER_I, (1, 0): PLAYER_I, (1, 1): PLAYER_I})
        with pytest.raises(IncompleteStrategyError):
            play(g, Strategy(PLAYER_I, {}), Strategy(PLAYER_II, {}))


class TestVerifyStrategy:
    def test_winning_strategy_verified(self):
        g = choice_game(V3)
        _, s = value_strategy(g)
        assert verify_strategy(g, s).ok

    def test_bad_move_counterexample(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II}, cap=1)
        bad = Strategy(PLAYER_I, {(): 1})
        res = verify_strategy(g, bad)
        assert not res.ok and res.counterexample == (1,)

    def test_wrong_player_counterexample(self):
        rng = random.Random(53)
        g = random_clopen_game(rng, max_nodes=300)
        winner, _ = value_strategy(g)
        loser = other_player(winner)
        table = {
            p: g.moves[0]
            for p in enumerate_positions(g)
            if g.decide(p) is None and len(p) < g.play_cap and turn(p) == loser
        }
        res = verify_strategy(g, Strategy(loser, table))
        assert not res.ok and res.counterexample is not None

    def test_determinacy_exactly_one_winner(self):
        rng = random.Random(59)
        for _ in range(50):
            g = random_clopen_game(rng, max_nodes=300)
            w_value, s = value_strategy(g)
            assert verify_strategy(g, s).ok
            oracle = minimax_winner_dp(g)
            assert oracle[()] == w_value


class TestChoiceGame:
    def test_empty_set_loses_immediately(self):
        g = choice_game(V3)
        assert g.decide((0,)) == PLAYER_II

    def test_member_wins_for_II(self):
        g = choice_game(build_universe(2))
        assert g.decide((1, 0)) == PLAYER_II

    def test_strategy_is_choice_function(self):
        g = choice_game(V3)
        winner, s = value_strategy(g)
        assert winner == PLAYER_II
        for b in range(1, V3.size):
            # Oracle: least-element scan of b's bits.
            least = min(c for c in V3.elements if member(c, b))
            assert s.table[(b,)] == least
            assert member(s.table[(b,)], b)


class TestGameHygiene:
    def test_open_game_truncation(self):
        g = Game(moves=(0, 1), decide=lambda p: None, play_cap=3, kind="open_I")
        assert g.winner_at_cap((0, 0, 0)) == PLAYER_II
        g2 = Game(moves=(0, 1), decide=lambda p: None, play_cap=3, kind="open_II")
        assert g2.winner_at_cap((0, 0, 0)) == PLAYER_I

    def test_random_game_cap_below_two_rejected(self):
        with pytest.raises(InvariantError):
            random_clopen_game(random.Random(1), max_cap=1)

    def test_bad_game_kind(self):
        with pytest.raises(InvariantError):
            Game(moves=(0,), decide=lambda p: None, play_cap=1, kind="borel")

    def test_strategy_json(self):
        _, s = value_strategy(choice_game(build_universe(2)))
        assert json.loads(strategy_to_json(s)) == {
            "player": "II",
            "table": [[[1], 0]],
        }

    def test_count_nodes(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II}, cap=1)
        assert count_nodes(g) == 3


class TestResourceBudget:
    def test_winning_region_budget(self):
        import pytest
        from hfgames.errors import ResourceBoundError

        rng = random.Random(71)
        g = random_clopen_game(rng, max_nodes=500)
        with pytest.raises(ResourceBoundError):
            winning_region(g, node_budget=2)

    def test_budget_pinned_at_tree_size(self):
        g = random_clopen_game(random.Random(73), max_nodes=500)
        n = len(enumerate_positions(g))
        oracle = frozenset(p for p, w in minimax_winner_dp(g).items() if w == PLAYER_I)
        # The first two calls compile under the budget (a compile cut short
        # is not kept); the last two check it against the kept arena.
        for _ in range(2):
            with pytest.raises(ResourceBoundError):
                winning_region(g, node_budget=n - 1)
            assert winning_region(g, node_budget=n) == oracle


def copy_game(g, cap=None, kind=None):
    return table_game(g.moves, g.payload["decided"], cap or g.play_cap, kind or g.kind)


def strict(g):
    """g with a ``decide`` that fails when asked past a decided position."""
    table = g.payload["decided"]

    def decide(p):
        assert not any(p[:k] in table for k in range(len(p))), f"decide asked at {p}"
        return g.decide(p)

    return Game(g.moves, decide, g.play_cap, g.kind, g.payload)


class TestArena:
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        cap=st.integers(min_value=2, max_value=9),
        kind=st.sampled_from(["clopen", "open_I", "open_II"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_solvers_agree_with_oracles(self, seed, cap, kind):
        g = random_clopen_game(random.Random(seed), max_nodes=300, max_cap=cap)
        if kind != "clopen":
            # One move shorter: the deepest plays end undecided at the cap.
            g = copy_game(g, cap=max(1, g.play_cap - 1), kind=kind)
        # Every solver and oracle asks decide only below decided positions.
        g = strict(g)
        positions = enumerate_positions(g)
        win = minimax_winner_dp(g)
        dist = clopen_distance_dp(g)
        assert count_nodes(g) == len(positions)
        assert winning_region(g) == frozenset(p for p, w in win.items() if w == PLAYER_I)
        for p in positions:
            v = game_value(g, p)
            assert (None if v is None else v.to_int()) == dist[p], p
        winner, s_value = value_strategy(g)
        assert winner == win[()]
        assert verify_strategy(g, s_value).ok
        loser = other_player(winner)
        s_loser = Strategy(loser, {p: g.moves[-1] for p in positions if turn(p) == loser})
        pair = (s_value, s_loser) if winner == PLAYER_I else (s_loser, s_value)
        assert play(g, *pair)[0] == winner
        if kind == "clopen":
            labels, w_label, s_label = label_clopen(g)
            assert labels == win and w_label == win[()]
            assert verify_strategy(g, s_label).ok
        else:
            with pytest.raises(NotClopenError):
                label_clopen(g)

    @given(seed=st.integers(min_value=0, max_value=10**9), cap=st.integers(min_value=2, max_value=9))
    @settings(max_examples=120, deadline=None)
    def test_cap_cut_by_one_agrees_or_names_the_oracle_leaf(self, seed, cap):
        base = random_clopen_game(random.Random(seed), max_nodes=300, max_cap=cap)
        # One move shorter: plays that were decided at the last move now
        # end undecided at the cap, unless no play reached it.
        g = strict(copy_game(base, cap=base.play_cap - 1))
        positions = enumerate_positions(g)
        if not any(len(p) == g.play_cap and g.decide(p) is None for p in positions):
            win = minimax_winner_dp(g)
            assert label_clopen(g)[0] == win
            assert winning_region(g) == frozenset(p for p, w in win.items() if w == PLAYER_I)
            return
        # The region names the leaf met from the first position, in
        # breadth-first order (moves are 0, 1, ...), that meets one.
        bfs = sorted(positions, key=lambda p: (len(p), p))
        met = next(filter(None, (first_unsettled_leaf(g, p) for p in bfs)))
        with pytest.raises(NotClopenError) as region_error:
            winning_region(g)
        assert str(region_error.value) == str(games._not_clopen(met))
        leaf = first_unsettled_leaf(g)
        if leaf is not None:
            with pytest.raises(NotClopenError) as label_error:
                label_clopen(g)
            assert str(label_error.value) == str(games._not_clopen(leaf))
            return
        # Every label holds whoever wins the undecided plays.
        labels, winner, s_label = label_clopen(g)
        for kind in ("open_I", "open_II"):
            win = minimax_winner_dp(copy_game(g, kind=kind))
            assert all(win[p] == w for p, w in labels.items())
        assert verify_strategy(g, s_label).ok

    def test_levels_hold_one_depth_and_own_the_next(self):
        for seed in range(40):
            g = random_clopen_game(random.Random(seed), max_nodes=400)
            A = games._arena(g)
            levels = A.levels
            assert levels[0] == 0 and levels[-1] == len(A.positions) == len(enumerate_positions(g))
            for d in range(len(levels) - 1):
                lo, hi = levels[d], levels[d + 1]
                assert lo < hi and all(len(p) == d for p in A.positions[lo:hi])
                for i in range(lo, hi):
                    f = A.first[i]
                    if f >= 0:
                        assert levels[d + 1] <= f and f + A.width <= levels[d + 2]
                        assert A.positions[f] == A.positions[i] + (g.moves[0],)

    def test_budget_refusal_asks_decide_within_budget(self):
        for seed in range(20):
            base = random_clopen_game(random.Random(seed), max_nodes=500)
            n = len(enumerate_positions(base))
            calls = 0

            def decide(p):
                nonlocal calls
                calls += 1
                return base.decide(p)

            g = Game(base.moves, decide, base.play_cap)
            with pytest.raises(ResourceBoundError, match=f"game tree exceeded {n - 1} nodes"):
                winning_region(g, node_budget=n - 1)
            assert 0 < calls <= n - 1

    def test_suite_asks_decide_only_below_decided(self, monkeypatch):
        build = games.table_game
        monkeypatch.setattr(games, "table_game", lambda *a, **k: strict(build(*a, **k)))
        report = suites.suite_games(suites.RunConfig(seed=3))
        assert report.failed == 0, report.to_text()

    def test_value_past_a_decided_leaf(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II})
        assert game_value(g, (0, 1, 1)) == Ordinal.from_nat(0)
        assert game_value(g, (1, 0)) is None
        with pytest.raises(InvariantError):
            game_value(g, (2,))

    def test_illegal_strategy_move_raises(self):
        g = simple_game({(0, 0): PLAYER_I, (1, 1): PLAYER_I}, cap=2)
        bad = Strategy(PLAYER_I, {(): 5})
        with pytest.raises(InvariantError, match="illegal move 5"):
            verify_strategy(g, bad)
        with pytest.raises(InvariantError, match="illegal move 5"):
            play(g, bad, Strategy(PLAYER_II, {}))

    def test_undecided_leaf_skipped_by_first_winning_move(self):
        # I wins at once with move 0, so the undecided plays after 1 are
        # never needed for the label; the region needs every node.
        g = simple_game({(0,): PLAYER_I}, cap=2)
        labels, winner, s = label_clopen(g)
        assert winner == PLAYER_I and s.table == {(): 0}
        assert set(labels) == {(), (0,)}
        with pytest.raises(NotClopenError, match=r"\(1, 0\)"):
            winning_region(g)

    def test_undecided_leaf_met_before_a_winning_move(self):
        g = simple_game({(1,): PLAYER_I}, cap=2)
        with pytest.raises(NotClopenError, match=r"\(0, 0\)"):
            label_clopen(g)
        with pytest.raises(NotClopenError):
            winning_region(g)

    def test_deep_game_solves_without_recursion(self):
        g = table_game((0,), {(0,) * 3000: PLAYER_I}, 3000)
        assert count_nodes(g) == 3001
        assert game_value(g) == Ordinal.from_nat(1500)
        winner, s_value = value_strategy(g)
        labels, w_label, s_label = label_clopen(g)
        assert winner == w_label == PLAYER_I and len(labels) == 3001
        assert len(winning_region(g)) == 3001
        assert verify_strategy(g, s_value).ok and verify_strategy(g, s_label).ok

    def test_one_decide_call_per_position(self):
        base = random_clopen_game(random.Random(79), max_nodes=800)
        calls = 0

        def decide(p):
            nonlocal calls
            calls += 1
            return base.decide(p)

        g = Game(base.moves, decide, base.play_cap)
        count_nodes(g)
        game_value(g)
        _, s_value = value_strategy(g)
        _, _, s_label = label_clopen(g)
        winning_region(g)
        assert verify_strategy(g, s_value).ok and verify_strategy(g, s_label).ok
        assert calls == count_nodes(g) == len(enumerate_positions(base))

    def test_only_the_last_game_stays_compiled(self):
        rng = random.Random(83)
        a = random_clopen_game(rng, max_nodes=300)
        b = random_clopen_game(rng, max_nodes=300)
        label_clopen(a)
        ref = weakref.ref(a)
        label_clopen(b)
        del a
        gc.collect()
        assert ref() is None


class TestRandomClopenGame:
    # sha256 of ``table_game_json`` for every game of the grid below (one per
    # line), then ``repr`` of one ``rng.random()`` drawn after them.
    STREAM_DIGEST = "4a99d6fcffad7f9c5bf67d6fbe9cbbf3d265a617ba51d38abd41c181f2c4f5fe"

    def test_stream_pinned(self):
        # Perfbench's rejection loop and ``verify --json`` draw from the
        # state each game leaves, so the rng calls are pinned with the games.
        rng = random.Random(89)
        docs = []
        for max_nodes in (3, 12, 60, 250, 1000, 4000):
            for max_branching in (2, 4):
                for max_cap in (2, 8, 150):
                    for _ in range(2):
                        g = random_clopen_game(
                            rng, max_nodes=max_nodes, max_branching=max_branching, max_cap=max_cap
                        )
                        docs.append(table_game_json(g))
        text = "\n".join([*docs, repr(rng.random())])
        assert hashlib.sha256(text.encode()).hexdigest() == self.STREAM_DIGEST
        # At three nodes a root with more than two moves cannot expand; its
        # winner moves to every first move.
        assert any(
            len(doc["moves"]) > 2 and [p for p, _ in doc["decided"]] == [[x] for x in doc["moves"]]
            for doc in map(json.loads, docs)
        )
