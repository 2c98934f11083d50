import json
import random

import pytest

from hfgames.errors import (
    IncompleteStrategyError,
    InvariantError,
    NotClopenError,
    PlayCapError,
)
from hfgames.games import (
    PLAYER_I,
    PLAYER_II,
    Game,
    Strategy,
    choice_game,
    count_nodes,
    game_from_json,
    game_to_json,
    game_value,
    label_clopen,
    other_player,
    play,
    random_clopen_game,
    strategy_to_json,
    table_game,
    transcript_to_json,
    turn,
    validate_prefix_monotone,
    value_strategy,
    verify_strategy,
    winning_region,
)
from hfgames.universe import Ordinal, build_universe, member, ordinal_compare

from hfgames.oracles import clopen_distance_dp, enumerate_positions, minimax_winner_dp

V3 = build_universe(3)


def simple_game(decided, cap=4, moves=(0, 1), kind="clopen"):
    return table_game(moves, decided, cap, kind)


class TestGameValue:
    def test_decided_for_open_is_zero(self):
        g = simple_game({(): PLAYER_I})
        assert game_value(g) == Ordinal.zero()

    def test_one_move_to_win_is_one(self):
        g = simple_game({(0,): PLAYER_I, (1,): PLAYER_II})
        assert game_value(g) == Ordinal.from_nat(1)

    def test_value_matches_distance_dp(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_clopen_game(rng, max_nodes=600)
            dist = clopen_distance_dp(g)
            memo = {}
            for p in enumerate_positions(g):
                v = game_value(g, p, _memo=memo)
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
            assert verify_strategy(g, s).ok, game_to_json(g)

    def test_value_decreases_along_strategy(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=400)
            memo = {}
            if game_value(g, (), _memo=memo) is None:
                continue
            winner, s = value_strategy(g)
            p = ()
            current = memo[()]
            while g.decide(p) is None and len(p) < g.play_cap:
                if turn(p) == g.open_player:
                    p = p + (s.table[p],)
                else:
                    p = p + (rng.choice(g.moves),)
                nxt = game_value(g, p, _memo=memo)
                assert nxt is not None
                assert ordinal_compare(nxt, current) <= 0
                if turn(p) == g.closed_player:  # open player just moved
                    assert ordinal_compare(nxt, current) < 0
                current = nxt
            assert g.decide(p) == g.open_player or current == Ordinal.zero()

    def test_closed_player_soundness(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_clopen_game(rng, max_nodes=400)
            memo = {}
            game_value(g, (), _memo=memo)
            for p in enumerate_positions(g):
                if g.decide(p) is not None or len(p) >= g.play_cap:
                    continue
                v = game_value(g, p, _memo=memo)
                if v is not None:
                    continue
                children = [game_value(g, p + (x,), _memo=memo) for x in g.moves]
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
        assert json.loads(transcript_to_json(w, pos)) == {
            "moves": [1, 0],
            "winner": "II",
        }

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
    def test_prefix_monotone_sampled(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_clopen_game(rng, max_nodes=300)
            assert validate_prefix_monotone(g, rng) is None

    def test_serialization_round_trip(self):
        rng = random.Random(67)
        g = random_clopen_game(rng, max_nodes=200)
        text = game_to_json(g)
        g2 = game_from_json(text)
        assert game_to_json(g2) == text
        for p in enumerate_positions(g):
            assert g.decide(p) == g2.decide(p)
        c = choice_game(V3)
        c2 = game_from_json(game_to_json(c))
        assert c2.moves == c.moves and c2.play_cap == c.play_cap

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
