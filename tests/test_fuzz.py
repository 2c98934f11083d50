"""Fuzz gate for the parsers of formulas, instances and transcripts: random
text and mutated valid documents either parse or raise a typed HFGamesError,
never any other exception."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames.errors import HFGamesError
from hfgames.logic import Structure, parse_formula, parse_instance
from hfgames.truthgames import (
    ORDINAL,
    RandomInterrogator,
    honest_teller,
    play_truth_game,
    transcript_from_json,
    transcript_to_json,
    truth_game,
)
from hfgames.universe import build_universe

V2 = Structure(build_universe(2)).with_predicate("Z", {(0,)})
GAMES = [truth_game(V2), truth_game(V2, ORDINAL)]
SIGNATURE = {"Z": 1}


def parses_or_typed_error(parse, text):
    try:
        parse(text)
    except HFGamesError:
        pass


def _transcripts() -> list[str]:
    rng = random.Random("fuzz:transcripts")
    out = []
    for game in GAMES:
        teller = honest_teller(game, V2)
        for depth in (1, 3, 5):
            t = play_truth_game(game, RandomInterrogator(rng, depth=depth), teller)
            out.append(transcript_to_json(game, t))
    return out


FORMULAS = [
    "Ax. Ey. (x = y)",
    "!(#0 in #1) & Ex. (x in #1)",
    "Ex. (Z(x) -> (x in #1 | x = #0))",
    "Ax. (x in #1 <-> !Ey. (y in x))",
]
TRANSCRIPTS = _transcripts()

# Pieces of the formula, instance and transcript grammars, plus characters
# that look like digits to str.isdigit but are not decimal.
PIECES = st.sampled_from(
    list("#0123456789xyzAE!&|()-><=,. ^w*+[]{}\":Z\n\t\\") + [
        "in", "<|", "->", "<->", "null", "true",
        "-1", "1e999", "NaN", "²", "٣", "w^(", '"clock"', "\x00",
    ]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def edited(draw, docs):
    """A valid document with a few slices deleted, inserted, replaced or doubled."""
    text = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "double"]))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + draw(PIECES) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(PIECES) + text[j:]
        else:
            text = text[:i] + text[i:j] * 2 + text[j:]
    return text


@st.composite
def grafted(draw, docs):
    """A valid JSON document with one value, anywhere in it, replaced."""
    doc = json.loads(draw(st.sampled_from(docs)))
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, draw(st.sampled_from(list(keys)))
        node = holder[key]
    value = draw(JSON_VALUES)
    if holder is None:
        doc = value
    else:
        holder[key] = value
    return json.dumps(doc)


def texts(docs):
    return st.lists(PIECES, max_size=20).map("".join) | st.text(max_size=30) | edited(docs)


@settings(max_examples=50, deadline=None)
@given(texts(FORMULAS))
def test_formula_parsers(text):
    parses_or_typed_error(parse_formula, text)
    parses_or_typed_error(lambda t: parse_instance(t, SIGNATURE), text)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(GAMES), texts(TRANSCRIPTS) | grafted(TRANSCRIPTS))
def test_transcript_parser(game, text):
    parses_or_typed_error(lambda t: transcript_from_json(game, t), text)


def test_hard_inputs_are_typed_errors():
    """Deep nesting, and digits that str.isdigit accepts but int rejects."""
    hard = [
        (lambda t: transcript_from_json(GAMES[0], t), '{"rounds": ' + "[" * 100_000),
        (lambda t: transcript_from_json(GAMES[1], t), json.dumps(
            {"rounds": [{"clock": "w^(" * 3000 + "1" + ")" * 3000}]}
        )),
        (parse_formula, "!" * 5000 + "(#0 = #0)"),
        (parse_formula, "(" * 5000 + "#0 = #0" + ")" * 5000),
        (parse_formula, "#\u00b2 = #0"),
    ]
    for parse, text in hard:
        parses_or_typed_error(parse, text)


def test_valid_documents_parse():
    for text in FORMULAS:
        parse_formula(text, SIGNATURE)
    for game in GAMES:
        for text in TRANSCRIPTS:
            if json.loads(text)["clock_mode"] == game.clock_mode:
                transcript_from_json(game, text)
