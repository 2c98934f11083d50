"""Desk-scale workbench for determinacy games, truth predicates, and
transfinite recursion over hereditarily finite sets."""

from .universe import (
    MAX_RANK,
    Ordinal,
    Universe,
    WellFoundedRelation,
    WellOrder,
    build_universe,
    check_wellfounded,
    member,
    ordinal_compare,
)
from .logic import (
    Formula,
    SatisfactionClass,
    Structure,
    build_truth_predicate,
    eval_instance,
    instance,
    parse_formula,
    parse_instance,
    skolem_witness,
    tarski_check,
    to_text,
)
from .games import (
    Game,
    Strategy,
    choice_game,
    game_value,
    label_clopen,
    random_clopen_game,
    value_strategy,
    verify_strategy,
    winning_region,
)
from .etr import (
    RecursionRule,
    Solution,
    check_solution,
    descending_tree,
    etr_solve,
    iterated_truth,
    kleene_brouwer,
    transitive_closure,
)
from .truthgames import (
    TruthGame,
    extract_satisfaction,
    extract_solution,
    honest_teller,
    interrogator_search,
    recursion_game,
    referee,
    truth_game,
)

__version__ = "0.1.0"
