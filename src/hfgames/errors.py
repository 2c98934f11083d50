"""Shared exception types for the workbench."""


class HFGamesError(Exception):
    """Base class for all package-specific errors."""


class InvariantError(HFGamesError, ValueError):
    """A value violates a structural invariant (malformed CNF, bad edges, ...)."""


class ResourceBoundError(HFGamesError, RuntimeError):
    """A configured budget (rank, node count, search size) was exceeded."""


class ParseError(HFGamesError, ValueError):
    """Syntax error in formula or serialization text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SignatureError(HFGamesError, ValueError):
    """Unknown predicate symbol, arity mismatch, or out-of-signature index."""


class MalformedInstanceError(HFGamesError, ValueError):
    """Assignment does not cover the free variables of its formula."""


class NoWitnessError(HFGamesError, LookupError):
    """An existential has no witness in the universe."""


class PlayCapError(HFGamesError, ValueError):
    """A position exceeds the game's play cap."""


class NotClopenError(HFGamesError, ValueError):
    """A game leaves a full-length play undecided."""


class IncompleteStrategyError(HFGamesError, LookupError):
    """A strategy table is missing a position reached during play."""


class MalformedTranscriptError(HFGamesError, ValueError):
    """Transcript clocks fail to descend or rounds are ill-formed."""


class CoverageError(HFGamesError, LookupError):
    """An inquiry falls outside a satisfaction class's declared closure."""


class NotWinningStrategyError(HFGamesError, RuntimeError):
    """Extraction detected that the teller strategy is not winning."""
