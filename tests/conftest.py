import pytest

from hfgames import truthgames


@pytest.fixture
def probe_budgets(monkeypatch):
    """The set of (opening, budget) pairs ``truthgames._probe`` is called
    with while the test runs."""
    calls = set()
    probe = truthgames._probe

    def recording(game, teller, opening, budget, *args, **kwargs):
        calls.add((tuple(opening), budget))
        return probe(game, teller, opening, budget, *args, **kwargs)

    monkeypatch.setattr(truthgames, "_probe", recording)
    return calls
