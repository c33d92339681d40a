import json
from importlib import resources

import pytest

from hyql.context import CONTEXT
from hyql.store import read_action_history, read_event_history


def positive_items(store, user_id, s, level=0):
    """The catalog indices of the items `user_id` rated 1 in the situation's
    view at `level`, each read as 1.0, decoded from the view's positive bits
    (an untouched item and a rated 0 are both absent)."""
    entry = store._views(s)[level].ratings.get(user_id)
    bits = entry[0] if entry else 0
    return {i: 1.0 for i in range(store.n_items) if bits >> i & 1}


def read_run_trace(run_dir, steps, group="g0"):
    """A run's trace of `steps` steps, read as `verify` reads it: against the
    situation each step's logged event aggregates to for the focal user's
    group."""
    events = read_event_history(run_dir, steps)
    return read_action_history(run_dir, [CONTEXT.aggregate(event, group)
                                         for event in events[:-1]])


@pytest.fixture(scope="session")
def canonical_scenario():
    text = (resources.files("hyql") / "data" / "canonical_scenario.json").read_text("utf-8")
    return json.loads(text)
