"""Tabular Q-learning: table, temporal-difference update, action selection,
and the per-step record that carries the selecting branch's tag.

The update is the classic one-step rule

    Q(s, a) <- Q(s, a) + alpha * (r + gamma * max_a' Q(s', a') - Q(s, a))

with a constant learning rate alpha. An action is an item's catalog index,
0 to n_actions - 1; the item's id string appears only in the trace line a
`StepRecord` writes. The table keeps one row per written state, a list of
n_actions values in catalog order, and an unwritten state reads 0.0 for
every action. Next to each row it keeps the row's maximum and the first
index that holds it, so the greedy pick and the update's max read two
fields instead of scanning the catalog. Exploitation draws use the
orientation "q <= p exploits": the larger p, the rarer the exploratory
branch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable, Sequence

from .context import SituationKey

# Branch tags shared with the agent-level policies.
EXPLOIT = "Exploit"
ADVISE = "Advise"
RANDOM_FALLBACK = "RandomFallback"
CASE_BOOTSTRAPPED = "CaseBootstrapped"
BRANCHES = (EXPLOIT, ADVISE, RANDOM_FALLBACK, CASE_BOOTSTRAPPED)

State = Hashable
ActionId = int  # the item's index in the scenario's catalog


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One agent step: situation, the chosen item's id, the branch that
    chose it, reward. The next situation is the next record's `s`, or for
    the last step that of the run's last event."""

    step: int
    s: SituationKey
    a: str
    branch: str
    r: float


@dataclass(frozen=True)
class LearningParams:
    alpha: float
    gamma: float
    p: float = 0.8

    def __post_init__(self):
        # alpha == 0 is allowed: the update degenerates to a no-op
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


class QTable:
    """(state, action) -> value, one zero-filled row of n_actions values per
    written state; an unwritten state reads 0.0.

    Single-writer: one agent owns one table. A row exists once a value in
    it has been written.

    Invariant: for every written state s, `_best[s]` is (max(row), first),
    where first is the smallest index holding the maximum, so that
    row[first] is the very value `max(row)` returns. `set_value` keeps it:
    a value above the maximum takes both fields, a value equal to it at the
    same or a lower index takes the index, and a value below it rescans the
    row only when it lands on `first`; any other write leaves both as they
    are.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self._rows: dict[State, list[float]] = {}
        self._best: dict[State, tuple[float, ActionId]] = {}

    def __len__(self) -> int:
        """The number of written rows."""
        return len(self._rows)

    def value(self, s: State, a: ActionId) -> float:
        row = self._rows.get(s)
        return 0.0 if row is None else row[a]

    def row(self, s: State) -> Sequence[float]:
        """The stored row itself, not a copy, or () for an unwritten state:
        read it, do not keep it."""
        return self._rows.get(s, ())

    def set_value(self, s: State, a: ActionId, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite Q value for ({s}, {a})")
        row = self._rows.get(s)
        if row is None:
            row = self._rows[s] = [0.0] * self.n_actions
            self._best[s] = (0.0, 0)
        best, first = self._best[s]
        row[a] = value
        if value > best or (value == best and a <= first):
            self._best[s] = (value, a)
        elif a == first:  # lowered the entry that held the maximum
            best = max(row)
            self._best[s] = (best, row.index(best))

    def best_value(self, s: State) -> float:
        """max of Q(s, a) over the catalog."""
        best = self._best.get(s)
        return 0.0 if best is None else best[0]

    def update(self, s: State, a: ActionId, r: float, s_next: State,
               params: LearningParams) -> float:
        """Apply the one-step update; returns the new Q(s, a). A non-finite
        reward makes a non-finite value, which `set_value` rejects."""
        old = self.value(s, a)
        target = r + params.gamma * self.best_value(s_next)
        new = old + params.alpha * (target - old)
        self.set_value(s, a, new)
        return new


def greedy_action(table: QTable, s: State) -> ActionId:
    """argmax over the catalog; ties fall to the smallest catalog index."""
    best = table._best.get(s)
    return 0 if best is None else best[1]


def epsilon_greedy_action(table: QTable, s: State, p: float,
                          rng: random.Random) -> tuple[ActionId, str]:
    """Draw q ~ U[0,1]; exploit when q <= p, otherwise pick uniformly at random."""
    q = rng.random()
    if q <= p:
        return greedy_action(table, s), EXPLOIT
    return rng.randrange(table.n_actions), RANDOM_FALLBACK
