"""Tabular Q-learning: table, temporal-difference update, action selection,
and the per-step record that carries the selecting branch's tag.

The update is the classic one-step rule

    Q(s, a) <- Q(s, a) + alpha * (r + gamma * max_a' Q(s', a') - Q(s, a))

with a constant learning rate alpha, over a sparse table in which unseen
pairs read 0.0. Exploitation draws use the orientation "q <= p exploits":
the larger p, the rarer the exploratory branch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

from .context import SituationKey

# Branch tags shared with the agent-level policies.
EXPLOIT = "Exploit"
ADVISE = "Advise"
RANDOM_FALLBACK = "RandomFallback"
CASE_BOOTSTRAPPED = "CaseBootstrapped"

State = Hashable
ActionId = str


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One agent step: situation, action, the branch that chose it, reward."""

    step: int
    s: SituationKey
    a: ActionId
    branch: str
    r: float
    s_next: SituationKey


class CatalogError(KeyError):
    """An action id that is not part of the catalog."""


class ActionCatalog:
    """Ordered set of recommendable items with stable integer indices."""

    def __init__(self, actions: Sequence[ActionId]):
        if not actions:
            raise ValueError("catalog must not be empty")
        self.actions: tuple[ActionId, ...] = tuple(actions)
        self._index = {a: i for i, a in enumerate(self.actions)}
        if len(self._index) != len(self.actions):
            raise ValueError("catalog contains duplicate action ids")

    def index(self, action: ActionId) -> int:
        try:
            return self._index[action]
        except KeyError:
            raise CatalogError(action) from None

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[ActionId]:
        return iter(self.actions)

    def __contains__(self, action: object) -> bool:
        return action in self._index


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
    """Sparse (state, action) -> value map; an unseen pair reads 0.0.

    Single-writer: one agent owns one table. A row exists once a value in
    it has been written.
    """

    def __init__(self):
        self._rows: dict[State, dict[ActionId, float]] = {}

    def value(self, s: State, a: ActionId) -> float:
        row = self._rows.get(s)
        if row is None:
            return 0.0
        return row.get(a, 0.0)

    def row(self, s: State) -> Mapping[ActionId, float]:
        """The stored row itself, not a copy: read it, do not keep it."""
        return self._rows.get(s, {})

    def set_value(self, s: State, a: ActionId, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite Q value for ({s}, {a})")
        self._rows.setdefault(s, {})[a] = value

    def best_value(self, s: State, catalog: ActionCatalog) -> float:
        """max of Q(s, a) over the catalog; rows hold catalog actions only, so
        a row shorter than the catalog has an action reading 0.0."""
        row = self._rows.get(s)
        if not row:
            return 0.0
        best = max(row.values())
        if len(row) < len(catalog):
            best = max(best, 0.0)
        return best

    def update(self, s: State, a: ActionId, r: float, s_next: State,
               catalog: ActionCatalog, params: LearningParams) -> float:
        """Apply the one-step update; returns the new Q(s, a)."""
        if not math.isfinite(r):
            raise ValueError(f"non-finite reward {r!r} (simulator bug?)")
        old = self.value(s, a)
        target = r + params.gamma * self.best_value(s_next, catalog)
        new = old + params.alpha * (target - old)
        if not math.isfinite(new):
            raise ValueError(f"Q update produced non-finite value for ({s}, {a})")
        self._rows.setdefault(s, {})[a] = new
        return new


def greedy_action(table: QTable, s: State, catalog: ActionCatalog) -> ActionId:
    """argmax over the catalog; ties fall to the smallest catalog index.

    Reads the state's stored row once, without copying it, so the key is
    hashed once, not per action.
    """
    row = table._rows.get(s)
    if row is None:
        return catalog.actions[0]
    best_action = None
    best_value = -math.inf
    for a in catalog.actions:
        v = row.get(a, 0.0)
        if v > best_value:
            best_action, best_value = a, v
    assert best_action is not None
    return best_action


def epsilon_greedy_action(table: QTable, s: State, catalog: ActionCatalog,
                          p: float, rng: random.Random) -> tuple[ActionId, str]:
    """Draw q ~ U[0,1]; exploit when q <= p, otherwise pick uniformly at random."""
    q = rng.random()
    if q <= p:
        return greedy_action(table, s, catalog), EXPLOIT
    return catalog.actions[rng.randrange(len(catalog))], RANDOM_FALLBACK
