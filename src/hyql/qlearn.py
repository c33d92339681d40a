"""Tabular Q-learning: table, temporal-difference update, action selection,
and the per-step record that carries the selecting branch's tag.

The update is the classic one-step rule

    Q(s, a) <- Q(s, a) + alpha * (r + gamma * max_a' Q(s', a') - Q(s, a))

over a sparse table that returns ``default_value`` for unseen pairs.
Exploitation draws use the orientation "q <= p exploits": the larger p,
the rarer the exploratory branch. A small explicit-MDP value-iteration
solver is included as the convergence oracle for tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

from .context import SituationKey

# Branch tags shared with the agent-level policies.
EXPLOIT = "Exploit"
EXPLORE = "Explore"
ADVISE = "Advise"
RANDOM_FALLBACK = "RandomFallback"
CASE_BOOTSTRAPPED = "CaseBootstrapped"

ALPHA_CONSTANT = "constant"
ALPHA_INVERSE_VISITS = "inverse-visits"

State = Hashable
ActionId = str


@dataclass(frozen=True)
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
    alpha_schedule: str = ALPHA_CONSTANT

    def __post_init__(self):
        # alpha == 0 is allowed: the update degenerates to a no-op
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.alpha_schedule not in (ALPHA_CONSTANT, ALPHA_INVERSE_VISITS):
            raise ValueError(f"unknown alpha schedule {self.alpha_schedule!r}")


class QTable:
    """Sparse (state, action) -> value map with visit bookkeeping.

    Single-writer: one agent owns one table. Visit counts drive both the
    inverse-visits learning-rate schedule and the "only bootstrap unseen
    rows" rule used by case adaptation.
    """

    def __init__(self, default_value: float = 0.0):
        self.default_value = default_value
        self._rows: dict[State, dict[ActionId, float]] = {}
        self._visits: dict[tuple[State, ActionId], int] = {}
        self._row_visits: dict[State, int] = {}
        self.bootstrapped: set[State] = set()

    def value(self, s: State, a: ActionId) -> float:
        row = self._rows.get(s)
        if row is None:
            return self.default_value
        return row.get(a, self.default_value)

    def row(self, s: State) -> dict[ActionId, float]:
        return dict(self._rows.get(s, {}))

    def set_value(self, s: State, a: ActionId, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite Q value for ({s}, {a})")
        self._rows.setdefault(s, {})[a] = value

    def visits(self, s: State, a: ActionId) -> int:
        return self._visits.get((s, a), 0)

    def row_visits(self, s: State) -> int:
        return self._row_visits.get(s, 0)

    def best_value(self, s: State, catalog: ActionCatalog) -> float:
        """max of Q(s, a) over the catalog; rows hold catalog actions only, so
        a row shorter than the catalog has an action reading the default."""
        row = self._rows.get(s)
        if not row:
            return self.default_value
        best = max(row.values())
        if len(row) < len(catalog):
            best = max(best, self.default_value)
        return best

    def update(self, s: State, a: ActionId, r: float, s_next: State,
               catalog: ActionCatalog, params: LearningParams) -> float:
        """Apply the one-step update; returns the new Q(s, a)."""
        if not math.isfinite(r):
            raise ValueError(f"non-finite reward {r!r} (simulator bug?)")
        old = self.value(s, a)
        target = r + params.gamma * self.best_value(s_next, catalog)
        if params.alpha_schedule == ALPHA_INVERSE_VISITS:
            alpha = 1.0 / (1.0 + self.visits(s, a))
        else:
            alpha = params.alpha
        new = old + alpha * (target - old)
        if not math.isfinite(new):
            raise ValueError(f"Q update produced non-finite value for ({s}, {a})")
        self._rows.setdefault(s, {})[a] = new
        self._visits[(s, a)] = self.visits(s, a) + 1
        self._row_visits[s] = self.row_visits(s) + 1
        return new

    def entries(self) -> Iterator[tuple[State, ActionId, float]]:
        for s, row in self._rows.items():
            for a, v in row.items():
                yield s, a, v

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())


def greedy_action(table: QTable, s: State, catalog: ActionCatalog) -> ActionId:
    """argmax over the catalog; ties fall to the smallest catalog index.

    Fetches the state's row once, so the key is hashed once, not per action.
    """
    row = table.row(s)
    default = table.default_value
    best_action = None
    best_value = -math.inf
    for a in catalog.actions:
        v = row.get(a, default)
        if v > best_value:
            best_action, best_value = a, v
    assert best_action is not None
    return best_action


def epsilon_greedy_action(table: QTable, s: State, catalog: ActionCatalog,
                          p: float, rng: random.Random) -> tuple[ActionId, str]:
    """Draw q ~ U[0,1]; exploit when q <= p, otherwise explore uniformly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    q = rng.random()
    if q <= p:
        return greedy_action(table, s, catalog), EXPLOIT
    return catalog.actions[rng.randrange(len(catalog))], EXPLORE


# ---------------------------------------------------------------------------
# Explicit-MDP value iteration (test oracle)
# ---------------------------------------------------------------------------

@dataclass
class ExplicitMDP:
    """Dense finite MDP: transitions[s][a][s'] and rewards[s][a]."""

    transitions: Sequence[Sequence[Sequence[float]]]
    rewards: Sequence[Sequence[float]]

    def __post_init__(self):
        if not self.transitions or not self.transitions[0]:
            raise ValueError("MDP needs at least one state and one action")
        n = self.n_states
        for s, per_action in enumerate(self.transitions):
            for a, dist in enumerate(per_action):
                if len(dist) != n:
                    raise ValueError(f"transition row ({s},{a}) has wrong length")
                if abs(sum(dist) - 1.0) > 1e-9:
                    raise ValueError(f"transition row ({s},{a}) does not sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_actions(self) -> int:
        return len(self.transitions[0])

    def sample_next(self, s: int, a: int, rng: random.Random) -> int:
        u = rng.random()
        acc = 0.0
        for s_next, prob in enumerate(self.transitions[s][a]):
            acc += prob
            if u < acc:
                return s_next
        return self.n_states - 1  # guard against float round-off


def value_iteration(mdp: ExplicitMDP, gamma: float,
                    tolerance: float = 1e-10) -> list[list[float]]:
    """Bellman optimality backups to a max-norm fixed point; returns Q*."""
    if gamma >= 1.0 or gamma < 0.0:
        raise ValueError("gamma must be in [0, 1)")
    n_s, n_a = mdp.n_states, mdp.n_actions
    q = [[0.0] * n_a for _ in range(n_s)]
    while True:
        v = [max(q[s]) for s in range(n_s)]
        delta = 0.0
        for s in range(n_s):
            for a in range(n_a):
                new = mdp.rewards[s][a] + gamma * sum(
                    p * v[t] for t, p in enumerate(mdp.transitions[s][a]) if p)
                delta = max(delta, abs(new - q[s][a]))
                q[s][a] = new
        if delta < tolerance:
            return q


def random_mdp(n_states: int, n_actions: int, rng: random.Random) -> ExplicitMDP:
    """Random dense MDP with rewards in [0, 1]; used by convergence tests."""
    transitions = []
    rewards = []
    for _ in range(n_states):
        per_action = []
        reward_row = []
        for _ in range(n_actions):
            raw = [rng.random() for _ in range(n_states)]
            total = sum(raw)
            per_action.append([x / total for x in raw])
            reward_row.append(rng.random())
        transitions.append(per_action)
        rewards.append(reward_row)
    return ExplicitMDP(transitions, rewards)

