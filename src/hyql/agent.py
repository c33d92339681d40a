"""Recommendation agents: plain Q-learning, CF-only, case-boosted, hybrid.

The hybrid policy exploits the Q-table with probability p and otherwise
asks collaborative filtering for an action; when no advice exists the
exploratory branch falls back to a uniform random pick. Before selecting
in a never-visited situation, the case-boosted variants try to retrieve a
similar past case and bootstrap the Q-row from its solution. `run` steps
through fixed-length simulated days; at each day boundary, and after the
last step, a variant that learns a Q-table retains each situation visited
at least 5 times, with its Q-row as the solution, into its case base. Only
those variants count visits: GreedyQ and CFOnly keep no table, so they keep
no cases and no case bookkeeping either.

The learning settings are fixed for every variant: alpha 0.3, gamma 0.1 and
exploit probability p 0.8 (`PARAMS`).

The world is a contextual bandit: nothing the simulator draws reads the
action (see `simenv`), so the next situation s' does not depend on the pick.
With exact values, gamma * max Q(s') would add the same amount to every
action of a situation and could not change the argmax. Learned values can:
a first pick that earns reward 0 still gets alpha * gamma * max Q(s'), which
is > 0 once s' holds any positive value, so it becomes the argmax of a zero
row and the greedy branch keeps choosing it. That is why gamma > 0 still
changes results.

GreedyQ always recommends the first catalog item and keeps no table: from
a zero table, on 0/1 rewards and with non-negative alpha and gamma, greedy
learning writes only values >= 0.0, and `greedy_action` gives ties to
index 0, so it would never pick another item. Its steps keep the Exploit tag.

One agent instance is strictly single-threaded; run many (agent, env)
pairs with distinct seeds for parallel trials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .casebase import CaseBase, adapt
from .collab import TransactionStore
from .context import CONTEXT, RawEvent, SituationKey
from .qlearn import (ADVISE, CASE_BOOTSTRAPPED, EXPLOIT, RANDOM_FALLBACK,
                     ActionId, LearningParams, QTable, StepRecord,
                     epsilon_greedy_action, greedy_action)

VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
_Q_VARIANTS = ("EpsilonGreedyQ", "CBRQ", "HyQL")
_CASE_VARIANTS = ("CBRQ", "HyQL")

POSITIVE_RATING_THRESHOLD = 0.5  # reward >= 0.5 counts as an acceptance
PARAMS = LearningParams(alpha=0.3, gamma=0.1, p=0.8)
RETAIN_MIN_VISITS = 5


@dataclass(frozen=True)
class AgentConfig:
    """One agent's variant, user, day length (the scenario's) and rng seed."""

    variant: str
    user_id: str
    episode_length: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")


def hybrid_policy(table: QTable, s: SituationKey, p: float,
                  cf_store: TransactionStore, target: str,
                  rng: random.Random) -> tuple[ActionId, str]:
    """Exploit when q <= p; otherwise take CF advice, or a random action."""
    q = rng.random()
    if q <= p:
        return greedy_action(table, s), EXPLOIT
    advice = cf_store.advise_action(target, s)
    if advice is not None:
        return advice, ADVISE
    return rng.randrange(table.n_actions), RANDOM_FALLBACK


class Agent:
    """One user's recommender; owns its table, case base and rng.

    It acts with catalog indices and names an item by its id from `items`
    only in the `StepRecord` it writes.
    """

    def __init__(self, config: AgentConfig, items: tuple[str, ...],
                 social_group: str, cf_store: TransactionStore):
        self.config = config
        self.items = items
        self.social_group = social_group
        self.table = QTable(len(items))
        self.casebase = CaseBase()
        self.cf_store = cf_store
        self.rng = random.Random(config.seed)
        self.step_count = 0
        # steps per situation over the agent's lifetime up to the last day
        # boundary, and over the current day: retention reads both, and only
        # a variant with a Q-table keeps them
        self._visits: dict[SituationKey, int] = {}
        self._day_visits: dict[SituationKey, int] = {}

    @property
    def user_id(self) -> str:
        return self.config.user_id

    # -- action selection ---------------------------------------------------

    def _select(self, s: SituationKey) -> tuple[ActionId, str]:
        variant = self.config.variant
        if variant == "GreedyQ":  # the constant policy; see the module docstring
            return 0, EXPLOIT
        if variant == "EpsilonGreedyQ" or variant == "CBRQ":
            return epsilon_greedy_action(self.table, s, PARAMS.p, self.rng)
        if variant == "CFOnly":
            advice = self.cf_store.advise_action(self.user_id, s)
            if advice is not None:
                return advice, ADVISE
            return self.rng.randrange(len(self.items)), RANDOM_FALLBACK
        return hybrid_policy(self.table, s, PARAMS.p, self.cf_store,
                             self.user_id, self.rng)

    def _maybe_bootstrap(self, s: SituationKey) -> bool:
        # only a situation never stepped in is looked up: a case variant's
        # row of `s` is written only here and by the update of a step in `s`
        if self.config.variant not in _CASE_VARIANTS or self.table.row(s):
            return False
        result = self.casebase.retrieve(s)
        return result is not None and adapt(result, s, self.table)

    # -- the step -------------------------------------------------------------

    def step(self, event: RawEvent, env) -> tuple[StepRecord, RawEvent]:
        """One full interaction: situate, maybe reuse a case, act, learn."""
        s = CONTEXT.aggregate(event, self.social_group)
        bootstrapped = self._maybe_bootstrap(s)
        a, branch = self._select(s)
        if bootstrapped:
            branch = CASE_BOOTSTRAPPED
        r, next_event = env.step(a)
        s_next = CONTEXT.aggregate(next_event, self.social_group)
        if self.config.variant in _Q_VARIANTS:
            self.table.update(s, a, r, s_next, PARAMS)
            self._day_visits[s] = self._day_visits.get(s, 0) + 1
        self.cf_store.record_implicit(self.user_id, a,
                                      r >= POSITIVE_RATING_THRESHOLD, s)
        record = StepRecord(self.step_count, s, self.items[a], branch, r)
        self.step_count += 1
        return record, next_event

    def end_episode(self) -> None:
        """Retain each situation of the finished day stepped in at least
        RETAIN_MIN_VISITS times over the agent's lifetime: its row there is
        the case's solution. Only a variant with a Q-table has any."""
        for s in sorted(self._day_visits, key=lambda k: k.canonical()):
            visits = self._visits[s] = self._visits.get(s, 0) + self._day_visits[s]
            if visits >= RETAIN_MIN_VISITS:
                self.casebase.retain(s, self.table.row(s), visits, self.step_count)
        self._day_visits.clear()

    def run(self, env, total_steps: int) -> list[StepRecord]:
        """`total_steps` steps from a reset; the episode ends after every
        `episode_length` steps and after the last one."""
        event = env.reset()
        trace: list[StepRecord] = []
        length = self.config.episode_length
        for done in range(1, total_steps + 1):
            record, event = self.step(event, env)
            trace.append(record)
            if done % length == 0 or done == total_steps:
                self.end_episode()
        return trace
