"""Recommendation agents: plain Q-learning, CF-only, case-boosted, hybrid.

The hybrid policy exploits the Q-table with probability p and otherwise
asks collaborative filtering for an action; when no advice exists the
exploratory branch falls back to a uniform random pick. Before selecting
in a never-visited situation, the case-boosted variants try to retrieve a
similar past case and bootstrap the Q-row from its solution. Episodes are
fixed-length simulated days; at each day boundary, well-visited situations
are retained into the case base.

One agent instance is strictly single-threaded; run many (agent, env)
pairs with distinct seeds for parallel trials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .casebase import (CaseBase, DEFAULT_MAX_SIZE, DEFAULT_RETAIN_MIN_VISITS,
                       DEFAULT_THRESHOLD, DEFAULT_WEIGHTS, adapt,
                       check_retrieval_params)
from .collab import TransactionStore
from .context import ContextModel, Profile, RawEvent, SituationKey
from .qlearn import (ADVISE, CASE_BOOTSTRAPPED, EXPLOIT, EXPLORE,
                     RANDOM_FALLBACK, ActionCatalog, ActionId, LearningParams,
                     QTable, StepRecord, epsilon_greedy_action, greedy_action)

VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
_Q_VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CBRQ", "HyQL")
_CASE_VARIANTS = ("CBRQ", "HyQL")

POSITIVE_RATING_THRESHOLD = 0.5  # reward >= 0.5 counts as an acceptance


@dataclass(frozen=True)
class AgentConfig:
    variant: str
    user_id: str
    alpha: float = 0.3
    gamma: float = 0.1
    p: float = 0.8
    alpha_schedule: str = "constant"
    episode_length: int = 50
    seed: int = 0
    retrieval_threshold: float = DEFAULT_THRESHOLD
    retain_min_visits: int = DEFAULT_RETAIN_MIN_VISITS
    case_max_size: int = DEFAULT_MAX_SIZE
    feature_weights: tuple = DEFAULT_WEIGHTS
    default_q: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        check_retrieval_params(self.feature_weights, self.retrieval_threshold)

    def learning_params(self) -> LearningParams:
        return LearningParams(self.alpha, self.gamma, self.p, self.alpha_schedule)


def hybrid_policy(table: QTable, s: SituationKey, catalog: ActionCatalog,
                  p: float, cf_store: TransactionStore, target: str,
                  rng: random.Random) -> tuple[ActionId, str]:
    """Exploit when q <= p; otherwise take CF advice, or a random action."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    q = rng.random()
    if q <= p:
        return greedy_action(table, s, catalog), EXPLOIT
    advice = cf_store.advise_action(target, s)
    if advice is not None:
        return advice, ADVISE
    return catalog.actions[rng.randrange(len(catalog))], RANDOM_FALLBACK


class Agent:
    """One user's recommender; owns its table, case base and rng."""

    def __init__(self, config: AgentConfig, catalog: ActionCatalog,
                 context: ContextModel, profile: Profile,
                 cf_store: Optional[TransactionStore] = None,
                 casebase: Optional[CaseBase] = None):
        self.config = config
        self.catalog = catalog
        self.context = context
        self.profile = profile
        self.params = config.learning_params()
        self.table = QTable(config.default_q)
        self.casebase = casebase if casebase is not None else CaseBase(
            context, config.feature_weights, config.retrieval_threshold,
            config.case_max_size)
        self.cf_store = cf_store if cf_store is not None else TransactionStore(
            catalog, context)
        self.rng = random.Random(config.seed)
        self.step_count = 0
        self.adapt_skipped = 0
        # lifetime per-situation outcome stats feeding case retention
        self._situation_stats: dict[SituationKey, list[float]] = {}
        self._episode_seen: set[SituationKey] = set()

    @property
    def user_id(self) -> str:
        return self.config.user_id

    # -- action selection ---------------------------------------------------

    def _select(self, s: SituationKey) -> tuple[ActionId, str]:
        variant = self.config.variant
        if variant == "GreedyQ":
            return greedy_action(self.table, s, self.catalog), EXPLOIT
        if variant == "EpsilonGreedyQ" or variant == "CBRQ":
            a, branch = epsilon_greedy_action(self.table, s, self.catalog,
                                              self.config.p, self.rng)
            return a, RANDOM_FALLBACK if branch == EXPLORE else branch
        if variant == "CFOnly":
            advice = self.cf_store.advise_action(self.user_id, s)
            if advice is not None:
                return advice, ADVISE
            return self.catalog.actions[self.rng.randrange(len(self.catalog))], RANDOM_FALLBACK
        return hybrid_policy(self.table, s, self.catalog, self.config.p,
                             self.cf_store, self.user_id, self.rng)

    def _maybe_bootstrap(self, s: SituationKey) -> bool:
        if self.config.variant not in _CASE_VARIANTS:
            return False
        if self.table.row_visits(s) > 0 or s in self.table.bootstrapped:
            return False
        result = self.casebase.retrieve(s)
        if result is None:
            return False
        if not adapt(result, s, self.table):
            self.adapt_skipped += 1
            return False
        return True

    # -- the step -------------------------------------------------------------

    def step(self, event: RawEvent, env) -> tuple[StepRecord, RawEvent]:
        """One full interaction: situate, maybe reuse a case, act, learn."""
        s = self.context.aggregate(event, self.profile, 0)
        bootstrapped = self._maybe_bootstrap(s)
        a, branch = self._select(s)
        if bootstrapped:
            branch = CASE_BOOTSTRAPPED
        r, next_event = env.step(self.user_id, a)
        s_next = self.context.aggregate(next_event, self.profile, 0)
        if self.config.variant in _Q_VARIANTS:
            self.table.update(s, a, r, s_next, self.catalog, self.params)
        self.cf_store.record_implicit(self.user_id, a,
                                      r >= POSITIVE_RATING_THRESHOLD, s)
        stats = self._situation_stats.setdefault(s, [0.0, 0.0])
        stats[0] += 1.0
        stats[1] += r
        self._episode_seen.add(s)
        record = StepRecord(self.step_count, s, a, branch, r, s_next)
        self.step_count += 1
        return record, next_event

    def end_episode(self) -> int:
        """Retain each well-visited situation of the finished day."""
        retained = 0
        for s in sorted(self._episode_seen, key=lambda k: k.canonical()):
            visits = self.table.row_visits(s)
            if self.config.variant not in _Q_VARIANTS:
                visits = int(self._situation_stats[s][0])
            if visits < self.config.retain_min_visits:
                continue
            count, total = self._situation_stats[s]
            self.casebase.retain(s, self.table.row(s), visits, total / count,
                                 self.user_id, self.step_count)
            retained += 1
        self._episode_seen.clear()
        return retained

    def run_episode(self, env, event: RawEvent,
                    length: Optional[int] = None) -> tuple[list[StepRecord], RawEvent]:
        length = length or self.config.episode_length
        records = []
        for _ in range(length):
            record, event = self.step(event, env)
            records.append(record)
        self.end_episode()
        return records, event

    def run(self, env, total_steps: int) -> list[StepRecord]:
        """Episodes of `episode_length` until the step budget is spent."""
        event = env.reset(self.user_id)
        trace: list[StepRecord] = []
        remaining = total_steps
        while remaining > 0:
            length = min(self.config.episode_length, remaining)
            records, event = self.run_episode(env, event, length)
            trace.extend(records)
            remaining -= length
        return trace

    # -- resets ---------------------------------------------------------------

    def reset(self, keep: frozenset[str] = frozenset()) -> "Agent":
        """Wipe components not named in `keep`; reseed the rng from config.

        keep may contain "qtable", "casebase" and "cf".
        """
        unknown = set(keep) - {"qtable", "casebase", "cf"}
        if unknown:
            raise ValueError(f"unknown keep components: {sorted(unknown)}")
        if "qtable" not in keep:
            self.table = QTable(self.config.default_q)
        if "casebase" not in keep:
            self.casebase = CaseBase(self.context, self.config.feature_weights,
                                     self.config.retrieval_threshold,
                                     self.config.case_max_size)
        if "cf" not in keep:
            self.cf_store = TransactionStore(self.catalog, self.context,
                                             self.cf_store.same_group_only)
        self.rng = random.Random(self.config.seed)
        self.step_count = 0
        self.adapt_skipped = 0
        self._situation_stats = {}
        self._episode_seen = set()
        return self
