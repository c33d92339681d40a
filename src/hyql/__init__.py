"""Hybrid Q-learning recommender: Q-table learning whose exploration takes
collaborative-filtering advice and whose unseen states bootstrap from a
case base, plus the synthetic context environment and benchmark harness
used to exercise it."""

from .agent import Agent, AgentConfig, hybrid_policy
from .casebase import Case, CaseBase, RetrievalResult, adapt, case_similarity
from .collab import TransactionStore, cosine_similarity
from .context import (CalendarEntry, CognitiveAction, ContextModel, PlaceNode,
                      RawEvent, SituationKey, TimeBucket, abstract_time)
from .qlearn import (LearningParams, QTable, StepRecord, epsilon_greedy_action,
                     greedy_action)
from .simenv import (DriftOp, Habit, Scenario, SimEnv, UserProfile, WorldModel,
                     apply_drift, gen_event, parse_scenario, reward,
                     world_from_scenario)
from .store import PreferenceRecord, RunStore

__version__ = "0.1.0"
