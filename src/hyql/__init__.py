"""Hybrid Q-learning recommender: Q-table learning whose exploration takes
collaborative-filtering advice and whose unseen states bootstrap from a
case base, plus the synthetic context environment and benchmark harness
used to exercise it."""

from .agent import Agent, AgentConfig, hybrid_policy
from .casebase import Case, CaseBase, RetrievalResult, adapt, case_similarity, compute_cost
from .collab import TransactionStore, cosine_similarity
from .context import (CalendarEntry, CognitiveAction, ContextModel, PlaceNode,
                      Profile, RawEvent, SituationKey, TimeBucket, abstract_time)
from .qlearn import (ActionCatalog, ExplicitMDP, LearningParams, QTable, StepRecord,
                     epsilon_greedy_action, greedy_action, random_mdp,
                     value_iteration)
from .simenv import (DriftOp, RoutineTriple, SimEnv, UserProfile, WorldModel,
                     apply_drift, build_population, gen_event, reward,
                     world_from_scenario)
from .store import PreferenceRecord, RunStore, UserRecord

__version__ = "0.1.0"
