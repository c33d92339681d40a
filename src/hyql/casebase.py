"""Case base: store finished (situation -> Q-row) experiences and reuse them.

A case pairs a problem description (the situation key's four feature
dimensions) with the Q-row that worked there, a list of values in catalog
order, and the visit count and step that rank it against equally similar
cases.
Retrieval is an argmax over a weighted per-dimension similarity; reuse
writes a similarity-scaled copy of the stored row into the live Q-table,
but only for a row the table does not hold yet, so learned values are
never clobbered by old cases.

The settings are fixed: the four dimensions weigh 0.25 each, and a case is
reused at a similarity of 0.8 or more. The base holds one case per problem
and evicts none: an agent retains only level-0 situations of its own social
group, and there are at most 16 time buckets x 7 places x 4 cognitive kinds
= 448 of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .context import CONTEXT, SituationKey
from .qlearn import QTable

FEATURE_WEIGHTS = (0.25, 0.25, 0.25, 0.25)  # time, place, group, cognitive
RETRIEVAL_THRESHOLD = 0.8


@dataclass
class Case:
    problem: SituationKey
    solution: list[float]  # Q value per catalog index
    visits: int
    step: int

    def __post_init__(self):
        if not self.solution:
            raise ValueError("a case needs a solution")
        if self.visits < 1:
            raise ValueError("a case needs at least one visit")
        for value in self.solution:
            if not math.isfinite(value):
                raise ValueError("case solution contains a non-finite value")


@dataclass(frozen=True)
class RetrievalResult:
    case: Case
    similarity: float


def _chain_match(chain_a: Sequence, chain_b: Sequence, levels: int) -> float:
    """Fraction of generalization levels at which two chains coincide."""
    hits = 0
    for level in range(levels):
        a = chain_a[min(level, len(chain_a) - 1)]
        b = chain_b[min(level, len(chain_b) - 1)]
        if a == b:
            hits += 1
    return hits / levels


def _time_chain(key: SituationKey) -> tuple:
    t = key.time  # (part of day, day class, calendar state)
    # generalize away the most volatile component first
    return t, t[:2], t[:1]


def case_similarity(problem_a: SituationKey, problem_b: SituationKey) -> float:
    """FEATURE_WEIGHTS-weighted per-dimension match in [0, 1].

    Time and place score the fraction of their generalization chains on
    which the two problems coincide; social group and cognitive class are
    exact-match 0/1.
    """
    time_match = _chain_match(_time_chain(problem_a), _time_chain(problem_b), 3)
    place_match = _chain_match(CONTEXT.place_chain(problem_a.place),
                               CONTEXT.place_chain(problem_b.place),
                               CONTEXT.depth + 1)
    group_match = 1.0 if problem_a.social_group == problem_b.social_group else 0.0
    cognitive_match = 1.0 if problem_a.cognitive == problem_b.cognitive else 0.0
    w_time, w_place, w_group, w_cog = FEATURE_WEIGHTS
    return (w_time * time_match + w_place * place_match
            + w_group * group_match + w_cog * cognitive_match)


class CaseBase:
    """One case per problem, in first-retained order."""

    def __init__(self):
        self.cases: dict[SituationKey, Case] = {}

    def __len__(self) -> int:
        return len(self.cases)

    def retrieve(self, problem: SituationKey) -> Optional[RetrievalResult]:
        """Most similar case at or above the threshold, or None.

        Ties: higher visit count, then earlier provenance step, then
        first-retained order.
        """
        best: Optional[Case] = None
        best_sim = -1.0
        for case in self.cases.values():
            sim = case_similarity(problem, case.problem)
            if best is None or (sim, case.visits, -case.step) > (best_sim, best.visits, -best.step):
                best, best_sim = case, sim
        if best is None or best_sim < RETRIEVAL_THRESHOLD:
            return None
        return RetrievalResult(best, best_sim)

    def retain(self, problem: SituationKey, q_row: Sequence[float],
               visits: int, step: int) -> None:
        """Store a finished experience, copying `q_row`; an equal problem is
        revised in place and keeps its position in the order.

        Equal means an equal key, not a similarity of 1.0: two keys that
        differ only in granularity score 1.0 and stay two cases.
        """
        self.cases[problem] = Case(problem, list(q_row), visits, step)


def adapt(result: RetrievalResult, target_s: SituationKey, table: QTable) -> bool:
    """Bootstrap an absent row with the similarity-scaled case solution.

    Returns False (and leaves the table untouched) when the table already
    holds a row for the target. An agent writes a row only here and in
    `QTable.update`, so a present row is one it has visited.
    """
    if table.row(target_s):
        return False
    for action, value in enumerate(result.case.solution):
        table.set_value(target_s, action, result.similarity * value)
    return True
