"""Memory-based collaborative filtering over implicit 0/1 ratings.

Every transaction is a (user, item, rating) event, optionally tagged with
the situation in which it happened; the store keeps no log of them but
materializes last-write-wins rating vectors per user, both globally and
per generalized situation scope, so that advice can be computed "for
people like you, in situations like this one". An untouched item reads as rating 0. Similarity is the cosine
between the 0/1 vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .context import ContextModel, SituationKey
from .qlearn import ActionCatalog, ActionId, CatalogError

DEFAULT_NEIGHBORS = 10  # the scenario's team size

# Scope token for the unscoped, whole-history view.
GLOBAL_SCOPE = None


@dataclass(frozen=True)
class Prediction:
    item: ActionId
    score: float
    support: int

    def __post_init__(self):
        if self.support < 1:
            raise ValueError("a prediction needs at least one neighbor")
        if not math.isfinite(self.score):
            raise ValueError("prediction score must be finite")


def cosine_similarity(u_vec: dict[ActionId, float], v_vec: dict[ActionId, float],
                      catalog: ActionCatalog) -> float:
    """dot/(|u||v|) over the shared catalog; 0 when either norm is 0."""
    dot = 0.0
    norm_u = 0.0
    norm_v = 0.0
    for item in catalog:
        u = u_vec.get(item, 0.0)
        v = v_vec.get(item, 0.0)
        dot += u * v
        norm_u += u * u
        norm_v += v * v
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / math.sqrt(norm_u * norm_v)


class TransactionStore:
    """Materialized rating vectors, fed one implicit transaction at a time.

    When built with a ContextModel, every situation-tagged transaction is
    also indexed under each generalization of its situation key, which is
    what makes the coarser-granularity advice fallback cheap.
    """

    def __init__(self, catalog: ActionCatalog, context: Optional[ContextModel] = None,
                 same_group_only: bool = True):
        self.catalog = catalog
        self.context = context
        self.same_group_only = same_group_only
        self._count = 0  # transactions recorded
        # user -> item -> latest rating, over all transactions
        self._global: dict[str, dict[ActionId, float]] = {}
        # (level, scope key string) -> user -> item -> latest rating
        self._scoped: dict[tuple[int, str], dict[str, dict[ActionId, float]]] = {}

    def __len__(self) -> int:
        return self._count

    def _scope_token(self, key: SituationKey) -> str:
        if self.same_group_only:
            return key.canonical()
        # group-agnostic view: blank out the social group
        return SituationKey(key.time, key.place, "*", key.cognitive,
                            key.granularity).canonical()

    def record_implicit(self, user_id: str, item: ActionId, positive: bool,
                        situation: Optional[SituationKey] = None) -> None:
        """Record an implicit rating: 1.0 for an acceptance, else 0.0."""
        if item not in self.catalog:
            raise CatalogError(item)
        rating = 1.0 if positive else 0.0
        self._count += 1
        self._global.setdefault(user_id, {})[item] = rating
        if situation is not None and self.context is not None:
            for level in range(self.context.depth + 1):
                scoped_key = self.context.generalize(situation, level)
                token = (level, self._scope_token(scoped_key))
                self._scoped.setdefault(token, {}).setdefault(user_id, {})[item] = rating

    # -- views ------------------------------------------------------------

    def _view(self, scope: Optional[tuple[int, SituationKey]]) -> dict[str, dict[ActionId, float]]:
        if scope is GLOBAL_SCOPE:
            return self._global
        level, key = scope
        return self._scoped.get((level, self._scope_token(key)), {})

    def vector(self, user_id: str, scope=GLOBAL_SCOPE) -> dict[ActionId, float]:
        return dict(self._view(scope).get(user_id, {}))

    # -- the CF pipeline ---------------------------------------------------

    def neighbors(self, target: str, k: int = DEFAULT_NEIGHBORS,
                  scope=GLOBAL_SCOPE) -> list[tuple[str, float]]:
        """k most similar other users with similarity > 0, sorted.

        Descending similarity, ties broken by ascending user id.
        """
        if k <= 0:
            return []
        view = self._view(scope)
        target_vec = view.get(target, {})
        scored = []
        for user_id in sorted(view):
            if user_id == target:
                continue
            sim = cosine_similarity(target_vec, view[user_id], self.catalog)
            if sim > 0.0:
                scored.append((user_id, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def predict_rating(self, target: str, item: ActionId, k: int = DEFAULT_NEIGHBORS,
                       scope=GLOBAL_SCOPE) -> Optional[Prediction]:
        """Similarity-weighted mean of the neighbors' ratings for one item."""
        if item not in self.catalog:
            raise CatalogError(item)
        hood = self.neighbors(target, k, scope)
        if not hood:
            return None
        view = self._view(scope)
        weighted = 0.0
        total = 0.0
        for user_id, sim in hood:
            weighted += sim * view[user_id].get(item, 0.0)
            total += sim
        return Prediction(item, weighted / total, len(hood))

    def top_n(self, target: str, n: int, exclude_rated: bool = False,
              k: int = DEFAULT_NEIGHBORS, scope=GLOBAL_SCOPE) -> list[Prediction]:
        """Best-first predictions over the catalog, ties by item index."""
        if n <= 0:
            return []
        hood = self.neighbors(target, k, scope)
        if not hood:
            return []
        view = self._view(scope)
        target_vec = view.get(target, {})
        total = sum(sim for _, sim in hood)
        predictions = []
        for item in self.catalog:
            if exclude_rated and target_vec.get(item, 0.0) == 1.0:
                continue
            weighted = 0.0
            for user_id, sim in hood:
                weighted += sim * view[user_id].get(item, 0.0)
            predictions.append(Prediction(item, weighted / total, len(hood)))
        predictions.sort(key=lambda p: (-p.score, self.catalog.index(p.item)))
        return predictions[:n]

    def _popular_item(self, target: str, scope) -> Optional[ActionId]:
        """Group-popularity advice for a user with no usable history yet."""
        view = self._view(scope)
        others = [view[u] for u in sorted(view) if u != target]
        if not others:
            return None
        best_item = None
        best_score = 0.0
        for item in self.catalog:
            score = sum(vec.get(item, 0.0) for vec in others) / len(others)
            if score > best_score:
                best_item, best_score = item, score
        return best_item

    def advise_action(self, target: str, s: SituationKey) -> Optional[ActionId]:
        """Top-1 recommendation for the situation, walking granularities.

        Tries the most specific scope first and generalizes the key until
        some view yields advice. A target whose scoped vector is all zero
        gets group-popularity advice instead of similarity-weighted advice
        (a brand-new user defaults to the habits of the social group).
        """
        if self.context is None:
            raise ValueError("situation-scoped advice needs a ContextModel")
        for level in range(self.context.depth + 1):
            scope = (level, self.context.generalize(s, level))
            top = self.top_n(target, 1, scope=scope)
            if top:
                return top[0].item
            fallback = self._popular_item(target, scope)
            if fallback is not None:
                return fallback
        return None

