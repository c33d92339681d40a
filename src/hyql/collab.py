"""Memory-based collaborative filtering over implicit 0/1 ratings.

Every transaction is a (user, item, rating) event, optionally tagged with
the situation in which it happened. The store keeps no log of them. It
keeps last-write-wins ratings per view and per user, as two bitsets
(Python ints in which bit i stands for catalog item i): the items rated 1
and the items rated at all. There is one global view and one view per
generalized situation scope, so that advice can be computed "for people
like you, in situations like this one". An untouched item reads as
rating 0.

Similarity is the cosine between the 0/1 vectors, which on bitsets is
popcount(u & v) / sqrt(popcount(u) * popcount(v)). A predicted score adds
each neighbour's similarity to the items it rated 1, neighbour by
neighbour in neighbourhood order (descending similarity, then user id).
That order fixes the float summation order, so every score equals the one
a dense `weighted += sim * rating` loop over the same neighbourhood gives.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .context import ContextModel, SituationKey
from .qlearn import ActionCatalog, ActionId, CatalogError

DEFAULT_NEIGHBORS = 10  # the scenario's team size

# Scope token for the unscoped, whole-history view.
GLOBAL_SCOPE = None

# A view: user id -> [bits of the items rated 1, bits of the items rated at all].
View = dict[str, list[int]]


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


def cosine_similarity(u_bits: int, v_bits: int) -> float:
    """Cosine of two 0/1 vectors given as bitsets; 0 when either is empty.

    The dot product and both squared norms of 0/1 vectors are exact
    integer counts, so only the square root and the division round, as
    they do in the dense dot/(|u||v|).
    """
    if not u_bits or not v_bits:
        return 0.0
    return (u_bits & v_bits).bit_count() / math.sqrt(u_bits.bit_count() * v_bits.bit_count())


class TransactionStore:
    """Bitset rating views, fed one implicit transaction at a time.

    Each view maps a user id to two ints, the positive bits and the rated
    bits; a rating of 0 clears the positive bit and keeps the rated one,
    so `vector` tells a rated 0 from an untouched item. When built with a
    ContextModel, every situation-tagged transaction is also indexed under
    each generalization of its situation key, which is what makes the
    coarser-granularity advice fallback cheap. The views one situation's
    writes touch are resolved once and memoised per SituationKey; keys come
    from a finite space (time buckets, gazetteer places, groups, cognitive
    classes), so the memo stays small.
    """

    def __init__(self, catalog: ActionCatalog, context: Optional[ContextModel] = None,
                 same_group_only: bool = True):
        self.catalog = catalog
        self.context = context
        self.same_group_only = same_group_only
        self._count = 0  # transactions recorded
        self._bit = {item: 1 << i for i, item in enumerate(catalog)}
        self._global: View = {}
        # (level, scope key string) -> view
        self._scoped: dict[tuple[int, str], View] = {}
        # situation -> the views its writes touch, the global one first
        self._views_of: dict[SituationKey, tuple[View, ...]] = {}

    def __len__(self) -> int:
        return self._count

    def _scope_token(self, key: SituationKey) -> str:
        if self.same_group_only:
            return key.canonical()
        # group-agnostic view: blank out the social group
        return SituationKey(key.time, key.place, "*", key.cognitive,
                            key.granularity).canonical()

    def _views_for(self, situation: SituationKey) -> tuple[View, ...]:
        views = [self._global]
        for level in range(self.context.depth + 1):
            token = (level, self._scope_token(self.context.generalize(situation, level)))
            views.append(self._scoped.setdefault(token, {}))
        return tuple(views)

    def record_implicit(self, user_id: str, item: ActionId, positive: bool,
                        situation: Optional[SituationKey] = None) -> None:
        """Record an implicit rating: 1 for an acceptance, else 0."""
        bit = self._bit.get(item)
        if bit is None:
            raise CatalogError(item)
        views: tuple[View, ...] = (self._global,)
        if situation is not None and self.context is not None:
            views = self._views_of.get(situation)
            if views is None:
                views = self._views_of[situation] = self._views_for(situation)
        self._count += 1
        for view in views:
            bits = view.get(user_id)
            if bits is None:
                view[user_id] = [bit if positive else 0, bit]
            else:
                bits[0] = bits[0] | bit if positive else bits[0] & ~bit
                bits[1] |= bit

    # -- views ------------------------------------------------------------

    def _view(self, scope: Optional[tuple[int, SituationKey]]) -> View:
        if scope is GLOBAL_SCOPE:
            return self._global
        level, key = scope
        return self._scoped.get((level, self._scope_token(key)), {})

    def vector(self, user_id: str, scope=GLOBAL_SCOPE) -> dict[ActionId, float]:
        """The user's rated items in a view, each 1.0 or 0.0; untouched items are absent."""
        positive, rated = self._view(scope).get(user_id, (0, 0))
        return {item: 1.0 if positive & bit else 0.0
                for item, bit in self._bit.items() if rated & bit}

    # -- the CF pipeline ---------------------------------------------------

    def neighbors(self, target: str, k: int = DEFAULT_NEIGHBORS,
                  scope=GLOBAL_SCOPE) -> list[tuple[str, float]]:
        """k most similar other users with similarity > 0, sorted.

        Descending similarity, ties broken by ascending user id.
        """
        if k <= 0:
            return []
        view = self._view(scope)
        target_bits = view[target][0] if target in view else 0
        scored = []
        for user_id in sorted(view):
            if user_id == target:
                continue
            sim = cosine_similarity(target_bits, view[user_id][0])
            if sim > 0.0:
                scored.append((user_id, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def predict_rating(self, target: str, item: ActionId, k: int = DEFAULT_NEIGHBORS,
                       scope=GLOBAL_SCOPE) -> Optional[Prediction]:
        """Similarity-weighted mean of the neighbors' ratings for one item."""
        bit = self._bit.get(item)
        if bit is None:
            raise CatalogError(item)
        hood = self.neighbors(target, k, scope)
        if not hood:
            return None
        view = self._view(scope)
        weighted = 0.0
        total = 0.0
        for user_id, sim in hood:
            if view[user_id][0] & bit:
                weighted += sim
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
        weighted = [0.0] * len(self.catalog)
        for user_id, sim in hood:
            bits = view[user_id][0]
            while bits:
                low = bits & -bits
                weighted[low.bit_length() - 1] += sim
                bits ^= low
        total = sum(sim for _, sim in hood)
        scores = [w / total for w in weighted]
        skip = view[target][0] if exclude_rated and target in view else 0
        candidates = (i for i in range(len(scores)) if not skip >> i & 1)
        # nlargest keeps the first of equal scores, so ties go to the lower index
        best = heapq.nlargest(n, candidates, key=scores.__getitem__)
        actions = self.catalog.actions
        return [Prediction(actions[i], scores[i], len(hood)) for i in best]

    def _popular_item(self, target: str, scope) -> Optional[ActionId]:
        """Group-popularity advice for a user with no usable history yet."""
        view = self._view(scope)
        counts = [0] * len(self.catalog)
        for user_id, (bits, _) in view.items():
            if user_id == target:
                continue
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1
                bits ^= low
        best = max(range(len(counts)), key=counts.__getitem__)
        return self.catalog.actions[best] if counts[best] else None

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
