"""Memory-based collaborative filtering over implicit 0/1 ratings.

Every transaction is a (user, item, rating) event tagged with the
situation in which it happened. The store keeps no log of them. It keeps
last-write-wins ratings per view and per user, as two bitsets (Python ints
in which bit i stands for catalog item i): the items rated 1 and the items
rated at all. There is one view per generalized situation scope, so that
advice can be computed "for people like you, in situations like this one".
An untouched item reads as rating 0.

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
from typing import Optional

from .context import ContextModel, SituationKey
from .qlearn import ActionCatalog, ActionId, CatalogError

DEFAULT_NEIGHBORS = 10  # the scenario's team size

# A view: user id -> [bits of the items rated 1, bits of the items rated at all].
View = dict[str, list[int]]


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
    so `vector` tells a rated 0 from an untouched item. A situation has one
    view per granularity level, the scope of its key generalized to that
    level; the scope keeps the user's social group, so advice never
    crosses groups. Every transaction is indexed in all of its
    situation's views, which is what makes the coarser-granularity advice
    fallback cheap.
    `_views` resolves a situation to its views once and memoises them;
    keys come from a finite space (time buckets, gazetteer places, groups,
    cognitive classes), so the memo stays small.
    """

    def __init__(self, catalog: ActionCatalog, context: ContextModel):
        self.catalog = catalog
        self.context = context
        self._count = 0  # transactions recorded
        self._bit = {item: 1 << i for i, item in enumerate(catalog)}
        # (level, generalized scope key) -> view
        self._scoped: dict[tuple[int, SituationKey], View] = {}
        # situation -> its views, most specific first
        self._views_of: dict[SituationKey, tuple[View, ...]] = {}

    def __len__(self) -> int:
        return self._count

    def _views(self, s: SituationKey) -> tuple[View, ...]:
        """The views of the situation's scopes, one per level, level 0 first."""
        views = self._views_of.get(s)
        if views is None:
            views = self._views_of[s] = tuple(
                self._scoped.setdefault((level, self.context.generalize(s, level)), {})
                for level in range(self.context.depth + 1))
        return views

    def record_implicit(self, user_id: str, item: ActionId, positive: bool,
                        situation: SituationKey) -> None:
        """Record an implicit rating: 1 for an acceptance, else 0."""
        bit = self._bit.get(item)
        if bit is None:
            raise CatalogError(item)
        views = self._views(situation)
        self._count += 1
        for view in views:
            bits = view.get(user_id)
            if bits is None:
                view[user_id] = [bit if positive else 0, bit]
            else:
                bits[0] = bits[0] | bit if positive else bits[0] & ~bit
                bits[1] |= bit

    def vector(self, user_id: str, s: SituationKey, level: int) -> dict[ActionId, float]:
        """The user's rated items in the situation's view at `level`.

        Each reads 1.0 or 0.0; untouched items are absent.
        """
        positive, rated = self._views(s)[level].get(user_id, (0, 0))
        return {item: 1.0 if positive & bit else 0.0
                for item, bit in self._bit.items() if rated & bit}

    # -- the CF pipeline ---------------------------------------------------

    def neighbors(self, view: View, target: str,
                  k: int = DEFAULT_NEIGHBORS) -> list[tuple[str, float]]:
        """k most similar other users in the view with similarity > 0, sorted.

        Descending similarity, ties broken by ascending user id; that key is
        a total order, so the view's insertion order never shows. The cosine
        is positive exactly when two users share a positive bit, so a user
        sharing none is skipped without computing it.
        """
        if k <= 0:
            return []
        target_bits = view[target][0] if target in view else 0
        scored = [(user_id, cosine_similarity(target_bits, bits))
                  for user_id, (bits, _) in view.items()
                  if bits & target_bits and user_id != target]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def top_n(self, view: View, target: str, n: int,
              k: int = DEFAULT_NEIGHBORS) -> list[tuple[ActionId, float]]:
        """The n best (item, score) pairs over the catalog, ties by item index.

        An item's score is the similarity-weighted mean of the neighbours'
        ratings of it. No neighbours, no scores: the list is empty.
        """
        if n <= 0:
            return []
        hood = self.neighbors(view, target, k)
        if not hood:
            return []
        weighted = [0.0] * len(self.catalog)
        for user_id, sim in hood:
            bits = view[user_id][0]
            while bits:
                low = bits & -bits
                weighted[low.bit_length() - 1] += sim
                bits ^= low
        total = sum(sim for _, sim in hood)
        scores = [w / total for w in weighted]
        # nlargest keeps the first of equal scores, so ties go to the lower index
        best = heapq.nlargest(n, range(len(scores)), key=scores.__getitem__)
        actions = self.catalog.actions
        return [(actions[i], scores[i]) for i in best]

    def _popular_item(self, view: View, target: str) -> Optional[ActionId]:
        """The item most other users in the view rated 1, ties by item index.

        Advice asks for it at a level whenever no other user in that view
        has a positive cosine with the target, a target with history
        included. None when no other user in the view rated anything 1.

        The counts are bit-sliced: bit i of planes[j] is bit j of item i's
        count, and each user's positive bits are ripple-added into the
        planes. Narrowing the candidates from the top plane down keeps
        exactly the items with the highest count; the lowest set bit is the
        first of them.
        """
        planes: list[int] = []
        for user_id, (carry, _) in view.items():
            if not carry or user_id == target:
                continue
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        if not planes:
            return None
        best = planes[-1]  # never 0: a plane is added only for a carry out of the top
        for plane in reversed(planes[:-1]):
            if best & plane:
                best &= plane
        return self.catalog.actions[(best & -best).bit_length() - 1]

    def advise_action(self, target: str, s: SituationKey) -> Optional[ActionId]:
        """Top-1 recommendation for the situation, walking granularities.

        Tries the situation's views most specific first, until one yields
        advice. In each view, the advice is the best-scored item over the
        target's neighbours; when no other user in the view has a positive
        cosine with the target (whatever the target's own history), it is
        the view's most popular item instead. A view that gives neither
        passes to the next level.
        """
        for view in self._views(s):
            top = self.top_n(view, target, 1)
            if top:
                return top[0][0]
            fallback = self._popular_item(view, target)
            if fallback is not None:
                return fallback
        return None
