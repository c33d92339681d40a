"""Memory-based collaborative filtering over implicit 0/1 ratings.

Every transaction is a (user, item, rating) event tagged with the
situation in which it happened; an item is its catalog index, and advice
is an index too. The store keeps no log of them. It keeps last-write-wins
ratings per view and per user, as one bitset (a Python int in which bit i
stands for catalog item i) of the items rated 1. A rating of 0 and an
untouched item both read as 0, so only the positive votes are stored.
There is one view per generalized situation scope, so that advice can be
computed "for people like you, in situations like this one". Each view
also counts, per item, its users whose positive bit is set, and each user
caches its positive item indices as an ascending tuple; both change only
when a positive bit flips.

Similarity is the cosine between the 0/1 vectors, which on bitsets is
popcount(u & v) / sqrt(popcount(u) * popcount(v)). A predicted score adds
each neighbour's similarity to the items it rated 1, neighbour by
neighbour in neighbourhood order (descending similarity, then user id).
That order fixes the float summation order, so every score equals the one
a dense `weighted += sim * rating` loop over the same neighbourhood gives.

Advice in a view comes from the neighbours when there are any. Popularity
answers exactly when no other user in the view shares a positive item with
the target, which includes a target with no positive rating there: this is
the cold-start rule.
"""

from __future__ import annotations

import math
from typing import Optional

from .context import CONTEXT, SituationKey

DEFAULT_NEIGHBORS = 10  # the scenario's team size


class View:
    """One scope's ratings.

    `ratings` maps a user id to [bits of the items rated 1, indices of the
    items rated 1]; the indices are an ascending tuple, or None from a flip
    of a positive bit until the next read rebuilds them. A user who rated
    only 0s has an entry with no bit set. `counts[i]` is the number of users
    whose positive bit i is set.
    """

    __slots__ = ("ratings", "counts")

    def __init__(self, n_items: int):
        self.ratings: dict[str, list] = {}
        self.counts = [0] * n_items


def _positives(entry: list) -> tuple[int, ...]:
    """The indices of a user entry's positive bits, ascending."""
    indices = entry[1]
    if indices is None:
        found = []
        bits = entry[0]
        while bits:
            low = bits & -bits
            found.append(low.bit_length() - 1)
            bits ^= low
        indices = entry[1] = tuple(found)
    return indices


def _best_index(weighted: list[float], total: float) -> int:
    """The first index of the highest weighted[i] / total (total > 0).

    Dividing by a positive total never reverses an order, but it can round
    two different weights to one quotient. So the first index of the
    highest weight wins, unless an earlier, smaller weight rounds to the
    same quotient; only then are the earlier quotients computed.
    """
    high = max(weighted)
    best = weighted.index(high)
    if best and max(weighted[:best]) / total == high / total:
        best = [w / total for w in weighted[:best]].index(high / total)
    return best


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

    Each view maps a user id to its positive bits and their cached
    indices; a rating of 0 clears the positive bit. Each view also keeps
    its per-item count of positive bits, which `record_implicit` moves by
    one when a positive bit flips, the same moment it drops that user's
    cached indices. A situation has one view per granularity level, the
    scope of its key generalized to that level; the scope keeps the user's
    social group, so advice never crosses groups. Every transaction is
    indexed in all of its situation's views, which is what makes the
    coarser-granularity advice fallback cheap.
    `_views` resolves a situation to its views once and memoises them;
    keys come from a finite space (time buckets, gazetteer places, groups,
    cognitive classes), so the memo stays small.
    """

    def __init__(self, n_items: int):
        self.n_items = n_items
        self._count = 0  # transactions recorded
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
                self._scoped.setdefault((level, CONTEXT.generalize(s, level)),
                                        View(self.n_items))
                for level in range(CONTEXT.depth + 1))
        return views

    def record_implicit(self, user_id: str, item: int, positive: bool,
                        situation: SituationKey) -> None:
        """Record an implicit rating of the item at catalog index `item`:
        1 for an acceptance, else 0.

        The background stream calls this once per transaction, tens of
        thousands of times before a trial's first step, so the memo is read
        inline.
        """
        views = self._views_of.get(situation)
        if views is None:
            views = self._views(situation)
        bit = 1 << item
        self._count += 1
        for view in views:
            entry = view.ratings.get(user_id)
            if entry is None:
                view.ratings[user_id] = [bit, None] if positive else [0, ()]
                if positive:
                    view.counts[item] += 1
            elif entry[0] & bit:
                if not positive:  # a 1 overwritten by a 0
                    entry[0] ^= bit
                    entry[1] = None
                    view.counts[item] -= 1
            elif positive:  # a 0 overwritten by a 1
                entry[0] |= bit
                entry[1] = None
                view.counts[item] += 1

    # -- the CF pipeline ---------------------------------------------------

    def neighbors(self, view: View, target: str) -> list[tuple[str, float]]:
        """The DEFAULT_NEIGHBORS most similar other users with similarity > 0.

        Descending similarity, ties broken by ascending user id; that key is
        a total order, so the view's insertion order never shows. The cosine
        is positive exactly when two users share a positive bit, so a user
        sharing none is skipped without computing it, and a target with no
        positive bit has no neighbours at all.
        """
        entry = view.ratings.get(target)
        if entry is None or not entry[0]:
            return []
        target_bits = entry[0]
        scored = [(user_id, cosine_similarity(target_bits, bits))
                  for user_id, (bits, _) in view.ratings.items()
                  if bits & target_bits and user_id != target]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:DEFAULT_NEIGHBORS]

    def top_n(self, view: View, target: str) -> Optional[tuple[int, float]]:
        """The best (item index, score) over the catalog, ties by item index.

        An item's score is the similarity-weighted mean of the neighbours'
        ratings of it. No neighbours, no scores: None.
        """
        hood = self.neighbors(view, target)
        if not hood:
            return None
        ratings = view.ratings
        weighted = [0.0] * self.n_items
        for user_id, sim in hood:
            for i in _positives(ratings[user_id]):
                weighted[i] += sim
        total = sum(sim for _, sim in hood)
        best = _best_index(weighted, total)
        return best, weighted[best] / total

    def _popular_item(self, view: View, target: str) -> Optional[int]:
        """The item most other users in the view rated 1, ties by item index.

        Advice asks for it at a level exactly when no other user in that
        view shares a positive item with the target, a target with no
        positive rating there included. None when no other user in the
        view rated anything 1. The view's per-item counts, less the
        target's own positives, are those of the other users.
        """
        counts = view.counts
        entry = view.ratings.get(target)
        if entry is not None and entry[0]:
            counts = counts.copy()
            for i in _positives(entry):
                counts[i] -= 1
        best = max(counts)
        return counts.index(best) if best else None

    def advise_action(self, target: str, s: SituationKey) -> Optional[int]:
        """Top-1 recommendation for the situation, walking granularities:
        an item index, or None when no view gives advice.

        Tries the situation's views most specific first, until one yields
        advice. In each view, the advice is `top_n`'s item, without its score.
        Popularity answers exactly when no other user in the view shares a
        positive item with the target, which includes a target with no
        positive rating in the view (the cold-start rule): then the advice
        is the item most other users there rated 1. A view that gives
        neither passes to the next level.
        """
        for view in self._views(s):
            top = self.top_n(view, target)
            if top is not None:
                return top[0]
            fallback = self._popular_item(view, target)
            if fallback is not None:
                return fallback
        return None
