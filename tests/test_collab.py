import dataclasses
import math
import random

import pytest

from hyql.collab import GLOBAL_SCOPE, TransactionStore, cosine_similarity
from hyql.context import SituationKey, TimeBucket
from hyql.qlearn import ActionCatalog, CatalogError

ITEMS = ["a", "b", "c", "d", "e"]
CATALOG = ActionCatalog(ITEMS)


def skey(place="Office", cognitive="Navigate", bucket=("Morning", "Weekday", "Free"),
         group="g0", level=0):
    return SituationKey(TimeBucket(*bucket), place, group, cognitive, level)


# ---------------------------------------------------------------------------
# independent brute-force oracle (kept deliberately separate from the store)
# ---------------------------------------------------------------------------

def oracle_cosine(u_vec, v_vec, items):
    dot = norm_u = norm_v = 0.0
    for item in items:
        u, v = u_vec.get(item, 0.0), v_vec.get(item, 0.0)
        dot += u * v
        norm_u += u * u
        norm_v += v * v
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / math.sqrt(norm_u * norm_v)


def oracle_neighbors(vectors, target, k, items):
    scored = []
    for user in sorted(vectors):
        if user == target:
            continue
        sim = oracle_cosine(vectors.get(target, {}), vectors[user], items)
        if sim > 0.0:
            scored.append((user, sim))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


def oracle_predict(vectors, target, item, k, items):
    hood = oracle_neighbors(vectors, target, k, items)
    if not hood:
        return None
    weighted = sum(sim * vectors[u].get(item, 0.0) for u, sim in hood)
    total = sum(sim for _, sim in hood)
    return weighted / total


def oracle_top_n(vectors, target, n, exclude_rated, k, items, index):
    hood = oracle_neighbors(vectors, target, k, items)
    if not hood:
        return []
    total = sum(sim for _, sim in hood)
    scored = []
    for item in items:
        if exclude_rated and vectors.get(target, {}).get(item, 0.0) == 1.0:
            continue
        weighted = sum(sim * vectors[u].get(item, 0.0) for u, sim in hood)
        scored.append((item, weighted / total))
    scored.sort(key=lambda p: (-p[1], index[p[0]]))
    return scored[:n]


def oracle_popular(vectors, target, items):
    others = [vectors[u] for u in sorted(vectors) if u != target]
    best_item, best_score = None, 0.0
    for item in items:
        score = sum(vec.get(item, 0.0) for vec in others) / len(others) if others else 0.0
        if score > best_score:
            best_item, best_score = item, score
    return best_item


def oracle_views(stream, context, same_group_only):
    """Last-write-wins rating dicts per view, replayed from the raw stream.

    Keys: GLOBAL_SCOPE, or (level, generalized key), its group blanked to
    "*" when the store pools all groups.
    """
    views = {GLOBAL_SCOPE: {}}
    for user, item, positive, s in stream:
        keys = [GLOBAL_SCOPE]
        if s is not None:
            keys += [(level, oracle_scope_key(context.generalize(s, level), same_group_only))
                     for level in range(context.depth + 1)]
        for key in keys:
            views.setdefault(key, {}).setdefault(user, {})[item] = 1.0 if positive else 0.0
    return views


def oracle_scope_key(key, same_group_only):
    return key if same_group_only else dataclasses.replace(key, social_group="*")


def bits(vec, catalog=CATALOG):
    """A 0/1 rating dict as the store's bitset: bit i is catalog item i rated 1."""
    return sum(1 << catalog.index(item) for item, rating in vec.items() if rating == 1.0)


def store_with(ratings):
    """ratings: iterable of (user, item, positive)"""
    store = TransactionStore(CATALOG)
    for user, item, positive in ratings:
        store.record_implicit(user, item, positive)
    return store


class TestRecordImplicit:
    def test_accept_writes_one(self):
        store = store_with([("u1", "a", True)])
        assert store.vector("u1") == {"a": 1.0}

    def test_untouched_item_reads_zero(self):
        store = store_with([("u1", "a", True)])
        assert store.vector("u1").get("b", 0.0) == 0.0

    def test_last_write_wins(self):
        store = store_with([("u1", "a", True), ("u1", "a", False)])
        assert store.vector("u1")["a"] == 0.0
        assert len(store) == 2  # raw log stays append-only

    def test_unknown_item_rejected(self):
        store = TransactionStore(CATALOG)
        with pytest.raises(CatalogError):
            store.record_implicit("u1", "zz", True)


class TestCosine:
    def test_identical_nonzero_vectors(self):
        v = bits({"a": 1.0, "c": 1.0})
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert cosine_similarity(bits({"a": 1.0, "b": 1.0}), bits({"c": 1.0})) == 0.0

    def test_hand_value(self):
        # (1,1,0) . (1,0,1) = 1, norms sqrt(2) * sqrt(2) -> 0.5
        assert cosine_similarity(bits({"a": 1.0, "b": 1.0}),
                                 bits({"a": 1.0, "c": 1.0})) == pytest.approx(0.5, abs=0)

    def test_symmetric_range_reflexive(self):
        rng = random.Random(10)
        for _ in range(200):
            u = bits({i: 1.0 for i in ITEMS if rng.random() < 0.5})
            v = bits({i: 1.0 for i in ITEMS if rng.random() < 0.5})
            s_uv = cosine_similarity(u, v)
            assert s_uv == cosine_similarity(v, u)
            assert 0.0 <= s_uv <= 1.0 + 1e-12
            if u:
                assert cosine_similarity(u, u) == pytest.approx(1.0)

    def test_equals_the_dense_oracle_bit_for_bit(self):
        rng = random.Random(14)
        items = [f"i{n:03d}" for n in range(150)]  # wider than a machine word
        catalog = ActionCatalog(items)
        for _ in range(300):
            density = rng.random()
            u = {i: 1.0 for i in items if rng.random() < density}
            v = {i: 1.0 for i in items if rng.random() < density}
            assert cosine_similarity(bits(u, catalog), bits(v, catalog)) == \
                oracle_cosine(u, v, items)


class TestNeighbors:
    def test_target_with_no_transactions(self):
        store = store_with([("u1", "a", True), ("u2", "a", True)])
        assert store.neighbors("stranger") == []

    def test_k_zero(self):
        store = store_with([("u1", "a", True), ("u2", "a", True)])
        assert store.neighbors("u1", k=0) == []

    def test_four_user_store_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            ratings = [(f"u{i}", item, rng.random() < 0.6)
                       for i in range(4) for item in ITEMS if rng.random() < 0.7]
            store = store_with(ratings)
            vectors = {u: store.vector(u) for u in [f"u{i}" for i in range(4)]}
            for target in vectors:
                for k in (1, 2, 10):
                    assert store.neighbors(target, k) == \
                        oracle_neighbors(vectors, target, k, ITEMS)


class TestPredictRating:
    def test_single_perfect_neighbor(self):
        store = store_with([("t", "a", True), ("n", "a", True), ("n", "d", True)])
        # n's vector {a, d}: sim(t, n) = 1/sqrt(2); only neighbor
        pred = store.predict_rating("t", "d")
        assert pred is not None
        assert pred.score == pytest.approx(1.0)
        assert pred.support == 1

    def test_hand_weighted_mean(self):
        # target {a,b}; n_full {a,b} sim 1.0 rates d=0; n_half {a,d} sim 0.5
        # rates d=1 -> (1.0*0 + 0.5*1) / 1.5 = 1/3
        store = store_with([
            ("t", "a", True), ("t", "b", True),
            ("n_full", "a", True), ("n_full", "b", True),
            ("n_half", "a", True), ("n_half", "d", True),
        ])
        pred = store.predict_rating("t", "d")
        assert pred.score == pytest.approx(1 / 3, abs=0)
        assert pred.support == 2

    def test_no_neighbors_gives_none(self):
        store = store_with([("t", "a", True), ("n", "b", True)])
        assert store.predict_rating("t", "d") is None


class TestTopN:
    def test_n_zero(self):
        store = store_with([("t", "a", True), ("n", "a", True)])
        assert store.top_n("t", 0) == []

    def test_exclude_rated_can_empty_the_list(self):
        ratings = [("t", item, True) for item in ITEMS]
        ratings += [("n", item, True) for item in ITEMS]
        store = store_with(ratings)
        assert store.top_n("t", 3, exclude_rated=True) == []

    def test_small_store_matches_oracle(self):
        rng = random.Random(12)
        index = {item: i for i, item in enumerate(ITEMS)}
        for _ in range(60):
            users = [f"u{i}" for i in range(3)]
            ratings = [(u, item, rng.random() < 0.5)
                       for u in users for item in ITEMS[:4] if rng.random() < 0.8]
            store = store_with(ratings)
            vectors = {u: store.vector(u) for u in users}
            for target in users:
                for exclude in (False, True):
                    got = store.top_n(target, 4, exclude_rated=exclude)
                    want = oracle_top_n(vectors, target, 4, exclude, 10, ITEMS, index)
                    assert [(p.item, p.score) for p in got] == want


class TestAdviseAction:
    def test_new_user_gets_group_popular_item(self, context):
        store = TransactionStore(CATALOG, context)
        s = skey()
        for i in range(4):
            store.record_implicit(f"u{i}", "c", True, situation=s)
            store.record_implicit(f"u{i}", "a", False, situation=s)
        # brute force over the scoped store: "c" is unanimously accepted
        assert store.advise_action("newcomer", s) == "c"

    def test_empty_store_gives_none(self, context):
        store = TransactionStore(CATALOG, context)
        assert store.advise_action("u1", skey()) is None

    def test_coarser_granularity_fallback(self, context):
        store = TransactionStore(CATALOG, context)
        target_key = skey(place="Office")
        # group history exists only at Home, another leaf under the same city
        home = skey(place="Home")
        for i in range(3):
            store.record_implicit(f"u{i}", "b", True, situation=home)
        # level-0 scope (Office) is empty; level-1 scope (Paris) has the data
        assert store.advise_action("newcomer", target_key) == "b"
        # per-level brute force: level 0 view empty, level 1 view holds b
        assert store.top_n("newcomer", 1, scope=(0, target_key)) == []
        level1 = context.generalize(target_key, 1)
        assert store.vector("u0", (1, level1)) == {"b": 1.0}  # visible at the city level

    def test_advice_stays_in_catalog(self, context):
        rng = random.Random(13)
        store = TransactionStore(CATALOG, context)
        situations = [skey(), skey(place="Home"), skey(cognitive="Call")]
        for _ in range(300):
            user = f"u{rng.randrange(5)}"
            item = ITEMS[rng.randrange(len(ITEMS))]
            s = situations[rng.randrange(len(situations))]
            store.record_implicit(user, item, rng.random() < 0.5, s)
            advice = store.advise_action(user, situations[rng.randrange(3)])
            assert advice is None or advice in CATALOG

    def test_different_group_not_consulted(self, context):
        store = TransactionStore(CATALOG, context)
        other = skey(group="g1")
        for i in range(3):
            store.record_implicit(f"u{i}", "b", True, situation=other)
        assert store.advise_action("newcomer", skey(group="g0")) is None

    def test_whole_population_mode(self, context):
        store = TransactionStore(CATALOG, context, same_group_only=False)
        other = skey(group="g1")
        for i in range(3):
            store.record_implicit(f"u{i}", "b", True, situation=other)
        assert store.advise_action("newcomer", skey(group="g0")) == "b"


class TestStoreMatchesOracles:
    """Random accept/reject streams through the store and the dict oracles.

    80 items, so the bitsets outgrow a machine word; hot items are written
    over and over, so 1s are overwritten by 0s. Every similarity, score and
    piece of advice must equal the oracle's exactly.
    """

    @pytest.mark.parametrize("same_group_only", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams_match(self, context, seed, same_group_only):
        rng = random.Random(seed)
        items = [f"i{n:02d}" for n in range(80)]
        catalog = ActionCatalog(items)
        index = {item: i for i, item in enumerate(items)}
        hot = items[:10] + items[62:70]
        users = [f"u{i}" for i in range(6)]
        situations = [skey(), skey(place="Home"), skey(cognitive="Call"),
                      skey(group="g1"), skey(place="Home", group="g1")]
        store = TransactionStore(catalog, context, same_group_only)
        stream = []
        last = {}
        overwrites = 0
        for checkpoint in (150, 400):
            while len(stream) < checkpoint:
                user = rng.choice(users)
                item = rng.choice(hot) if rng.random() < 0.7 else rng.choice(items)
                positive = rng.random() < 0.5
                s = rng.choice(situations + [None])
                store.record_implicit(user, item, positive, s)
                stream.append((user, item, positive, s))
                overwrites += last.get((user, item)) is True and not positive
                last[(user, item)] = positive
            self._check(store, oracle_views(stream, context, same_group_only),
                        situations, users + ["stranger"], items, index,
                        context, same_group_only)
        assert overwrites > 0

    def _check(self, store, views, situations, targets, items, index, context,
               same_group_only):
        scopes = {GLOBAL_SCOPE: GLOBAL_SCOPE}
        for s in situations:
            for level in range(context.depth + 1):
                scope = (level, context.generalize(s, level))
                scopes[scope] = (level, oracle_scope_key(scope[1], same_group_only))
        for scope, oracle_key in scopes.items():
            vectors = views.get(oracle_key, {})
            for target in targets:
                # a rated 0 is present as 0.0, an untouched item is absent
                assert store.vector(target, scope) == vectors.get(target, {})
                for k in (2, 10):
                    assert store.neighbors(target, k, scope) == \
                        oracle_neighbors(vectors, target, k, items)
                    for item in (items[0], items[65], items[40]):
                        got = store.predict_rating(target, item, k, scope)
                        want = oracle_predict(vectors, target, item, k, items)
                        assert (None if got is None else got.score) == want
                    for n in (1, 5):
                        for exclude in (False, True):
                            got = store.top_n(target, n, exclude, k, scope)
                            assert [(p.item, p.score) for p in got] == \
                                oracle_top_n(vectors, target, n, exclude, k, items, index)
        for s in situations:
            for target in targets:
                assert store.advise_action(target, s) == \
                    oracle_advise(views, target, s, items, index, context, same_group_only)


def oracle_advise(views, target, s, items, index, context, same_group_only):
    for level in range(context.depth + 1):
        key = (level, oracle_scope_key(context.generalize(s, level), same_group_only))
        vectors = views.get(key, {})
        top = oracle_top_n(vectors, target, 1, False, 10, items, index)
        if top:
            return top[0][0]
        popular = oracle_popular(vectors, target, items)
        if popular is not None:
            return popular
    return None
