import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import positive_items
from hyql.collab import TransactionStore, _best_index, cosine_similarity
from hyql.context import CONTEXT, SituationKey, TimeBucket

# The store takes and answers catalog indices; the dict oracles below name
# items by id, so every comparison reads a store's index through the id tuple.
ITEMS = ("a", "b", "c", "d", "e")
INDEX = {item: i for i, item in enumerate(ITEMS)}


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


def oracle_top_n(vectors, target, n, k, items, index):
    hood = oracle_neighbors(vectors, target, k, items)
    if not hood:
        return []
    total = sum(sim for _, sim in hood)
    scored = []
    for item in items:
        weighted = sum(sim * vectors[u].get(item, 0.0) for u, sim in hood)
        scored.append((item, weighted / total))
    scored.sort(key=lambda p: (-p[1], index[p[0]]))
    return scored[:n]


def oracle_top(vectors, target, items, index):
    """What top_n gives: the oracle's best (item, score) over 10 neighbours,
    or None when it has none."""
    top = oracle_top_n(vectors, target, 1, 10, items, index)
    return top[0] if top else None


def oracle_popular(vectors, target, items):
    others = [vectors[u] for u in sorted(vectors) if u != target]
    best_item, best_score = None, 0.0
    for item in items:
        score = sum(vec.get(item, 0.0) for vec in others) / len(others) if others else 0.0
        if score > best_score:
            best_item, best_score = item, score
    return best_item


def oracle_views(stream):
    """Last-write-wins rating dicts per view, replayed from the raw stream;
    a rated 0 is present as 0.0.

    Keys: (level, generalized key); the key keeps the social group.
    """
    views = {}
    for user, item, positive, s in stream:
        for level in range(CONTEXT.depth + 1):
            key = (level, CONTEXT.generalize(s, level))
            views.setdefault(key, {}).setdefault(user, {})[item] = 1.0 if positive else 0.0
    return views


def bits(vec, items=ITEMS):
    """A 0/1 rating dict as the store's bitset: bit i is catalog item i rated 1."""
    return sum(1 << items.index(item) for item, rating in vec.items() if rating == 1.0)


def item_id(index, items=ITEMS):
    """A store's item index (or None) read through the id tuple."""
    return None if index is None else items[index]


def top_ids(top, items=ITEMS):
    """top_n's (index, score), or None, with the index read as the item id."""
    return None if top is None else (items[top[0]], top[1])


def rated_one(store, user_id, s, level=0, items=ITEMS):
    """positive_items with each index read as the item id."""
    return {items[i]: rating for i, rating in positive_items(store, user_id, s, level).items()}


S = skey()


def store_with(ratings):
    """ratings: iterable of (user, item id, positive), all in situation S"""
    store = TransactionStore(len(ITEMS))
    for user, item, positive in ratings:
        store.record_implicit(user, INDEX[item], positive, S)
    return store


def view_of(store, s=S):
    """The situation's level-0 view."""
    return store._views(s)[0]


def store_of_rows(n_items, rows):
    """A store whose views of S hold `rows`, written through record_implicit.

    rows: user -> (bits of the items rated 1, bits of the items rated 0 or
    1), users in the dict's order; each rated item is written once, so a
    user who rated only 0s still has an entry.
    """
    store = TransactionStore(n_items)
    for user, (positive, rated) in rows.items():
        for i in range(n_items):
            if (positive | rated) >> i & 1:
                store.record_implicit(user, i, bool(positive >> i & 1), S)
    return store


def top_and_oracle(store, target, users):
    """top_n of the target in S's level-0 view, and the oracle's answer."""
    vectors = {user: rated_one(store, user, S) for user in users}
    return (top_ids(store.top_n(view_of(store), target)),
            oracle_top(vectors, target, ITEMS, INDEX))


class TestRecordImplicit:
    def test_accept_writes_one(self):
        store = store_with([("u1", "a", True)])
        # indexed under every generalization of its situation
        for level in range(CONTEXT.depth + 1):
            assert rated_one(store, "u1", S, level) == {"a": 1.0}

    def test_untouched_item_reads_zero(self):
        store = store_with([("u1", "a", True)])
        assert rated_one(store, "u1", S).get("b", 0.0) == 0.0

    def test_last_write_wins(self):
        store = store_with([("u1", "a", True), ("u1", "a", False)])
        assert rated_one(store, "u1", S) == {}
        assert len(store) == 2  # counts transactions, not distinct ratings


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
        items = tuple(f"i{n:03d}" for n in range(150))  # wider than a machine word
        for _ in range(300):
            density = rng.random()
            u = {i: 1.0 for i in items if rng.random() < density}
            v = {i: 1.0 for i in items if rng.random() < density}
            assert cosine_similarity(bits(u, items), bits(v, items)) == \
                oracle_cosine(u, v, items)


class TestNeighbors:
    def test_target_with_no_transactions(self):
        store = store_with([("u1", "a", True), ("u2", "a", True)])
        assert store.neighbors(view_of(store), "stranger") == []

    def test_four_user_store_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            ratings = [(f"u{i}", item, rng.random() < 0.6)
                       for i in range(4) for item in ITEMS if rng.random() < 0.7]
            store = store_with(ratings)
            vectors = {u: rated_one(store, u, S) for u in [f"u{i}" for i in range(4)]}
            for target in vectors:
                assert store.neighbors(view_of(store), target) == \
                    oracle_neighbors(vectors, target, 10, ITEMS)


    def test_independent_of_insertion_order(self):
        rng = random.Random(14)
        items = [f"i{n:02d}" for n in range(70)]
        patterns = [rng.getrandbits(70) for _ in range(6)]
        # few patterns over many users: lots of equal similarities, so the
        # user-id tie rule decides the order
        rows = {f"u{i:03d}": (patterns[rng.randrange(6)], 0) for i in range(60)}
        rows["u007"] = (0, 1)  # rated something, but nothing 1
        vectors = {user: {items[i]: 1.0 for i in range(70) if bits >> i & 1}
                   for user, (bits, _) in rows.items()}
        # more users tie at the cut than fit in it
        everyone = oracle_neighbors(vectors, "u000", len(rows), items)
        assert everyone[9][1] == everyone[10][1]
        for target in ("u000", "u007", "u031", "stranger"):
            want = oracle_neighbors(vectors, target, 10, items)
            for order in (sorted(rows), sorted(rows, reverse=True),
                          rng.sample(sorted(rows), len(rows))):
                store = store_of_rows(len(items),
                                      {user: rows[user] for user in order})
                view = view_of(store)
                assert list(view.ratings) == order
                assert store.neighbors(view, target) == want


def oracle_popular_index(rows, target, n_items):
    """Per-bit count over the other users; the first index of the highest count."""
    counts = [sum(bits >> i & 1 for user, (bits, _) in rows.items() if user != target)
              for i in range(n_items)]
    best = max(range(n_items), key=counts.__getitem__)
    return (best if counts[best] else None), counts[best]


class TestPopularItem:
    """The view's per-item counts against a per-bit count oracle, exact.

    Every view is written through record_implicit, so the counts are the
    ones the store keeps, overwrites included.
    """

    N_ITEMS = 70

    def _popular_index(self, store, target):
        return store._popular_item(view_of(store), target)

    @pytest.mark.parametrize("n_users", [130, 257])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_views_match_the_oracle(self, seed, n_users):
        rng = random.Random(seed)
        # each item's share of raters; a few near 1, so counts pass 128
        shares = [rng.choice([0.0, 0.1, 0.5, 0.97, 0.99, 1.0]) for _ in range(self.N_ITEMS)]
        columns = [[rng.random() < share for _ in range(n_users)] for share in shares]
        # copy the likely winner's column elsewhere, so the index tie rule decides
        top = max(range(self.N_ITEMS), key=lambda i: sum(columns[i]))
        columns[rng.randrange(self.N_ITEMS)] = list(columns[top])
        users = [f"u{i:03d}" for i in range(n_users)]
        rows = {user: (sum(1 << i for i in range(self.N_ITEMS) if columns[i][row]),
                       (1 << self.N_ITEMS) - 1)
                for row, user in enumerate(users)}
        store = store_of_rows(self.N_ITEMS, rows)
        for target in (users[0], users[n_users // 2], "stranger"):
            best, count = oracle_popular_index(rows, target, self.N_ITEMS)
            assert count >= 128
            assert self._popular_index(store, target) == best

    def test_ties_go_to_the_lowest_index_and_the_target_is_not_counted(self):
        rows = {f"u{i:03d}": (1 << 9 | 1 << 3 | (1 << 65 if i < 129 else 0), 0)
                for i in range(140)}
        store = store_of_rows(self.N_ITEMS, rows)
        # items 3 and 9 tie at 140 raters, 65 has 129: the lower index wins
        assert oracle_popular_index(rows, "nobody", self.N_ITEMS) == (3, 140)
        assert self._popular_index(store, "nobody") == 3

        def write(user, i, positive):
            store.record_implicit(user, i, positive, S)
            bits, rated = rows.get(user, (0, 0))
            rows[user] = (bits | 1 << i if positive else bits & ~(1 << i), rated | 1 << i)

        for i in range(128, 140):  # overwrites of 1 by 0
            write(f"u{i:03d}", 3, False)
            write(f"u{i:03d}", 9, False)
        write("u000", 9, False)
        write("u001", 65, False)
        write("t", 65, True)
        write("t", 9, True)
        # other raters: 3 and 65 have 128, 9 has 127, so 3 wins; counting
        # the target too would give 65 (129 raters)
        assert oracle_popular_index(rows, "t", self.N_ITEMS) == (3, 128)
        assert self._popular_index(store, "t") == 3

    def test_none_when_only_the_target_rated_one(self):
        empty = TransactionStore(self.N_ITEMS)
        assert empty._popular_item(view_of(empty), "t") is None
        rows = {"t": (1 << 69 | 1, 1 << 69 | 1)}
        rows.update({f"u{i:03d}": (0, 1 << i % self.N_ITEMS) for i in range(130)})  # rated 0 only
        store = store_of_rows(self.N_ITEMS, rows)
        assert self._popular_index(store, "t") is None
        assert self._popular_index(store, "u000") == 0


class TestPredictRating:
    """The score top_n gives its item: the similarity-weighted mean rating."""

    def test_single_perfect_neighbor(self):
        store = store_with([("t", "a", True), ("n", "a", True), ("n", "d", True)])
        # n's vector {a, d}: sim(t, n) = 1/sqrt(2); only neighbor, so a and d
        # both score 1.0 and a wins by index
        assert top_and_oracle(store, "t", ["t", "n"]) == (("a", 1.0), ("a", 1.0))
        assert len(store.neighbors(view_of(store), "t")) == 1

    def test_hand_weighted_mean(self):
        # target {a,b}; n_full {a,b} sim 1.0; n_ac {a,c} and n_bc {b,c} sim 0.5
        # each -> a: (1.0 + 0.5) / 2.0 = 3/4, b the same, c: 1.0 / 2.0 = 1/2;
        # a wins the tie by index
        store = store_with([
            ("t", "a", True), ("t", "b", True),
            ("n_full", "a", True), ("n_full", "b", True),
            ("n_ac", "a", True), ("n_ac", "c", True),
            ("n_bc", "b", True), ("n_bc", "c", True),
        ])
        users = ["t", "n_full", "n_ac", "n_bc"]
        assert top_and_oracle(store, "t", users) == (("a", 0.75), ("a", 0.75))
        assert len(store.neighbors(view_of(store), "t")) == 3

    def test_no_neighbors_gives_none(self):
        store = store_with([("t", "a", True), ("n", "b", True)])
        assert top_and_oracle(store, "t", ["t", "n"]) == (None, None)


class TestTopN:
    def test_small_store_matches_oracle(self):
        rng = random.Random(12)
        for _ in range(60):
            users = [f"u{i}" for i in range(3)]
            ratings = [(u, item, rng.random() < 0.5)
                       for u in users for item in ITEMS[:4] if rng.random() < 0.8]
            store = store_with(ratings)
            for target in users:
                got, want = top_and_oracle(store, target, users)
                assert got == want


class TestBestIndex:
    """The top-1 item: the first index of the highest quotient, as
    nlargest(1, ...) over every weighted[i] / total picks it."""

    @staticmethod
    def first_of_highest_quotient(weighted, total):
        scores = [w / total for w in weighted]
        return heapq.nlargest(1, range(len(scores)), key=scores.__getitem__)[0]

    def test_an_earlier_smaller_weight_rounding_to_the_same_quotient_wins(self):
        weighted = [0.0, 1.75, math.nextafter(1.75, 2.0), 0.5]
        assert weighted[1] < weighted[2] and weighted[1] / 3.0 == weighted[2] / 3.0
        assert _best_index(weighted, 3.0) == self.first_of_highest_quotient(weighted, 3.0) == 1

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(total=st.floats(0.1, 10.0), high=st.floats(0.1, 10.0), data=st.data())
    def test_matches_the_quotient_scan(self, total, high, data):
        # many weights at or a few ulps below the highest, so quotients often
        # round together
        near = st.integers(0, 3).map(lambda j: high - j * math.ulp(high))
        weighted = data.draw(st.lists(st.one_of(near, st.floats(0.0, high)),
                                      min_size=1, max_size=12))
        assert _best_index(weighted, total) == self.first_of_highest_quotient(weighted, total)


class TestAdviseAction:
    def test_new_user_gets_group_popular_item(self):
        store = TransactionStore(len(ITEMS))
        s = skey()
        for i in range(4):
            store.record_implicit(f"u{i}", INDEX["c"], True, situation=s)
            store.record_implicit(f"u{i}", INDEX["a"], False, situation=s)
        # brute force over the scoped store: "c" is unanimously accepted
        assert item_id(store.advise_action("newcomer", s)) == "c"

    def test_popular_item_when_no_neighbour_overlaps(self):
        store = store_with([("t", "a", True), ("u0", "e", True)]
                           + [(f"u{i}", "c", True) for i in range(3)])
        # t has history, but no one shares an item with it: popularity answers
        assert store.neighbors(view_of(store), "t") == []
        assert item_id(store.advise_action("t", S)) == "c"

    def test_advice_of_the_first_item_is_index_0_not_none(self):
        store = store_with([(f"u{i}", "a", True) for i in range(3)])
        assert store.advise_action("newcomer", S) == 0

    def test_empty_store_gives_none(self):
        store = TransactionStore(len(ITEMS))
        assert store.advise_action("u1", skey()) is None

    def test_coarser_granularity_fallback(self):
        store = TransactionStore(len(ITEMS))
        target_key = skey(place="Office")
        # group history exists only at Home, another leaf under the same city
        home = skey(place="Home")
        for i in range(3):
            store.record_implicit(f"u{i}", INDEX["b"], True, situation=home)
        # level-0 scope (Office) is empty; level-1 scope (Paris) has the data
        assert item_id(store.advise_action("newcomer", target_key)) == "b"
        # per-level brute force: level 0 view empty, level 1 view holds b
        assert store.top_n(view_of(store, target_key), "newcomer") is None
        assert rated_one(store, "u0", target_key, 0) == {}
        assert rated_one(store, "u0", target_key, 1) == {"b": 1.0}  # visible at the city level

    def test_advice_stays_in_catalog(self):
        rng = random.Random(13)
        store = TransactionStore(len(ITEMS))
        situations = [skey(), skey(place="Home"), skey(cognitive="Call")]
        for _ in range(300):
            user = f"u{rng.randrange(5)}"
            item = rng.randrange(len(ITEMS))
            s = situations[rng.randrange(len(situations))]
            store.record_implicit(user, item, rng.random() < 0.5, s)
            advice = store.advise_action(user, situations[rng.randrange(3)])
            assert advice is None or advice in range(len(ITEMS))

    def test_different_group_not_consulted(self):
        store = TransactionStore(len(ITEMS))
        other = skey(group="g1")
        for i in range(3):
            store.record_implicit(f"u{i}", INDEX["b"], True, situation=other)
        assert store.advise_action("newcomer", skey(group="g0")) is None


class TestColdStartRule:
    """Popularity answers exactly when no other user in the view shares a
    positive item with the target; the two ways that happens to a target
    with history in the view."""

    def test_target_that_rated_only_zeros(self):
        store = store_with([("t", "a", False), ("t", "c", False), ("u0", "a", True)]
                           + [(f"u{i}", "c", True) for i in range(3)])
        assert store.neighbors(view_of(store), "t") == []
        # the most popular item among the others, though t rated it 0
        assert item_id(store.advise_action("t", S)) == "c"

    def test_target_whose_positive_item_no_one_else_rated_one(self):
        store = store_with([("t", "b", True), ("u0", "b", False), ("u0", "d", True),
                                     ("u1", "d", True), ("u2", "a", True)])
        assert store.neighbors(view_of(store), "t") == []
        assert item_id(store.advise_action("t", S)) == "d"
        # once another user shares b, the neighbours answer instead
        store.record_implicit("u2", INDEX["b"], True, S)
        assert store.neighbors(view_of(store), "t") == [("u2", 1 / math.sqrt(2))]
        assert item_id(store.advise_action("t", S)) == "a"


class TestViewState:
    """The per-item counts and cached index tuples after random streams.

    Writes overwrite ratings in both directions, and advice is read between
    writes, so index tuples are built, dropped on a flip and rebuilt.
    """

    ITEMS = tuple(f"i{n:02d}" for n in range(70))
    USED = [0, 1, 2, 3, 31, 63, 64, 65, 69]  # item indices written; past a machine word
    USERS = ["u0", "u1", "u2", "u3"]
    SITUATIONS = [skey(), skey(place="Home"), skey(cognitive="Call"), skey(group="g1")]

    write = st.tuples(st.sampled_from(USERS), st.sampled_from(USED), st.booleans(),
                      st.integers(0, len(SITUATIONS) - 1), st.booleans())

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(writes=st.lists(write, min_size=1, max_size=60), data=st.data())
    def test_counts_and_indices_follow_every_write(self, writes, data):
        # every write again at a random later point, with the opposite rating
        flips = data.draw(st.lists(st.integers(0, len(writes) - 1), max_size=20))
        writes = writes + [(u, i, not positive, j, read)
                           for u, i, positive, j, read in (writes[f] for f in flips)]
        store = TransactionStore(len(self.ITEMS))
        stream = []
        for user, i, positive, j, read in writes:
            s = self.SITUATIONS[j]
            store.record_implicit(user, i, positive, s)
            stream.append((user, self.ITEMS[i], positive, s))
            if read:
                store.advise_action(user, s)
        self._check_view_state(store)
        views = oracle_views(stream)
        index = {item: i for i, item in enumerate(self.ITEMS)}
        for s in self.SITUATIONS:
            for target in self.USERS + ["stranger"]:
                assert item_id(store.advise_action(target, s), self.ITEMS) == \
                    oracle_advise(views, target, s, self.ITEMS, index)
        self._check_view_state(store)

    def _check_view_state(self, store):
        for view in store._scoped.values():
            for i in range(len(self.ITEMS)):
                assert view.counts[i] == sum(bits >> i & 1 for bits, _ in view.ratings.values())
            for bits, indices in view.ratings.values():
                if indices is not None:
                    assert indices == tuple(i for i in range(len(self.ITEMS)) if bits >> i & 1)


class TestStoreMatchesOracles:
    """Random accept/reject streams through the store and the dict oracles.

    80 items, so the bitsets outgrow a machine word; hot items are written
    over and over, so 1s are overwritten by 0s. Every similarity, score and
    piece of advice must equal the oracle's exactly.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams_match(self, seed):
        rng = random.Random(seed)
        items = tuple(f"i{n:02d}" for n in range(80))
        index = {item: i for i, item in enumerate(items)}
        hot = items[:10] + items[62:70]
        users = [f"u{i}" for i in range(6)]
        situations = [skey(), skey(place="Home"), skey(cognitive="Call"),
                      skey(group="g1"), skey(place="Home", group="g1")]
        store = TransactionStore(len(items))
        stream = []
        last = {}
        overwrites = 0
        for checkpoint in (150, 400):
            while len(stream) < checkpoint:
                user = rng.choice(users)
                item = rng.choice(hot) if rng.random() < 0.7 else rng.choice(items)
                positive = rng.random() < 0.5
                s = rng.choice(situations)
                store.record_implicit(user, index[item], positive, s)
                stream.append((user, item, positive, s))
                overwrites += last.get((user, item)) is True and not positive
                last[(user, item)] = positive
            self._check(store, oracle_views(stream), situations,
                        users + ["stranger"], items, index)
        assert overwrites > 0

    def _check(self, store, views, situations, targets, items, index):
        for s in situations:
            for level in range(CONTEXT.depth + 1):
                view = store._views(s)[level]
                vectors = views.get((level, CONTEXT.generalize(s, level)), {})
                for target in targets:
                    assert rated_one(store, target, s, level, items) == {
                        item: 1.0 for item, rating in vectors.get(target, {}).items()
                        if rating == 1.0}
                    assert store.neighbors(view, target) == \
                        oracle_neighbors(vectors, target, 10, items)
                    assert top_ids(store.top_n(view, target), items) == \
                        oracle_top(vectors, target, items, index)
            for target in targets:
                assert item_id(store.advise_action(target, s), items) == \
                    oracle_advise(views, target, s, items, index)


def oracle_advise(views, target, s, items, index):
    for level in range(CONTEXT.depth + 1):
        vectors = views.get((level, CONTEXT.generalize(s, level)), {})
        top = oracle_top(vectors, target, items, index)
        if top is not None:
            return top[0]
        popular = oracle_popular(vectors, target, items)
        if popular is not None:
            return popular
    return None
