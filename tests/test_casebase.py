import random

import pytest

from hyql.casebase import CaseBase, RetrievalResult, adapt, case_similarity
from hyql.context import SituationKey, TimeBucket
from hyql.qlearn import QTable

W = (0.25, 0.25, 0.25, 0.25)

BUCKETS = [("Morning", "Weekday", "Free"), ("Afternoon", "Weekday", "InMeeting"),
           ("Evening", "Weekday", "Free"), ("Night", "Weekend", "Free"),
           ("Morning", "Weekend", "Free")]
PLACES = ["Office", "Home", "Transit", "ClientSite", "Paris", "Unknown"]
GROUPS = ["g0", "g1"]
COGS = ["Navigate", "SendEmail", "Call", "OpenFolder"]


def skey(bucket=BUCKETS[0], place="Office", group="g0", cognitive="Navigate"):
    return SituationKey(TimeBucket(*bucket), place, group, cognitive, 0)


def random_key(rng):
    return skey(BUCKETS[rng.randrange(len(BUCKETS))],
                PLACES[rng.randrange(len(PLACES))],
                GROUPS[rng.randrange(len(GROUPS))],
                COGS[rng.randrange(len(COGS))])


class TestCaseSimilarity:
    def test_identical_problems(self, context):
        assert case_similarity(skey(), skey(), W, context) == 1.0

    def test_three_exact_one_mismatched(self, context):
        # same time, place, group; cognitive differs entirely -> 0.75
        a = skey(cognitive="Navigate")
        b = skey(cognitive="Call")
        assert case_similarity(a, b, W, context) == pytest.approx(0.75, abs=0)

    def test_total_mismatch_is_zero(self, context):
        # Unknown shares no place level with Office; time differs at all
        # three levels; group and cognitive differ too
        a = skey(("Morning", "Weekday", "Free"), "Office", "g0", "Navigate")
        b = skey(("Evening", "Weekend", "InMeeting"), "Unknown", "g1", "Call")
        assert case_similarity(a, b, W, context) == 0.0

    def test_partial_place_match_scores_fraction(self, context):
        # Office and Home share Paris and Anywhere: 2 of 3 levels
        a, b = skey(place="Office"), skey(place="Home")
        assert case_similarity(a, b, W, context) == pytest.approx(
            0.75 + 0.25 * (2 / 3))

    def test_symmetric_reflexive_bounded(self, context):
        rng = random.Random(20)
        for _ in range(300):
            a, b = random_key(rng), random_key(rng)
            s_ab = case_similarity(a, b, W, context)
            assert s_ab == case_similarity(b, a, W, context)
            assert 0.0 <= s_ab <= 1.0
            assert case_similarity(a, a, W, context) == 1.0

    def test_weight_count_enforced(self, context):
        with pytest.raises(ValueError):
            case_similarity(skey(), skey(), (0.5, 0.5), context)


class TestRetrieve:
    def test_empty_base(self, context):
        base = CaseBase(context)
        assert base.retrieve(skey()) is None

    def test_single_exact_case(self, context):
        base = CaseBase(context, retrieval_threshold=0.8)
        base.retain(skey(), {"a0": 2.0}, visits=5, mean_reward=0.9,
                    user_id="u0", step=10)
        result = base.retrieve(skey())
        assert result is not None
        assert result.similarity == 1.0
        assert result.case.solution == {"a0": 2.0}

    def test_below_threshold_is_none(self, context):
        base = CaseBase(context, retrieval_threshold=0.9)
        base.retain(skey(cognitive="Call"), {"a0": 2.0}, visits=5,
                    mean_reward=0.9, user_id="u0", step=10)
        assert base.retrieve(skey(cognitive="Navigate")) is None  # sim 0.75

    def test_matches_linear_scan_oracle(self, context):
        rng = random.Random(21)
        base = CaseBase(context, retrieval_threshold=0.0, max_size=2000)
        for i in range(1000):
            base.retain(random_key(rng), {"a0": rng.random()},
                        visits=rng.randrange(1, 20),
                        mean_reward=rng.random(), user_id="u0", step=i)
        for _ in range(50):
            query = random_key(rng)
            best = None
            best_rank = None
            for case in base.cases:
                sim = case_similarity(query, case.problem, W, context)
                rank = (sim, case.visits, -case.step)
                if best_rank is None or rank > best_rank:
                    best, best_rank = case, rank
            got = base.retrieve(query)
            assert got is not None
            assert got.case is best
            assert got.similarity == best_rank[0]


class TestAdapt:
    def test_identity_transfer(self, context):
        base = CaseBase(context)
        case = base.retain(skey(), {"a0": 2.0, "a1": 0.0}, visits=5,
                           mean_reward=0.5, user_id="u0", step=1)
        table = QTable()
        assert adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == {"a0": 2.0, "a1": 0.0}

    def test_similarity_scaling(self, context):
        base = CaseBase(context)
        case = base.retain(skey(), {"a0": 2.0}, visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable()
        adapt(RetrievalResult(case, 0.5), skey(place="Home"), table)
        assert table.row(skey(place="Home")) == {"a0": 1.0}

    def test_visited_row_never_overwritten(self, context):
        from hyql.qlearn import ActionCatalog, LearningParams
        base = CaseBase(context)
        case = base.retain(skey(), {"a0": 9.0}, visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable()
        catalog = ActionCatalog(["a0", "a1"])
        table.update(skey(), "a0", 1.0, skey(), catalog,
                     LearningParams(alpha=1.0, gamma=0.0))
        before = dict(table.row(skey()))
        assert not adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == before

    def test_only_target_row_touched(self, context):
        base = CaseBase(context)
        case = base.retain(skey(), {"a0": 3.0}, visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable()
        table.set_value(skey(place="Home"), "a1", 0.4)
        adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey(place="Home")) == {"a1": 0.4}
        assert len(table) == 2


class TestRetain:
    def test_round_trip(self, context):
        base = CaseBase(context)
        base.retain(skey(), {"a0": 1.5}, visits=7, mean_reward=0.8,
                    user_id="u0", step=99)
        result = base.retrieve(skey())
        assert result.similarity == 1.0
        assert result.case.solution == {"a0": 1.5}

    def test_duplicate_problem_replaces(self, context):
        base = CaseBase(context)
        base.retain(skey(), {"a0": 1.0}, visits=5, mean_reward=0.5,
                    user_id="u0", step=1)
        base.retain(skey(), {"a0": 2.0}, visits=6, mean_reward=0.6,
                    user_id="u0", step=2)
        assert len(base) == 1
        assert base.retrieve(skey()).case.solution == {"a0": 2.0}

    def test_equal_problem_is_revised_whatever_the_weights(self, context):
        base = CaseBase(context, feature_weights=(0.7, 0.1, 0.1, 0.1))
        # identical problems do not score exactly 1.0 under these weights
        assert base.similarity(skey(), skey()) < 1.0
        rng = random.Random(25)
        keys = [random_key(rng) for _ in range(300)]
        for i, key in enumerate(keys):
            base.retain(key, {"a0": float(i)}, visits=5, mean_reward=0.5,
                        user_id="u0", step=i)
        assert len(base) == len(set(keys))
        last = {key: float(i) for i, key in enumerate(keys)}
        assert {case.problem: case.solution["a0"] for case in base.cases} == last

    def test_problems_differing_in_a_zero_weight_feature_are_two_cases(self, context):
        base = CaseBase(context, feature_weights=(0.5, 0.5, 0.0, 0.0))
        assert base.similarity(skey(group="g0"), skey(group="g1")) == 1.0
        base.retain(skey(group="g0"), {"a0": 1.0}, visits=5, mean_reward=0.5,
                    user_id="u0", step=1)
        base.retain(skey(group="g1"), {"a0": 2.0}, visits=5, mean_reward=0.5,
                    user_id="u1", step=2)
        assert [case.problem.social_group for case in base.cases] == ["g0", "g1"]

    def test_eviction_matches_brute_force(self, context):
        rng = random.Random(22)
        for _ in range(20):
            base = CaseBase(context, max_size=5)
            keys = []
            while len({k.canonical() for k in keys}) < 6:
                keys.append(random_key(rng))
            keys = list({k.canonical(): k for k in keys}.values())[:6]
            inserted = []
            for i, k in enumerate(keys[:5]):
                inserted.append(base.retain(k, {}, visits=1,
                                            mean_reward=rng.random(),
                                            user_id="u0", step=i))
            survivors = list(base.cases)
            victim = min(survivors, key=lambda c: (c.mean_reward, c.order))
            base.retain(keys[5], {}, visits=1, mean_reward=rng.random(),
                        user_id="u0", step=9)
            assert len(base) == 5
            assert victim not in base.cases or victim.mean_reward >= min(
                c.mean_reward for c in base.cases)

    def test_size_never_exceeds_max(self, context):
        rng = random.Random(23)
        base = CaseBase(context, max_size=10)
        for i in range(200):
            base.retain(random_key(rng), {}, visits=1, mean_reward=rng.random(),
                        user_id="u0", step=i)
            assert len(base) <= 10

    def test_solution_is_snapshotted(self, context):
        base = CaseBase(context)
        row = {"a0": 1.0}
        base.retain(skey(), row, visits=5, mean_reward=0.5, user_id="u0", step=1)
        row["a0"] = 99.0
        assert base.retrieve(skey()).case.solution == {"a0": 1.0}
