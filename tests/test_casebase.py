import random

import pytest

from hyql.casebase import (MAX_SIZE, RETRIEVAL_THRESHOLD, Case, CaseBase, RetrievalResult,
                           adapt, case_similarity)
from hyql.context import SituationKey, TimeBucket
from hyql.qlearn import QTable

BUCKETS = [("Morning", "Weekday", "Free"), ("Afternoon", "Weekday", "InMeeting"),
           ("Evening", "Weekday", "Free"), ("Night", "Weekend", "Free"),
           ("Morning", "Weekend", "Free")]
PLACES = ["Office", "Home", "Transit", "ClientSite", "Paris", "Anywhere"]
GROUPS = ["g0", "g1"]
COGS = ["Navigate", "SendEmail", "Call", "OpenFolder"]


def skey(bucket=BUCKETS[0], place="Office", group="g0", cognitive="Navigate",
         granularity=0):
    return SituationKey(TimeBucket(*bucket), place, group, cognitive, granularity)


def random_key(rng):
    return skey(BUCKETS[rng.randrange(len(BUCKETS))],
                PLACES[rng.randrange(len(PLACES))],
                GROUPS[rng.randrange(len(GROUPS))],
                COGS[rng.randrange(len(COGS))])


class TestCaseSimilarity:
    def test_identical_problems(self):
        assert case_similarity(skey(), skey()) == 1.0

    def test_three_exact_one_mismatched(self):
        # same time, place, group; cognitive differs entirely -> 0.75
        a = skey(cognitive="Navigate")
        b = skey(cognitive="Call")
        assert case_similarity(a, b) == pytest.approx(0.75, abs=0)

    def test_total_mismatch_scores_only_the_shared_root(self):
        # every two places share the root, 1 of 3 place levels, so the floor
        # is 0.25 / 3: time differs at all three levels, group and cognitive
        # differ too, and Office and ClientSite meet only at Anywhere
        a = skey(("Morning", "Weekday", "Free"), "Office", "g0", "Navigate")
        for place in ("ClientSite", "Anywhere"):
            b = skey(("Evening", "Weekend", "InMeeting"), place, "g1", "Call")
            assert case_similarity(a, b) == 0.25 * (1 / 3)

    def test_partial_place_match_scores_fraction(self):
        # Office and Home share Paris and Anywhere: 2 of 3 levels
        a, b = skey(place="Office"), skey(place="Home")
        assert case_similarity(a, b) == pytest.approx(
            0.75 + 0.25 * (2 / 3))

    def test_symmetric_reflexive_bounded(self):
        rng = random.Random(20)
        for _ in range(300):
            a, b = random_key(rng), random_key(rng)
            s_ab = case_similarity(a, b)
            assert s_ab == case_similarity(b, a)
            assert 0.0 <= s_ab <= 1.0
            assert case_similarity(a, a) == 1.0


class TestRetrieve:
    def test_empty_base(self):
        base = CaseBase()
        assert base.retrieve(skey()) is None

    def test_single_exact_case(self):
        base = CaseBase()
        base.retain(skey(), [2.0], visits=5, mean_reward=0.9,
                    user_id="u0", step=10)
        result = base.retrieve(skey())
        assert result is not None
        assert result.similarity == 1.0
        assert result.case.solution == [2.0]

    def test_below_threshold_is_none(self):
        base = CaseBase()
        base.retain(skey(cognitive="Call"), [2.0], visits=5,
                    mean_reward=0.9, user_id="u0", step=10)
        assert (case_similarity(skey(cognitive="Navigate"), skey(cognitive="Call"))
                == 0.75 < RETRIEVAL_THRESHOLD)
        assert base.retrieve(skey(cognitive="Navigate")) is None

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(21)
        base = CaseBase()
        # a small base, so that some queries fall below the threshold
        for i in range(100):
            base.retain(random_key(rng), [rng.random()],
                        visits=rng.randrange(1, 20),
                        mean_reward=rng.random(), user_id="u0", step=i)
        hits = 0
        for _ in range(200):
            query = random_key(rng)
            best = None
            best_rank = None
            for case in base.cases:
                sim = case_similarity(query, case.problem)
                rank = (sim, case.visits, -case.step)
                if best_rank is None or rank > best_rank:
                    best, best_rank = case, rank
            got = base.retrieve(query)
            if best_rank[0] < RETRIEVAL_THRESHOLD:
                assert got is None
                continue
            hits += 1
            assert got.case is best
            assert got.similarity == best_rank[0]
        assert 0 < hits < 200  # both outcomes are checked


class TestAdapt:
    def test_identity_transfer(self):
        base = CaseBase()
        case = base.retain(skey(), [2.0, 0.0], visits=5,
                           mean_reward=0.5, user_id="u0", step=1)
        table = QTable(2)
        assert adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == [2.0, 0.0]

    def test_similarity_scaling(self):
        base = CaseBase()
        case = base.retain(skey(), [2.0, 0.5], visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable(2)
        adapt(RetrievalResult(case, 0.5), skey(place="Home"), table)
        assert table.row(skey(place="Home")) == [1.0, 0.25]

    def test_visited_row_never_overwritten(self):
        from hyql.qlearn import LearningParams
        base = CaseBase()
        case = base.retain(skey(), [9.0, 9.0], visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable(2)
        table.update(skey(), 0, 1.0, skey(), LearningParams(alpha=1.0, gamma=0.0))
        before = list(table.row(skey()))
        assert not adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == before

    def test_only_target_row_touched(self):
        base = CaseBase()
        case = base.retain(skey(), [3.0, 0.0], visits=5, mean_reward=0.5,
                           user_id="u0", step=1)
        table = QTable(2)
        table.set_value(skey(place="Home"), 1, 0.4)
        adapt(RetrievalResult(case, 1.0), skey(), table)
        # the whole table: the two rows written, and no third
        assert len(table) == 2
        assert table.row(skey(place="Home")) == [0.0, 0.4]
        assert table.row(skey()) == [3.0, 0.0]


class TestRetain:
    def test_round_trip(self):
        base = CaseBase()
        base.retain(skey(), [1.5], visits=7, mean_reward=0.8,
                    user_id="u0", step=99)
        result = base.retrieve(skey())
        assert result.similarity == 1.0
        assert result.case.solution == [1.5]

    def test_duplicate_problem_replaces(self):
        base = CaseBase()
        base.retain(skey(), [1.0], visits=5, mean_reward=0.5,
                    user_id="u0", step=1)
        base.retain(skey(), [2.0], visits=6, mean_reward=0.6,
                    user_id="u0", step=2)
        assert len(base) == 1
        assert base.retrieve(skey()).case.solution == [2.0]

    def test_equal_problem_is_revised(self):
        base = CaseBase()
        rng = random.Random(25)
        keys = [random_key(rng) for _ in range(300)]
        for i, key in enumerate(keys):
            base.retain(key, [float(i)], visits=5, mean_reward=0.5,
                        user_id="u0", step=i)
        assert len(base) == len(set(keys))
        last = {key: float(i) for i, key in enumerate(keys)}
        assert {case.problem: case.solution[0] for case in base.cases} == last

    def test_problems_differing_only_in_granularity_are_two_cases(self):
        base = CaseBase()
        assert case_similarity(skey(granularity=0), skey(granularity=1)) == 1.0
        base.retain(skey(granularity=0), [1.0], visits=5, mean_reward=0.5,
                    user_id="u0", step=1)
        base.retain(skey(granularity=1), [2.0], visits=5, mean_reward=0.5,
                    user_id="u1", step=2)
        assert [case.problem.granularity for case in base.cases] == [0, 1]

    def test_eviction_matches_brute_force(self):
        rng = random.Random(22)
        base = CaseBase()
        for i in range(MAX_SIZE):
            base.retain(skey(group=f"g{i}"), [0.0], visits=1,
                        mean_reward=rng.choice([0.25, 0.5, 0.75]),
                        user_id="u0", step=i)
        for i in range(MAX_SIZE, MAX_SIZE + 20):
            before = list(base.cases)
            new = base.retain(skey(group=f"g{i}"), [0.0], visits=1,
                              mean_reward=rng.choice([0.25, 0.5, 0.75]),
                              user_id="u0", step=i)
            victim = min(before + [new], key=lambda c: (c.mean_reward, c.order))
            assert len(base) == MAX_SIZE
            assert base.cases == [c for c in before + [new] if c is not victim]

    def test_size_never_exceeds_max(self):
        rng = random.Random(23)
        base = CaseBase()
        for i in range(MAX_SIZE + 200):
            base.retain(skey(group=f"g{i}"), [0.0], visits=1,
                        mean_reward=rng.random(), user_id="u0", step=i)
            assert len(base) == min(i + 1, MAX_SIZE)

    def test_a_case_without_a_solution_is_rejected(self):
        with pytest.raises(ValueError, match="a case needs a solution"):
            Case(skey(), [], visits=5, mean_reward=0.5, user_id="u0", step=1)
        with pytest.raises(ValueError, match="a case needs a solution"):
            CaseBase().retain(skey(), (), visits=5, mean_reward=0.5, user_id="u0", step=1)

    def test_solution_is_snapshotted(self):
        base = CaseBase()
        row = [1.0]
        base.retain(skey(), row, visits=5, mean_reward=0.5, user_id="u0", step=1)
        row[0] = 99.0
        assert base.retrieve(skey()).case.solution == [1.0]
