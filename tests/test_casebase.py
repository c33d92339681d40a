import random

import pytest

from hyql.casebase import (RETRIEVAL_THRESHOLD, Case, CaseBase, RetrievalResult, adapt,
                           case_similarity)
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
        base.retain(skey(), [2.0], visits=5, step=10)
        result = base.retrieve(skey())
        assert result is not None
        assert result.similarity == 1.0
        assert result.case.solution == [2.0]

    def test_below_threshold_is_none(self):
        base = CaseBase()
        base.retain(skey(cognitive="Call"), [2.0], visits=5, step=10)
        assert (case_similarity(skey(cognitive="Navigate"), skey(cognitive="Call"))
                == 0.75 < RETRIEVAL_THRESHOLD)
        assert base.retrieve(skey(cognitive="Navigate")) is None

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(21)
        base = CaseBase()
        # a small base, so that some queries fall below the threshold
        for i in range(100):
            base.retain(random_key(rng), [rng.random()],
                        visits=rng.randrange(1, 20), step=i)
        hits = 0
        for _ in range(200):
            query = random_key(rng)
            best = None
            best_rank = None
            for case in base.cases.values():
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
        case = Case(skey(), [2.0, 0.0], visits=5, step=1)
        table = QTable(2)
        assert adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == [2.0, 0.0]

    def test_similarity_scaling(self):
        case = Case(skey(), [2.0, 0.5], visits=5, step=1)
        table = QTable(2)
        adapt(RetrievalResult(case, 0.5), skey(place="Home"), table)
        assert table.row(skey(place="Home")) == [1.0, 0.25]

    def test_visited_row_never_overwritten(self):
        from hyql.qlearn import LearningParams
        case = Case(skey(), [9.0, 9.0], visits=5, step=1)
        table = QTable(2)
        table.update(skey(), 0, 1.0, skey(), LearningParams(alpha=1.0, gamma=0.0))
        before = list(table.row(skey()))
        assert not adapt(RetrievalResult(case, 1.0), skey(), table)
        assert table.row(skey()) == before

    def test_only_target_row_touched(self):
        case = Case(skey(), [3.0, 0.0], visits=5, step=1)
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
        base.retain(skey(), [1.5], visits=7, step=99)
        result = base.retrieve(skey())
        assert result.similarity == 1.0
        assert result.case.solution == [1.5]

    def test_duplicate_problem_replaces(self):
        base = CaseBase()
        base.retain(skey(), [1.0], visits=5, step=1)
        base.retain(skey(), [2.0], visits=6, step=2)
        assert len(base) == 1
        assert base.retrieve(skey()).case.solution == [2.0]

    def test_equal_problem_is_revised(self):
        base = CaseBase()
        rng = random.Random(25)
        keys = [random_key(rng) for _ in range(300)]
        for i, key in enumerate(keys):
            base.retain(key, [float(i)], visits=5, step=i)
        last = {key: float(i) for i, key in enumerate(keys)}  # first-seen order
        assert [(problem, case.problem, case.solution[0])
                for problem, case in base.cases.items()] == [
            (key, key, value) for key, value in last.items()]

    def test_a_revised_case_keeps_its_place_in_the_tie_break(self):
        """Equal similarity, visits and step: the first-retained case wins,
        and revising it does not move it behind the other."""
        base = CaseBase()
        first, second = skey(granularity=1), skey(granularity=0)
        base.retain(first, [1.0], visits=5, step=1)
        base.retain(second, [2.0], visits=5, step=1)
        assert base.retrieve(skey()).case.problem == first
        base.retain(first, [3.0], visits=5, step=1)
        assert base.retrieve(skey()).case.solution == [3.0]

    def test_problems_differing_only_in_granularity_are_two_cases(self):
        base = CaseBase()
        assert case_similarity(skey(granularity=0), skey(granularity=1)) == 1.0
        base.retain(skey(granularity=0), [1.0], visits=5, step=1)
        base.retain(skey(granularity=1), [2.0], visits=5, step=2)
        assert [case.problem.granularity for case in base.cases.values()] == [0, 1]

    def test_a_case_without_a_solution_is_rejected(self):
        with pytest.raises(ValueError, match="a case needs a solution"):
            Case(skey(), [], visits=5, step=1)
        with pytest.raises(ValueError, match="a case needs a solution"):
            CaseBase().retain(skey(), (), visits=5, step=1)

    def test_solution_is_snapshotted(self):
        base = CaseBase()
        row = [1.0]
        base.retain(skey(), row, visits=5, step=1)
        row[0] = 99.0
        assert base.retrieve(skey()).case.solution == [1.0]
