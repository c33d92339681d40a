import random

import pytest

from conftest import read_run_trace
import hyql.bench
from hyql.agent import PARAMS, RETAIN_MIN_VISITS, VARIANTS, Agent, AgentConfig, hybrid_policy
from hyql.bench import load_scenario, run_trial
from hyql.casebase import CaseBase
from hyql.collab import TransactionStore
from hyql.context import CONTEXT, CognitiveAction, RawEvent, SituationKey, TimeBucket
from hyql.qlearn import ADVISE, CASE_BOOTSTRAPPED, EXPLOIT, RANDOM_FALLBACK, QTable
from hyql.simenv import SimEnv, parse_scenario, world_from_scenario
from hyql.store import read_event_history
from test_golden import TINY_SCENARIO, WIDE_OVERRIDES

ITEMS = ("a0", "a1", "a2", "a3")

TUESDAY_9AM = 1 * 86_400 + 9 * 3_600
OFFICE = (48.85, 2.32)


def office_event():
    return RawEvent(TUESDAY_9AM, OFFICE, CognitiveAction("Navigate"))


class StubEnv:
    """Fixed reward, fixed follow-up event."""

    def __init__(self, reward=1.0, next_event=None):
        self.reward = reward
        self.next_event = next_event or office_event()

    def reset(self):
        return office_event()

    def step(self, action):
        return self.reward, self.next_event


def make_agent(variant="HyQL", seed=0, **overrides):
    config = AgentConfig(variant, "u00", seed=seed, **overrides)
    return Agent(config, ITEMS, "g0", TransactionStore(len(ITEMS)))


def office_situation():
    return SituationKey(TimeBucket("Morning", "Weekday", "Free"), "Office",
                        "g0", "Navigate", 0)


class TestHybridPolicy:
    def test_p_one_equals_greedy(self):
        table = QTable(len(ITEMS))
        table.set_value("s", 2, 1.0)
        store = TransactionStore(len(ITEMS))
        for _ in range(50):
            a, branch = hybrid_policy(table, "s", 1.0, store, "u00", random.Random(1))
            assert (a, branch) == (2, EXPLOIT)

    def test_p_zero_with_advice(self):
        s = office_situation()
        store = TransactionStore(len(ITEMS))
        for i in range(3):
            store.record_implicit(f"n{i}", 1, True, situation=s)
        rng = random.Random(2)
        for _ in range(50):
            a, branch = hybrid_policy(QTable(len(ITEMS)), s, 0.0, store, "u00", rng)
            assert (a, branch) == (1, ADVISE)

    def test_p_zero_empty_store_uniform_fallback(self):
        s = office_situation()
        store = TransactionStore(len(ITEMS))
        rng = random.Random(3)
        seen = set()
        for _ in range(400):
            a, branch = hybrid_policy(QTable(len(ITEMS)), s, 0.0, store, "u00", rng)
            assert branch == RANDOM_FALLBACK
            seen.add(a)
        assert seen == set(range(len(ITEMS)))

    def test_advice_of_item_0_takes_the_advise_branch(self):
        """Item 0 is advice like any other, though its index is falsy: the
        hybrid policy and a CFOnly agent both take it, not a random pick."""
        s = office_situation()
        store = TransactionStore(len(ITEMS))
        for i in range(3):
            store.record_implicit(f"n{i}", 0, True, situation=s)
        assert store.advise_action("u00", s) == 0
        rng = random.Random(4)
        for _ in range(50):
            assert hybrid_policy(QTable(len(ITEMS)), s, 0.0, store, "u00", rng) == (0, ADVISE)
        agent = make_agent("CFOnly")
        agent.cf_store = store
        for _ in range(5):
            record, _ = agent.step(office_event(), StubEnv(reward=0.0))
            assert (record.a, record.branch) == ("a0", ADVISE)


class TestStep:
    def test_case_bootstrap_then_exploit_picks_stored_best(self):
        """Hand-traced: unseen situation, one stored case with similarity
        1.0 whose best action is a3, and a seed whose first draw exploits.
        The row is bootstrapped from the case, then the greedy branch must
        pick a3."""
        seed = next(s for s in range(100) if random.Random(s).random() <= PARAMS.p)
        agent = make_agent("HyQL", seed=seed)
        s = CONTEXT.aggregate(office_event(), "g0")
        agent.casebase.retain(s, [1.0, 0.0, 0.0, 5.0], visits=5, step=1)
        record, _ = agent.step(office_event(), StubEnv())
        assert record.branch == CASE_BOOTSTRAPPED
        assert record.a == "a3"
        assert record.s == s

    def test_greedy_sticks_to_a0_until_reward(self):
        agent = make_agent("GreedyQ")
        env = StubEnv(reward=0.0)
        for _ in range(5):
            record, _ = agent.step(office_event(), env)
            assert record.a == "a0"
        env.reward = 1.0
        agent.step(office_event(), env)  # a0 finally pays out
        record, _ = agent.step(office_event(), env)
        assert record.a == "a0"

    def test_cfonly_never_updates_q(self):
        agent = make_agent("CFOnly")
        env = StubEnv(reward=1.0)
        for _ in range(30):
            agent.step(office_event(), env)
        assert len(agent.table) == 0

    def test_q_variants_update_q(self):
        agent = make_agent("EpsilonGreedyQ")
        env = StubEnv(reward=1.0)
        record, _ = agent.step(office_event(), env)
        s = CONTEXT.aggregate(office_event(), "g0")
        row = [0.0] * len(ITEMS)
        row[ITEMS.index(record.a)] = PARAMS.alpha * 1.0  # s_next is s, unwritten before
        # the whole table: one written row, and it holds exactly that value
        assert len(agent.table) == 1
        assert agent.table.row(s) == row

    def test_every_step_records_cf_transaction(self):
        agent = make_agent("GreedyQ")
        env = StubEnv(reward=1.0)
        for _ in range(7):
            agent.step(office_event(), env)
        assert len(agent.cf_store) == 7


def small_scenario():
    """Three users of one group on four items, with the canonical routine:
    u00 is the focal user, u01 and u02 one background event a step."""
    return dict(load_scenario("canonical"), users=3, items=4, agent_user="u00",
                background_rate=1, drift=[])


def run_pair(variant, seed, steps=120, world_seed=5, **overrides):
    scenario = parse_scenario(small_scenario())
    cf = TransactionStore(len(scenario.items))
    env = SimEnv(world_from_scenario(scenario, world_seed), cf)
    config = AgentConfig(variant, "u00", seed=seed, **overrides)
    agent = Agent(config, scenario.items, "g0", cf)
    return agent, agent.run(env, steps)


def test_a_scenario_without_background_rate_records_one_transaction_per_step():
    """`background_rate` defaults to 0: the store then holds the focal
    user's own rating of each step, and nothing else."""
    config = small_scenario()
    del config["background_rate"]
    scenario = parse_scenario(config)
    cf = TransactionStore(len(scenario.items))
    agent = Agent(AgentConfig("HyQL", "u00", seed=1), scenario.items, "g0", cf)
    agent.run(SimEnv(world_from_scenario(scenario, 5), cf), 40)
    assert len(cf) == 40


class TestRunEpisode:
    def test_single_step_episode(self):
        agent = make_agent("GreedyQ", episode_length=1)
        records = agent.run(StubEnv(), 1)
        assert len(records) == 1

    def test_case_base_grows_after_enough_visits(self):
        agent = make_agent("HyQL", episode_length=3)
        assert 3 < RETAIN_MIN_VISITS <= 6
        env = StubEnv()
        agent.run(env, 3)
        assert len(agent.casebase) == 0  # 3 visits
        agent.run(env, 3)
        assert len(agent.casebase) >= 1  # 6 cumulative visits

    def test_episode_ends_every_episode_length_steps_and_after_the_last(self, monkeypatch):
        agent = make_agent("HyQL", episode_length=3)
        ends = []
        monkeypatch.setattr(agent, "end_episode", lambda: ends.append(agent.step_count))
        agent.run(StubEnv(), 7)
        assert ends == [3, 6, 7]
        ends.clear()
        agent.run(StubEnv(), 6)
        assert ends == [10, 13]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_retrieve_once_per_new_situation_for_case_variants(self, monkeypatch, variant):
        """A case variant retrieves on the first step in each situation and
        never again: its lifetime visit count and its Q-row appear together."""
        retrieved = []
        original = CaseBase.retrieve

        def spy(self, problem):
            retrieved.append(problem)
            return original(self, problem)

        monkeypatch.setattr(CaseBase, "retrieve", spy)
        _, trace = run_pair(variant, seed=12, steps=300)
        if variant in ("CBRQ", "HyQL"):
            first_seen = list(dict.fromkeys(record.s for record in trace))
            assert retrieved == first_seen
            assert len(retrieved) > 1
        else:
            assert retrieved == []

    def test_greedy_recommends_the_first_item_and_keeps_no_table(self):
        agent, trace = run_pair("GreedyQ", seed=10, steps=300)
        assert {(r.a, r.branch) for r in trace} == {("doc00", EXPLOIT)}
        assert len(agent.table) == 0

    def test_only_the_q_learning_variants_keep_cases(self):
        """GreedyQ and CFOnly keep no Q-row, so they retain nothing; every
        variant with a table does, CBRQ's and HyQL's readers included."""
        for variant in VARIANTS:
            agent, _ = run_pair(variant, seed=10, steps=300)
            if variant in ("GreedyQ", "CFOnly"):
                assert len(agent.casebase) == 0
            else:
                assert len(agent.casebase) > 0
                assert all(len(case.solution) == len(agent.items)
                           for case in agent.casebase.cases.values())

    def test_trace_is_deterministic(self):
        _, t1 = run_pair("HyQL", seed=9)
        _, t2 = run_pair("HyQL", seed=9)
        assert t1 == t2

    def test_branch_tags_consistent_with_variant(self):
        allowed = {
            "GreedyQ": {EXPLOIT},
            "EpsilonGreedyQ": {EXPLOIT, RANDOM_FALLBACK},
            "CFOnly": {ADVISE, RANDOM_FALLBACK},
            "CBRQ": {EXPLOIT, RANDOM_FALLBACK, CASE_BOOTSTRAPPED},
            "HyQL": {EXPLOIT, ADVISE, RANDOM_FALLBACK, CASE_BOOTSTRAPPED},
        }
        for variant, tags in allowed.items():
            _, trace = run_pair(variant, seed=10)
            assert {r.branch for r in trace} <= tags

    def test_case_bootstrap_only_on_first_sight(self):
        _, trace = run_pair("HyQL", seed=11, steps=300)
        seen = set()
        for record in trace:
            if record.branch == CASE_BOOTSTRAPPED:
                assert record.s not in seen
            seen.add(record.s)


def test_each_update_learns_the_transition_the_run_files_state(tmp_path, monkeypatch):
    """The trace no longer writes s': each Q update's next situation is the
    next trace line's situation, and the last one is the situation of the
    last logged event."""
    updates = []
    original = QTable.update

    def spy(self, s, a, r, s_next, params):
        updates.append((s, r, s_next))
        return original(self, s, a, r, s_next, params)

    monkeypatch.setattr(QTable, "update", spy)
    scenario = parse_scenario(load_scenario("canonical"))
    steps, run_dir = 300, tmp_path / "run"
    run_trial(scenario, {"name": "HyQL", "variant": "HyQL"}, 1000, steps, run_dir)
    group = scenario.user(scenario.agent_user).social_group
    trace = read_run_trace(run_dir, steps, group)
    last_event = read_event_history(run_dir, steps)[-1]
    assert [(s, r) for s, r, _ in updates] == [(record.s, record.r) for record in trace]
    assert [s_next for _, _, s_next in updates] == \
        [record.s for record in trace[1:]] + [CONTEXT.aggregate(last_event, group)]


@pytest.mark.parametrize("name, steps", [("canonical", 2000), ("wide", 600), ("tiny", 2000)])
@pytest.mark.parametrize("variant", ["EpsilonGreedyQ", "CBRQ", "HyQL"])
def test_the_case_base_holds_only_the_focal_routines_situations(monkeypatch, name, steps,
                                                                variant):
    """The bound that stands in for eviction: the focal user steps only in
    its group's habits, so every case is one of them, and the base, which
    never drops a case, never outgrows that routine (at most 448 level-0
    situations of one group)."""
    agents = []

    def capture(*args):
        agents.append(Agent(*args))
        return agents[-1]

    monkeypatch.setattr(hyql.bench, "Agent", capture)
    config = TINY_SCENARIO if name == "tiny" else load_scenario("canonical")
    if name == "wide":
        config.update(WIDE_OVERRIDES)
    scenario = parse_scenario(config)
    run_trial(scenario, {"name": variant, "variant": variant}, 1000, steps)
    routine = {habit.situation for habit in scenario.user(scenario.agent_user).routine}
    casebase = agents[0].casebase
    assert casebase.cases and set(casebase.cases) <= routine
    assert len(casebase) <= len(routine)
