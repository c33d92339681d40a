import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyql.qlearn
from hyql.agent import PARAMS
from hyql.casebase import Case, RetrievalResult, adapt
from hyql.context import SituationKey, TimeBucket
from hyql.qlearn import (EXPLOIT, RANDOM_FALLBACK, LearningParams, QTable,
                         epsilon_greedy_action, greedy_action)


def key(place="Office", cognitive="Navigate", level=0):
    return SituationKey(TimeBucket("Morning", "Weekday", "Free"), place, "g0",
                        cognitive, level)


N_ACTIONS = 3


class ScriptedRng:
    """Replays a fixed uniform stream; randrange picks index 0."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def randrange(self, n):
        return 0


class TestQUpdate:
    def test_alpha_one_gamma_zero_collapses_to_reward(self):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 0, 123.0)
        table.update(key(), 0, 1.0, key("Home"),
                     LearningParams(alpha=1.0, gamma=0.0))
        assert table.value(key(), 0) == 1.0

    def test_alpha_zero_is_noop(self):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 0, 2.0)
        table.update(key(), 0, 5.0, key("Home"),
                     LearningParams(alpha=0.0, gamma=0.5))
        assert table.value(key(), 0) == 2.0

    def test_hand_evaluated_update(self):
        # 0 + 0.5 * (1 + 0.9 * 2.0 - 0) = 1.4
        table = QTable(N_ACTIONS)
        table.set_value(key("Home"), 1, 2.0)
        new = table.update(key(), 0, 1.0, key("Home"),
                           LearningParams(alpha=0.5, gamma=0.9))
        assert new == pytest.approx(1.4, abs=0)

    def test_touches_exactly_one_entry(self):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 0, 0.3)
        table.set_value(key(), 1, 0.7)
        table.set_value(key("Home"), 2, 0.5)
        def entries():
            return {(s, a): table.value(s, a) for s in (key(), key("Home"))
                    for a in range(N_ACTIONS)}

        before = entries()
        table.update(key(), 2, 1.0, key("Home"),
                     LearningParams(alpha=0.5, gamma=0.9))
        after = entries()
        changed = {k for k in set(before) | set(after)
                   if before.get(k) != after.get(k)}
        assert changed == {(key(), 2)}

    def test_contraction_property(self):
        rng = random.Random(2)
        for _ in range(300):
            table = QTable(N_ACTIONS)
            old = rng.uniform(-5, 5)
            table.set_value(key(), 0, old)
            max_next = rng.uniform(-5, 5)
            table.set_value(key("Home"), 1, max_next)
            params = LearningParams(alpha=rng.uniform(0.01, 1.0),
                                    gamma=rng.uniform(0, 0.99))
            r = rng.uniform(0, 1)
            new = table.update(key(), 0, r, key("Home"), params)
            # the row max sees default 0.0 for the two absent actions
            target = r + params.gamma * max(max_next, 0.0)
            assert abs(new - target) == pytest.approx(
                (1 - params.alpha) * abs(old - target), rel=1e-9, abs=1e-9)

    def test_non_finite_reward_rejected(self):
        table = QTable(N_ACTIONS)
        with pytest.raises(ValueError):
            table.update(key(), 0, float("nan"), key(),
                         LearningParams(alpha=0.5, gamma=0.5))

    def test_absent_pair_reads_default(self):
        table = QTable(N_ACTIONS)
        assert table.value(key(), 1) == 0.0
        # an absent action in a row that sits below 0.0 still reads 0.0
        table.set_value(key(), 0, -0.75)
        assert table.value(key(), 1) == 0.0
        assert table.value(key(), 0) == -0.75

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n_actions=st.integers(1, 12), data=st.data())
    def test_best_value_matches_the_catalog_scan(self, n_actions, data):
        """best_value is the max over every catalog index, and greedy_action
        the first index that reaches it, as a strict `>` scan in catalog
        order picks. Values come partly from a small pool, which forces ties,
        and straddle the 0.0 an unwritten entry reads; some rows sit wholly
        below it."""
        value = st.sampled_from((-1.0, -0.25, 0.0, 0.5)) | st.floats(-1.0, 1.0)
        writes = data.draw(st.lists(st.tuples(st.integers(0, n_actions - 1), value),
                                    max_size=2 * n_actions))
        table = QTable(n_actions)
        for a, v in writes:
            table.set_value(key(), a, v)
        best, first = -math.inf, None
        for a in range(n_actions):
            if table.value(key(), a) > best:
                best, first = table.value(key(), a), a
        assert table.best_value(key()) == best
        assert greedy_action(table, key()) == first


# A small alphabet, so that ties are common and writes often lower the entry
# that holds a row's maximum; -0.0 ties with 0.0 but is a different float.
SMALL_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
N_STATES, WIDE = 4, 6


def bits(values):
    """Floats compared bit for bit, so that -0.0 and 0.0 differ."""
    return [v.hex() for v in values]


@st.composite
def table_ops(draw):
    """One write to a table of N_STATES x WIDE: a `set_value`, an `update`
    or a case-base `adapt`."""
    kind = draw(st.sampled_from(["set_value", "update", "adapt"]))
    s = draw(st.integers(0, N_STATES - 1))
    if kind == "set_value":
        return kind, s, draw(st.integers(0, WIDE - 1)), draw(st.sampled_from(SMALL_VALUES))
    if kind == "update":
        return (kind, s, draw(st.integers(0, WIDE - 1)), draw(st.sampled_from(SMALL_VALUES)),
                draw(st.integers(0, N_STATES - 1)),
                LearningParams(alpha=draw(st.sampled_from((0.5, 1.0))),
                               gamma=draw(st.sampled_from((0.0, 0.5)))))
    solution = draw(st.lists(st.sampled_from(SMALL_VALUES), min_size=WIDE, max_size=WIDE))
    return kind, s, solution, draw(st.sampled_from((0.8, 1.0)))


class TestCachedMaximum:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ops=st.lists(table_ops(), max_size=40))
    def test_every_read_matches_a_plain_table(self, ops):
        """After every write, each state's best_value, greedy_action, row and
        values equal those of a dict of lists that scans its rows, written
        and unwritten states alike."""
        table, oracle = QTable(WIDE), {}

        def oracle_row(s):
            return oracle.get(s, [0.0] * WIDE)

        for op in ops:
            kind, s = op[0], op[1]
            if kind == "set_value":
                _, _, a, v = op
                table.set_value(s, a, v)
                oracle.setdefault(s, [0.0] * WIDE)[a] = v
            elif kind == "update":
                _, _, a, r, s_next, params = op
                old = oracle_row(s)[a]
                target = r + params.gamma * max(oracle_row(s_next))
                table.update(s, a, r, s_next, params)
                oracle.setdefault(s, [0.0] * WIDE)[a] = old + params.alpha * (target - old)
            else:
                _, _, solution, similarity = op
                case = Case(key(), solution, visits=1, step=0)
                assert adapt(RetrievalResult(case, similarity), s, table) == (s not in oracle)
                oracle.setdefault(s, [similarity * v for v in solution])
            for state in range(N_STATES):
                row = oracle_row(state)
                assert bits([table.best_value(state)]) == bits([max(row)])
                assert greedy_action(table, state) == row.index(max(row))
                assert bits(table.row(state)) == bits(oracle.get(state, []))
                assert bits([table.value(state, a) for a in range(WIDE)]) == bits(row)

    def test_reads_never_scan_and_only_lowering_the_maximum_rescans(self, monkeypatch):
        calls = []

        def counting_max(*args, **kwargs):
            calls.append(args)
            return max(*args, **kwargs)

        monkeypatch.setattr(hyql.qlearn, "max", counting_max, raising=False)
        table = QTable(4)

        def scans(write):
            calls.clear()
            write()
            for s in (key(), key("Home")):  # a written and an unwritten state
                greedy_action(table, s)
                table.best_value(s)
            return len(calls)

        assert scans(lambda: table.set_value(key(), 1, 0.5)) == 0  # raises the maximum
        assert scans(lambda: table.set_value(key(), 2, 0.5)) == 0  # ties it further on
        assert scans(lambda: table.set_value(key(), 0, 0.5)) == 0  # ties it earlier
        assert scans(lambda: table.set_value(key(), 3, -1.0)) == 0  # below it elsewhere
        assert (table.best_value(key()), greedy_action(table, key())) == (0.5, 0)
        assert scans(lambda: table.set_value(key(), 0, 0.25)) == 1  # lowers the maximum
        assert (table.best_value(key()), greedy_action(table, key())) == (0.5, 1)
        assert scans(lambda: table.set_value(key(), 1, 0.5)) == 0  # the same value again
        # a fresh row's maximum is its 0.0 at index 0
        assert scans(lambda: table.set_value(key("Home"), 2, -0.5)) == 0
        assert scans(lambda: table.set_value(key("Transit"), 0, -0.5)) == 1
        assert (table.best_value(key("Transit")), greedy_action(table, key("Transit"))) == (0.0, 1)
        # an update reads the next state's maximum without a scan
        params = LearningParams(alpha=0.5, gamma=0.5)
        assert scans(lambda: table.update(key("Home"), 3, 1.0, key(), params)) == 0


class TestParams:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            LearningParams(alpha=0.5, gamma=1.0)
        with pytest.raises(ValueError):
            LearningParams(alpha=1.5, gamma=0.5)
        with pytest.raises(ValueError):
            LearningParams(alpha=0.5, gamma=0.5, p=1.5)
        with pytest.raises(ValueError):
            LearningParams(alpha=0.5, gamma=0.5, p=-0.1)

    def test_every_bound_is_inclusive(self):
        """p 0 never exploits and p 1 always does; both are valid settings."""
        for p in (0.0, 1.0):
            assert LearningParams(alpha=0.5, gamma=0.5, p=p).p == p
        assert LearningParams(alpha=0.0, gamma=0.0).alpha == 0.0
        assert LearningParams(alpha=1.0, gamma=0.5).alpha == 1.0


class TestGreedy:
    def test_unique_maximum(self):
        table = QTable(N_ACTIONS)
        for a, v in ((0, 0.2), (1, 0.7), (2, 0.1)):
            table.set_value(key(), a, v)
        assert greedy_action(table, key()) == 1

    def test_tie_breaks_to_lowest_index(self):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 0, 0.7)
        table.set_value(key(), 1, 0.7)
        assert greedy_action(table, key()) == 0

    def test_unseen_state_all_defaults(self):
        assert greedy_action(QTable(N_ACTIONS), key()) == 0

    def test_absent_action_beats_a_row_below_zero(self):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 0, -0.5)
        table.set_value(key(), 2, -0.1)
        assert greedy_action(table, key()) == 1

    def test_does_not_copy_the_row(self, monkeypatch):
        table = QTable(N_ACTIONS)
        table.set_value(key(), 2, 0.9)
        monkeypatch.setattr(QTable, "row", None)
        assert greedy_action(table, key()) == 2

    def test_argmax_invariant_to_positive_shift(self):
        rng = random.Random(3)
        for _ in range(100):
            table = QTable(N_ACTIONS)
            shifted = QTable(N_ACTIONS)
            for a in range(N_ACTIONS):
                v = rng.uniform(-1, 1)
                table.set_value(key(), a, v)
                shifted.set_value(key(), a, v + 7.5)
            assert (greedy_action(table, key())
                    == greedy_action(shifted, key()))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(n_actions=st.integers(1, 12),
           steps=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, 1.0]),
                                    st.integers(0, 5)), max_size=60))
    def test_greedy_learning_from_a_zero_table_never_leaves_index_0(self, n_actions, steps):
        """Why GreedyQ keeps no table: updated with PARAMS only at its own
        greedy pick, on 0/1 rewards, a zero table only ever raises entry 0 of
        a row, so the tie that gives index 0 the pick never breaks."""
        table = QTable(n_actions)
        for s, r, s_next in steps:
            a = greedy_action(table, s)
            assert a == 0
            table.update(s, a, r, s_next, PARAMS)
        assert {greedy_action(table, s) for s in range(6)} == {0}


class TestEpsilonGreedy:
    def test_p_one_always_exploits(self):
        rng = random.Random(4)
        table = QTable(N_ACTIONS)
        for _ in range(200):
            _, branch = epsilon_greedy_action(table, key(), 1.0, rng)
            assert branch == EXPLOIT

    def test_p_zero_explores(self):
        rng = random.Random(5)
        branches = {epsilon_greedy_action(QTable(N_ACTIONS), key(), 0.0, rng)[1]
                    for _ in range(200)}
        assert branches == {RANDOM_FALLBACK}

    def test_scripted_stream(self):
        rng = ScriptedRng([0.3, 0.8])
        _, b1 = epsilon_greedy_action(QTable(N_ACTIONS), key(), 0.5, rng)
        _, b2 = epsilon_greedy_action(QTable(N_ACTIONS), key(), 0.5, rng)
        assert (b1, b2) == (EXPLOIT, RANDOM_FALLBACK)


# ---------------------------------------------------------------------------
# Explicit-MDP value iteration: the convergence oracle for the Q update
# ---------------------------------------------------------------------------

@dataclass
class ExplicitMDP:
    """Dense finite MDP: transitions[s][a][s'] and rewards[s][a]."""

    transitions: Sequence[Sequence[Sequence[float]]]
    rewards: Sequence[Sequence[float]]

    def __post_init__(self):
        if not self.transitions or not self.transitions[0]:
            raise ValueError("MDP needs at least one state and one action")
        n = self.n_states
        for s, per_action in enumerate(self.transitions):
            for a, dist in enumerate(per_action):
                if len(dist) != n:
                    raise ValueError(f"transition row ({s},{a}) has wrong length")
                if abs(sum(dist) - 1.0) > 1e-9:
                    raise ValueError(f"transition row ({s},{a}) does not sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_actions(self) -> int:
        return len(self.transitions[0])


def value_iteration(mdp: ExplicitMDP, gamma: float,
                    tolerance: float = 1e-10) -> list[list[float]]:
    """Bellman optimality backups to a max-norm fixed point; returns Q*."""
    if gamma >= 1.0 or gamma < 0.0:
        raise ValueError("gamma must be in [0, 1)")
    n_s, n_a = mdp.n_states, mdp.n_actions
    q = [[0.0] * n_a for _ in range(n_s)]
    while True:
        v = [max(q[s]) for s in range(n_s)]
        delta = 0.0
        for s in range(n_s):
            for a in range(n_a):
                new = mdp.rewards[s][a] + gamma * sum(
                    p * v[t] for t, p in enumerate(mdp.transitions[s][a]) if p)
                delta = max(delta, abs(new - q[s][a]))
                q[s][a] = new
        if delta < tolerance:
            return q


def random_mdp(n_states: int, n_actions: int, rng: random.Random) -> ExplicitMDP:
    """Random dense MDP with rewards in [0, 1]; used by convergence tests."""
    transitions = []
    rewards = []
    for _ in range(n_states):
        per_action = []
        reward_row = []
        for _ in range(n_actions):
            raw = [rng.random() for _ in range(n_states)]
            total = sum(raw)
            per_action.append([x / total for x in raw])
            reward_row.append(rng.random())
        transitions.append(per_action)
        rewards.append(reward_row)
    return ExplicitMDP(transitions, rewards)


class TestValueIteration:
    def test_single_state_geometric_series(self):
        mdp = ExplicitMDP([[[1.0]]], [[1.0]])
        q = value_iteration(mdp, gamma=0.5, tolerance=1e-12)
        assert q[0][0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_rewards_zero_fixed_point(self):
        rng = random.Random(6)
        mdp = random_mdp(4, 2, rng)
        zero = ExplicitMDP(mdp.transitions, [[0.0] * 2 for _ in range(4)])
        q = value_iteration(zero, gamma=0.9)
        assert all(v == 0.0 for row in q for v in row)

    def test_gamma_one_rejected(self):
        mdp = ExplicitMDP([[[1.0]]], [[1.0]])
        with pytest.raises(ValueError):
            value_iteration(mdp, gamma=1.0)

    def test_against_policy_enumeration_oracle(self):
        """Independent oracle: evaluate all 3^5 deterministic policies by
        solving the linear system (I - gamma * P_pi) v = r_pi, take the
        state-wise best values and back out Q* from one Bellman step."""
        gamma = 0.9
        tolerance = 1e-8
        mdp = random_mdp(5, 3, random.Random(7))
        q_vi = value_iteration(mdp, gamma, tolerance)

        transitions = np.array(mdp.transitions)
        rewards = np.array(mdp.rewards)
        n_states, n_actions = 5, 3
        best_v = np.full(n_states, -np.inf)
        from itertools import product
        for policy in product(range(n_actions), repeat=n_states):
            p_pi = np.stack([transitions[s, policy[s]] for s in range(n_states)])
            r_pi = np.array([rewards[s, policy[s]] for s in range(n_states)])
            v_pi = np.linalg.solve(np.eye(n_states) - gamma * p_pi, r_pi)
            best_v = np.maximum(best_v, v_pi)
        q_oracle = rewards + gamma * transitions @ best_v

        for s in range(n_states):
            for a in range(n_actions):
                assert abs(q_vi[s][a] - q_oracle[s][a]) < 10 * tolerance

    def test_q_sweeps_reach_the_oracle_on_a_deterministic_mdp(self):
        """With alpha = 1, one sweep of Q updates over every (s, a) of a
        deterministic MDP is one Bellman backup, so the table converges to
        value iteration's Q*."""
        rng = random.Random(8)
        n_states, n_actions, gamma = 6, 3, 0.9
        nxt = [[rng.randrange(n_states) for _ in range(n_actions)] for _ in range(n_states)]
        transitions = [[[1.0 if t == nxt[s][a] else 0.0 for t in range(n_states)]
                        for a in range(n_actions)] for s in range(n_states)]
        mdp = ExplicitMDP(transitions, random_mdp(n_states, n_actions, rng).rewards)
        q_star = value_iteration(mdp, gamma, tolerance=1e-12)

        table = QTable(n_actions)
        params = LearningParams(alpha=1.0, gamma=gamma)
        for _ in range(400):
            for s in range(n_states):
                for a in range(n_actions):
                    table.update(s, a, mdp.rewards[s][a], nxt[s][a], params)
        for s in range(n_states):
            for a in range(n_actions):
                assert table.value(s, a) == pytest.approx(q_star[s][a], abs=1e-9)
