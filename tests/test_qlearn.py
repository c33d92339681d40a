import math
import random

import numpy as np
import pytest

from hyql.context import SituationKey, TimeBucket
from hyql.qlearn import (EXPLOIT, EXPLORE, ActionCatalog, CatalogError,
                         ExplicitMDP, LearningParams, QTable,
                         epsilon_greedy_action, greedy_action, random_mdp,
                         value_iteration)


def key(place="Office", cognitive="Navigate", level=0):
    return SituationKey(TimeBucket("Morning", "Weekday", "Free"), place, "g0",
                        cognitive, level)


CATALOG = ActionCatalog(["a0", "a1", "a2"])


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
        table = QTable()
        table.set_value(key(), "a0", 123.0)
        table.update(key(), "a0", 1.0, key("Home"), CATALOG,
                     LearningParams(alpha=1.0, gamma=0.0))
        assert table.value(key(), "a0") == 1.0

    def test_alpha_zero_is_noop(self):
        table = QTable()
        table.set_value(key(), "a0", 2.0)
        table.update(key(), "a0", 5.0, key("Home"), CATALOG,
                     LearningParams(alpha=0.0, gamma=0.5))
        assert table.value(key(), "a0") == 2.0

    def test_hand_evaluated_update(self):
        # 0 + 0.5 * (1 + 0.9 * 2.0 - 0) = 1.4
        table = QTable()
        table.set_value(key("Home"), "a1", 2.0)
        new = table.update(key(), "a0", 1.0, key("Home"), CATALOG,
                           LearningParams(alpha=0.5, gamma=0.9))
        assert new == pytest.approx(1.4, abs=0)

    def test_touches_exactly_one_entry(self):
        table = QTable()
        table.set_value(key(), "a0", 0.3)
        table.set_value(key(), "a1", 0.7)
        table.set_value(key("Home"), "a2", 0.5)
        before = {(s, a): v for s, a, v in table.entries()}
        table.update(key(), "a2", 1.0, key("Home"), CATALOG,
                     LearningParams(alpha=0.5, gamma=0.9))
        after = {(s, a): v for s, a, v in table.entries()}
        changed = {k for k in set(before) | set(after)
                   if before.get(k) != after.get(k)}
        assert changed == {(key(), "a2")}

    def test_contraction_property(self):
        rng = random.Random(2)
        for _ in range(300):
            table = QTable()
            old = rng.uniform(-5, 5)
            table.set_value(key(), "a0", old)
            max_next = rng.uniform(-5, 5)
            table.set_value(key("Home"), "a1", max_next)
            params = LearningParams(alpha=rng.uniform(0.01, 1.0),
                                    gamma=rng.uniform(0, 0.99))
            r = rng.uniform(0, 1)
            new = table.update(key(), "a0", r, key("Home"), CATALOG, params)
            # the row max sees default 0.0 for the two absent actions
            target = r + params.gamma * max(max_next, 0.0)
            assert abs(new - target) == pytest.approx(
                (1 - params.alpha) * abs(old - target), rel=1e-9, abs=1e-9)

    def test_non_finite_reward_rejected(self):
        table = QTable()
        with pytest.raises(ValueError):
            table.update(key(), "a0", float("nan"), key(), CATALOG,
                         LearningParams(alpha=0.5, gamma=0.5))

    def test_inverse_visits_schedule(self):
        table = QTable()
        params = LearningParams(alpha=1.0, gamma=0.0,
                                alpha_schedule="inverse-visits")
        # first update: alpha=1 -> Q=r1; second: alpha=1/2 -> mean(r1, r2)
        table.update(key(), "a0", 1.0, key(), CATALOG, params)
        table.update(key(), "a0", 0.0, key(), CATALOG, params)
        assert table.value(key(), "a0") == pytest.approx(0.5)

    def test_absent_pair_reads_default(self):
        table = QTable(default_value=0.25)
        assert table.value(key(), "a1") == 0.25

    def test_best_value_matches_the_catalog_scan(self):
        rng = random.Random(15)
        catalog = ActionCatalog([f"a{i}" for i in range(12)])
        for _ in range(300):
            table = QTable(default_value=0.5)
            # values straddle the default; some rows sit wholly below it
            high = rng.choice((0.4, 1.0))
            for a in rng.sample(catalog.actions, rng.randrange(len(catalog) + 1)):
                table.set_value(key(), a, rng.uniform(-1.0, high))
            scan = max(table.value(key(), a) for a in catalog)
            assert table.best_value(key(), catalog) == scan


class TestParams:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            LearningParams(alpha=0.5, gamma=1.0)
        with pytest.raises(ValueError):
            LearningParams(alpha=1.5, gamma=0.5)
        with pytest.raises(ValueError):
            LearningParams(alpha=0.5, gamma=0.5, p=1.5)


class TestGreedy:
    def test_unique_maximum(self):
        table = QTable()
        for a, v in (("a0", 0.2), ("a1", 0.7), ("a2", 0.1)):
            table.set_value(key(), a, v)
        assert greedy_action(table, key(), CATALOG) == "a1"

    def test_tie_breaks_to_lowest_index(self):
        table = QTable()
        table.set_value(key(), "a0", 0.7)
        table.set_value(key(), "a1", 0.7)
        assert greedy_action(table, key(), CATALOG) == "a0"

    def test_unseen_state_all_defaults(self):
        assert greedy_action(QTable(), key(), CATALOG) == "a0"

    def test_argmax_invariant_to_positive_shift(self):
        rng = random.Random(3)
        for _ in range(100):
            table = QTable()
            shifted = QTable()
            for a in CATALOG:
                v = rng.uniform(-1, 1)
                table.set_value(key(), a, v)
                shifted.set_value(key(), a, v + 7.5)
            assert (greedy_action(table, key(), CATALOG)
                    == greedy_action(shifted, key(), CATALOG))


class TestEpsilonGreedy:
    def test_p_one_always_exploits(self):
        rng = random.Random(4)
        table = QTable()
        for _ in range(200):
            _, branch = epsilon_greedy_action(table, key(), CATALOG, 1.0, rng)
            assert branch == EXPLOIT

    def test_p_zero_explores(self):
        rng = random.Random(5)
        branches = {epsilon_greedy_action(QTable(), key(), CATALOG, 0.0, rng)[1]
                    for _ in range(200)}
        assert branches == {EXPLORE}

    def test_scripted_stream(self):
        rng = ScriptedRng([0.3, 0.8])
        _, b1 = epsilon_greedy_action(QTable(), key(), CATALOG, 0.5, rng)
        _, b2 = epsilon_greedy_action(QTable(), key(), CATALOG, 0.5, rng)
        assert (b1, b2) == (EXPLOIT, EXPLORE)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            epsilon_greedy_action(QTable(), key(), CATALOG, 1.2, random.Random(0))


class TestCatalog:
    def test_non_empty(self):
        with pytest.raises(ValueError):
            ActionCatalog([])

    def test_indices_contiguous(self):
        assert [CATALOG.index(a) for a in CATALOG] == [0, 1, 2]

    def test_unknown_action(self):
        with pytest.raises(CatalogError):
            CATALOG.index("a9")


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
