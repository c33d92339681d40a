import random

import pytest

from hyql.collab import TransactionStore
from hyql.context import Profile
from hyql.qlearn import ActionCatalog
from hyql.simenv import (DriftOp, RoutineTriple, SimEnv, apply_drift,
                         build_population, default_routine, gen_event, reward,
                         situation_for, world_from_scenario)


def small_world(seed=0, n_users=4, affinity=0.8, n_items=5, drift=()):
    rng = random.Random(seed)
    return build_population(n_users, 1, n_items, affinity, rng, drift=drift,
                            seed=seed)


SINGLE_TRIPLE = (RoutineTriple("Morning", "Weekday", "Free", "Office",
                               "Navigate", 1.0),)


class TestBuildPopulation:
    def test_affinity_one_makes_clones(self):
        world = small_world(affinity=1.0)
        rows = [world.row(u.user_id, world.situations(u.user_id)[0])
                for u in world.users]
        assert all(r == rows[0] for r in rows)

    def test_affinity_zero_detaches_from_prototype(self):
        world = small_world(affinity=0.0)
        u = world.users[0]
        key = world.situations(u.user_id)[0]
        proto = world.prototypes[(u.social_group, key)]
        assert world.row(u.user_id, key) != proto

    def test_determinism(self):
        a = small_world(seed=42, n_users=10)
        b = small_world(seed=42, n_users=10)
        assert a.relevance == b.relevance
        assert [u.user_id for u in a.users] == [u.user_id for u in b.users]

    def test_probabilities_in_range(self):
        world = small_world(seed=3, n_users=8)
        assert all(0.0 <= p <= 1.0 for row in world.relevance.values() for p in row)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            build_population(0, 1, 5, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            build_population(2, 1, 5, 1.5, random.Random(0))

    def test_every_routine_situation_covered(self):
        world = small_world()
        for profile in world.users:
            for key in world.situations(profile.user_id):
                assert (profile.user_id, key) in world.relevance


class TestGenEvent:
    def test_degenerate_routine_hits_one_key(self):
        rng = random.Random(1)
        world = build_population(2, 1, 4, 0.8, rng,
                                 routines={"g0": SINGLE_TRIPLE}, seed=1)
        evt_rng = random.Random(2)
        expected = situation_for(SINGLE_TRIPLE[0], "g0")
        for step in range(100):
            event = gen_event(world, "u00", step, evt_rng)
            key = world.context.aggregate(event, Profile("g0"), 0)
            assert key == expected

    def test_fixed_seed_fixed_sequence(self):
        world = small_world(seed=9)
        a = [gen_event(world, "u00", s, random.Random(77)) for s in range(5)]
        b = [gen_event(world, "u00", s, random.Random(77)) for s in range(5)]
        assert a == b

    def test_triple_frequencies_match_weights(self):
        world = small_world(seed=5)
        profile = world.users[0]
        rng = random.Random(6)
        counts = {situation_for(t, "g0"): 0 for t in profile.routine}
        n = 10_000
        for step in range(n):
            event = gen_event(world, "u00", step, rng)
            key = world.context.aggregate(event, Profile("g0"), 0)
            counts[key] += 1
        for triple in profile.routine:
            freq = counts[situation_for(triple, "g0")] / n
            assert abs(freq - triple.weight) <= 0.02

    def test_events_abstract_back_to_routine_keys(self):
        world = small_world(seed=7)
        rng = random.Random(8)
        valid = set(world.situations("u00"))
        for step in range(500):
            event = gen_event(world, "u00", step, rng)
            key = world.context.aggregate(event, Profile("g0"), 0)
            assert key in valid


class TestReward:
    def _world_with_row(self, values):
        world = small_world(n_items=len(values))
        key = world.situations("u00")[0]
        world.relevance[("u00", key)] = list(values)
        return world, key

    def test_certain_acceptance(self):
        world, key = self._world_with_row([1.0, 0.0])
        rng = random.Random(0)
        assert all(reward(world, "u00", key, "doc00", rng) == 1.0
                   for _ in range(100))

    def test_certain_rejection(self):
        world, key = self._world_with_row([1.0, 0.0])
        rng = random.Random(0)
        assert all(reward(world, "u00", key, "doc01", rng) == 0.0
                   for _ in range(100))

    def test_half_probability_monte_carlo(self):
        world, key = self._world_with_row([0.5, 0.0])
        rng = random.Random(123)
        n = 10_000
        mean = sum(reward(world, "u00", key, "doc00", rng) for _ in range(n)) / n
        assert abs(mean - 0.5) <= 0.02

    def test_uncovered_situation_raises(self):
        from hyql.simenv import CoverageError
        world = small_world()
        stray = world.situations("u00")[0]
        with pytest.raises(CoverageError):
            world.row("u99", stray)


class TestDrift:
    def test_no_op_scheduled_world_unchanged(self):
        world = small_world(seed=11)
        before = {k: list(v) for k, v in world.relevance.items()}
        assert apply_drift(world, 100) == 0
        assert world.relevance == before

    def test_swap_exchanges_best_and_worst(self):
        world = small_world(seed=12, n_users=1, n_items=3,
                            drift=[DriftOp(5, "SwapTopItems", "g0")])
        key = world.situations("u00")[0]
        world.relevance[("u00", key)] = [0.9, 0.1, 0.5]
        # force every other row to something inert
        for k in world.relevance:
            if k != ("u00", key):
                world.relevance[k] = [0.3, 0.3, 0.3]
        apply_drift(world, 5)
        assert world.relevance[("u00", key)] == [0.1, 0.9, 0.5]

    def test_op_applies_exactly_once(self):
        world = small_world(seed=12, n_users=1, n_items=3,
                            drift=[DriftOp(5, "SwapTopItems", "g0")])
        assert apply_drift(world, 5) == 1
        snapshot = {k: list(v) for k, v in world.relevance.items()}
        assert apply_drift(world, 6) == 0
        assert world.relevance == snapshot

    def test_swap_moves_argmax_when_best_differs_from_worst(self):
        world = small_world(seed=13, drift=[DriftOp(0, "SwapTopItems", "g0")])
        before = {k: list(v) for k, v in world.relevance.items()}
        apply_drift(world, 0)
        for k, row_before in before.items():
            hi = row_before.index(max(row_before))
            lo = row_before.index(min(row_before))
            if hi != lo:
                assert world.relevance[k].index(max(world.relevance[k])) != hi \
                    or row_before[hi] == row_before[lo]

    def test_resample_keeps_range_and_changes_rows(self):
        world = small_world(seed=14, drift=[DriftOp(3, "ResampleRow", "g0")])
        before = {k: list(v) for k, v in world.relevance.items()}
        apply_drift(world, 3)
        assert all(0.0 <= p <= 1.0 for row in world.relevance.values() for p in row)
        assert world.relevance != before

    def test_scoped_drift_touches_only_scope(self):
        world = small_world(seed=15)
        key = world.situations("u00")[0]
        world.drift_schedule = [DriftOp(0, "SwapTopItems", "u00", key.canonical())]
        before = {k: list(v) for k, v in world.relevance.items()}
        apply_drift(world, 0)
        for k, row in world.relevance.items():
            if k == ("u00", key):
                continue
            assert row == before[k]


class TestEnvStep:
    def test_deterministic_reward_chain(self):
        rng = random.Random(20)
        world = build_population(1, 1, 2, 1.0, rng,
                                 routines={"g0": SINGLE_TRIPLE}, seed=20)
        key = world.situations("u00")[0]
        world.relevance[("u00", key)] = [1.0, 0.0]
        env = SimEnv(world)
        env.reset("u00")
        total = sum(env.step("u00", "doc00")[0] for _ in range(50))
        assert total == 50.0

    def test_fixed_seed_fixed_rewards(self):
        rewards = []
        for _ in range(2):
            world = small_world(seed=21)
            env = SimEnv(world)
            env.reset("u00")
            rewards.append([env.step("u00", "doc01")[0] for _ in range(100)])
        assert rewards[0] == rewards[1]

    def test_optimal_policy_matches_closed_form(self):
        world = small_world(seed=23)
        env = SimEnv(world)
        event = env.reset("u00")
        catalog = world.catalog
        n = 20_000
        total = 0.0
        for _ in range(n):
            s = env.current_situation("u00")
            row = world.row("u00", s)
            best = catalog.actions[row.index(max(row))]
            r, event = env.step("u00", best)
            total += r
        expected = world.optimal_expected_reward("u00")
        assert abs(total / n - expected) <= 0.02

    def test_background_burst_fills_store(self):
        world = small_world(seed=24)
        store = TransactionStore(world.catalog, world.context)
        env = SimEnv(world, store, background_rate=0,
                     background_users=["u01", "u02"])
        env.background_burst(250)
        assert len(store) == 250
        for profile in world.users:
            user = profile.user_id
            rated = [set().union(*(store.vector(user, key, level)
                                   for key in world.situations(user)))
                     for level in range(world.context.depth + 1)]
            assert bool(rated[0]) == (user in ("u01", "u02"))
            # situation-tagged: every rated (user, item) is indexed at every level
            assert all(items == rated[0] for items in rated)


class TestGroupCoherence:
    def test_row_distance_non_increasing_in_affinity(self):
        def mean_abs_diff(affinity):
            world = small_world(seed=30, n_users=2, affinity=affinity)
            total = count = 0.0
            for key in world.situations("u00"):
                a = world.row("u00", key)
                b = world.row("u01", key)
                total += sum(abs(x - y) for x, y in zip(a, b))
                count += len(a)
            return total / count

        d0, d5, d1 = mean_abs_diff(0.0), mean_abs_diff(0.5), mean_abs_diff(1.0)
        assert d0 >= d5 >= d1
        assert d1 == 0.0


class TestScenario:
    def test_world_from_scenario_canonical(self, canonical_scenario):
        world = world_from_scenario(canonical_scenario, 7)
        assert len(world.users) == 11
        assert len(world.catalog) == 20
        assert len(world.situations("u10")) == 6
        assert world.drift_schedule[0].step == 1000

    def test_scenario_determinism(self, canonical_scenario):
        a = world_from_scenario(canonical_scenario, 3)
        b = world_from_scenario(canonical_scenario, 3)
        assert a.relevance == b.relevance
