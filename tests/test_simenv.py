import copy
import dataclasses
import math
import random
import re
from array import array
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from conftest import positive_items
from hyql.bench import load_scenario
from hyql.collab import TransactionStore
from hyql.context import (CALENDAR_STATES, COGNITIVE_KINDS, CONTEXT, DAY_CLASSES,
                          PARTS_OF_DAY, situation)
from hyql.simenv import (_STREAM_BUILD, MAX_ITEMS, MAX_RELEVANCE_ROWS,
                         MAX_RELEVANCE_VALUES, SEED_SPREAD,
                         DriftOp, Habit, SimEnv, _draw_row, _habit_bounds,
                         _mix_row, apply_drift, focal_events, gen_event, parse_scenario,
                         reward, world_from_scenario)

SINGLE_HABIT = {"part_of_day": "Morning", "day_class": "Weekday", "calendar": "Free",
                "place": "Office", "cognitive": "Navigate", "weight": 1.0}


def scenario(n_users=4, affinity=0.8, n_items=5, drift=(), routine=None, **changes):
    """A one-group scenario config, on the canonical routine by default, with
    u00 as the focal user unless `changes` names another."""
    canonical = load_scenario("canonical")
    config = dict(canonical, users=n_users, affinity=affinity, items=n_items,
                  agent_user="u00", drift=list(drift),
                  routines={"g0": routine or canonical["routines"]["g0"]})
    config.update(changes)
    return config


def situations(world, user_id):
    """The user's routine situations, in routine order."""
    return [habit.situation for habit in world.scenario.user(user_id).routine]


def env_of(world):
    """A SimEnv of the world, with a fresh CF store."""
    return SimEnv(world, TransactionStore(len(world.scenario.items)))


def small_world(seed=0, **changes):
    return world_from_scenario(parse_scenario(scenario(**changes)), seed)


def swap(step):
    return {"step": step, "op": "SwapTopItems", "target": "g0"}


class TestBuildPopulation:
    def test_affinity_one_makes_clones(self):
        world = small_world(affinity=1.0)
        rows = [world.row(u.user_id, situations(world, u.user_id)[0])
                for u in world.scenario.users]
        assert all(r == rows[0] for r in rows)

    def test_affinity_zero_detaches_from_prototype(self):
        # the first prototype the build stream draws is the first habit's
        proto = _draw_row(random.Random(0 * SEED_SPREAD + _STREAM_BUILD), 5)
        for affinity, attached in ((1.0, True), (0.0, False)):
            world = small_world(seed=0, affinity=affinity, n_items=5)
            u = world.scenario.users[0]
            key = situations(world, u.user_id)[0]
            assert (world.row(u.user_id, key) == proto) is attached

    def test_determinism(self):
        a = small_world(seed=42, n_users=10)
        b = small_world(seed=42, n_users=10)
        assert a.relevance == b.relevance
        assert [u.user_id for u in a.scenario.users] == [u.user_id for u in b.scenario.users]

    def test_probabilities_in_range(self):
        world = small_world(seed=3, n_users=8)
        assert all(0.0 <= p <= 1.0 for row in world.relevance.values() for p in row)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario(scenario(n_users=0, affinity=0.5))
        with pytest.raises(ValueError):
            parse_scenario(scenario(n_users=2, affinity=1.5))
        with pytest.raises(ValueError, match="items must be an integer >= 1"):
            parse_scenario(scenario(n_items=0))  # an empty catalog

    def test_world_size_bound_is_inclusive(self):
        # the canonical routine has 6 habits: 166 x 10,000 x 6 is 9,960,000
        assert len(scenario()["routines"]["g0"]) == 6
        parsed = parse_scenario(scenario(n_users=166, n_items=MAX_ITEMS))
        assert len(parsed.users) * len(parsed.items) * 6 <= MAX_RELEVANCE_VALUES
        with pytest.raises(ValueError, match="items must be at most 10000, got 10001"):
            parse_scenario(scenario(n_items=MAX_ITEMS + 1))
        with pytest.raises(ValueError, match="at most 10000000, got 167 x 10000 x 6"):
            parse_scenario(scenario(n_users=167, n_items=MAX_ITEMS))
        # rows: 33,333 x 6 is 199,998, of one value each
        parsed = parse_scenario(scenario(n_users=33_333, n_items=1))
        assert len(parsed.users) * 6 <= MAX_RELEVANCE_ROWS
        with pytest.raises(ValueError, match="at most 200000, got 33334 x 6"):
            parse_scenario(scenario(n_users=33_334, n_items=1))
        # the edge itself, on a one-habit routine
        parse_scenario(scenario(n_users=MAX_RELEVANCE_ROWS, n_items=1, routine=[SINGLE_HABIT]))
        with pytest.raises(ValueError, match="at most 200000, got 200001 x 1"):
            parse_scenario(scenario(n_users=MAX_RELEVANCE_ROWS + 1, n_items=1,
                                    routine=[SINGLE_HABIT]))

    def test_every_routine_situation_covered(self):
        world = small_world()
        for profile in world.scenario.users:
            for key in situations(world, profile.user_id):
                assert (profile.user_id, key) in world.relevance


class Draws:
    """A stand-in rng whose random() hands out the given values in turn."""

    def __init__(self, values):
        self.values = values
        self.n = 0

    def random(self):
        value = self.values[self.n % len(self.values)]
        self.n += 1
        return value


def oracle_mix_row(proto, rng, affinity):
    """The per-item clamp the world build used, which the row must match bit for bit."""
    return [min(1.0, max(0.0, affinity * p + (1.0 - affinity) * rng.random()))
            for p in proto]


def exact(row):
    """Values with their sign, so +0.0 and -0.0 differ."""
    return [(x, math.copysign(1.0, x)) for x in row]


def exact_rows(world):
    """Every relevance row by value, bit for bit, whatever container holds it."""
    return {k: exact(row) for k, row in world.relevance.items()}


LARGEST_DRAW = 1.0 - 2.0 ** -53


class TestMixRow:
    @pytest.mark.parametrize("draws", [[0.0], [LARGEST_DRAW], [0.0, LARGEST_DRAW, 0.5]])
    @pytest.mark.parametrize("affinity", [
        0.0, 5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
        math.nextafter(1.0, 0.0), 1.0])
    def test_matches_the_per_item_clamp(self, affinity, draws):
        # prototype values are random() draws, in [0, 1)
        values = [0.0, 5e-324, 0.25, 0.5, math.nextafter(1.0, 0.0)]
        rows = [values] + [[a, b] for a in values for b in values]
        for row in rows:
            rng = Draws(draws)
            got = _mix_row(row, rng, affinity)
            assert got.typecode == "d"  # packed doubles, not a list of floats
            assert rng.n == len(row)  # one draw per item, as the oracle takes
            assert exact(got) == exact(oracle_mix_row(row, Draws(draws), affinity))

    def test_matches_the_per_item_clamp_on_random_draws(self):
        rng = random.Random(6)
        for _ in range(2000):
            affinity = rng.choice([rng.random(), 1.0 - rng.random(), 1.0, 0.0])
            proto = [rng.random() for _ in range(8)]
            seed = rng.random()
            assert exact(_mix_row(proto, random.Random(seed), affinity)) == exact(
                oracle_mix_row(proto, random.Random(seed), affinity))


LEAVES = sorted(set(CONTEXT.nodes) - {node.parent for node in CONTEXT.nodes.values()})


def every_degenerate_routine():
    """One group per leaf place x time bucket x cognitive kind, each with a
    routine of that one habit, and one user per group."""
    habits = [dict(part_of_day=part, day_class=day, calendar=state, place=place,
                   cognitive=kind, weight=1.0)
              for place in LEAVES for part in PARTS_OF_DAY for day in DAY_CLASSES
              for state in CALENDAR_STATES for kind in COGNITIVE_KINDS]
    config = dict(scenario(n_users=len(habits), n_items=3), groups=len(habits),
                  routines={f"g{i}": [habit] for i, habit in enumerate(habits)})
    return world_from_scenario(parse_scenario(config), 1)


DEGENERATE = every_degenerate_routine()


class TestGenEvent:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(step=st.integers(0, 10**7), seed=st.integers(0, 2**32))
    def test_degenerate_routine_hits_one_key(self, step, seed):
        rng = random.Random(seed)
        assert len(DEGENERATE.scenario.users) == 4 * 16 * 4
        for profile in DEGENERATE.scenario.users:
            (habit,) = profile.routine
            event = gen_event(DEGENERATE, profile.user_id, step, rng)
            assert CONTEXT.aggregate(event, profile.social_group) == habit.situation

    def test_fixed_seed_fixed_sequence(self):
        world = small_world(seed=9)
        a = [gen_event(world, "u00", s, random.Random(77)) for s in range(5)]
        b = [gen_event(world, "u00", s, random.Random(77)) for s in range(5)]
        assert a == b

    def test_triple_frequencies_match_weights(self):
        world = small_world(seed=5)
        profile = world.scenario.users[0]
        rng = random.Random(6)
        counts = {habit.situation: 0 for habit in profile.routine}
        n = 10_000
        for step in range(n):
            event = gen_event(world, "u00", step, rng)
            key = CONTEXT.aggregate(event, "g0")
            counts[key] += 1
        for habit in profile.routine:
            freq = counts[habit.situation] / n
            assert abs(freq - habit.weight) <= 0.02

    def test_events_abstract_back_to_routine_keys(self):
        world = small_world(seed=7)
        rng = random.Random(8)
        valid = set(situations(world, "u00"))
        for step in range(500):
            event = gen_event(world, "u00", step, rng)
            key = CONTEXT.aggregate(event, "g0")
            assert key in valid


class TestReward:
    def _world_with_row(self, values):
        world = small_world(n_items=len(values))
        key = situations(world, "u00")[0]
        world.relevance[("u00", key)] = list(values)
        return world, key

    def test_certain_acceptance(self):
        world, key = self._world_with_row([1.0, 0.0])
        rng = random.Random(0)
        assert all(reward(world, "u00", key, 0, rng) == 1.0
                   for _ in range(100))

    def test_certain_rejection(self):
        world, key = self._world_with_row([1.0, 0.0])
        rng = random.Random(0)
        assert all(reward(world, "u00", key, 1, rng) == 0.0
                   for _ in range(100))

    def test_half_probability_monte_carlo(self):
        world, key = self._world_with_row([0.5, 0.0])
        rng = random.Random(123)
        n = 10_000
        mean = sum(reward(world, "u00", key, 0, rng) for _ in range(n)) / n
        assert abs(mean - 0.5) <= 0.02

    def test_uncovered_situation_raises(self):
        from hyql.simenv import CoverageError
        world = small_world()
        stray = situations(world, "u00")[0]
        with pytest.raises(CoverageError):
            world.row("u99", stray)


class TestDrift:
    def test_no_op_scheduled_world_unchanged(self):
        world = small_world(seed=11)
        before = exact_rows(world)
        assert apply_drift(world, 100) == 0
        assert exact_rows(world) == before

    def test_swap_exchanges_best_and_worst(self):
        world = small_world(seed=12, n_users=1, n_items=3, drift=[swap(5)])
        key = situations(world, "u00")[0]
        world.relevance[("u00", key)] = array("d", [0.9, 0.1, 0.5])
        # force every other row to something inert
        for k in world.relevance:
            if k != ("u00", key):
                world.relevance[k] = array("d", [0.3, 0.3, 0.3])
        apply_drift(world, 5)
        assert exact(world.relevance[("u00", key)]) == exact([0.1, 0.9, 0.5])

    def test_op_applies_exactly_once(self):
        world = small_world(seed=12, n_users=1, n_items=3, drift=[swap(5)])
        assert apply_drift(world, 5) == 1
        snapshot = exact_rows(world)
        assert apply_drift(world, 6) == 0
        assert exact_rows(world) == snapshot

    def test_a_call_at_an_earlier_step_fires_nothing(self):
        world = small_world(seed=12, n_users=1, n_items=3, drift=[swap(5), swap(9)])
        assert apply_drift(world, 5) == 1
        snapshot = exact_rows(world)
        assert apply_drift(world, 3) == 0
        assert exact_rows(world) == snapshot
        assert apply_drift(world, 9) == 1
        assert exact_rows(world) != snapshot

    def test_two_ops_at_one_step_fire_in_one_call(self):
        world = small_world(seed=16, drift=[swap(5), swap(5)])
        before = exact_rows(world)
        assert apply_drift(world, 4) == 0
        assert apply_drift(world, 5) == 2
        # the second swap puts back every best and worst item the first swapped
        assert exact_rows(world) == before
        assert apply_drift(world, 5) == 0

    def test_a_drift_op_is_frozen(self):
        op = small_world(seed=16, drift=[swap(5)]).scenario.drift[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.step = 0

    def test_swap_moves_argmax_when_best_differs_from_worst(self):
        world = small_world(seed=13, drift=[swap(0)])
        before = {k: list(v) for k, v in world.relevance.items()}
        apply_drift(world, 0)
        for k, row_before in before.items():
            hi = row_before.index(max(row_before))
            lo = row_before.index(min(row_before))
            if hi != lo:
                assert world.relevance[k].index(max(world.relevance[k])) != hi \
                    or row_before[hi] == row_before[lo]

    def test_scoped_drift_touches_only_scope(self):
        key = situations(small_world(seed=15), "u00")[0]
        world = small_world(seed=15, drift=[
            {"step": 0, "op": "SwapTopItems", "target": "u00", "scope": key.canonical()}])
        assert world.scenario.drift == (DriftOp(0, "u00", key),)
        before = exact_rows(world)
        assert apply_drift(world, 0) == 1
        assert exact(world.relevance[("u00", key)]) != before[("u00", key)]
        for k, row in world.relevance.items():
            if k == ("u00", key):
                continue
            assert exact(row) == before[k]


CANONICAL_SCOPES = [habit.situation.canonical()
                    for habit in parse_scenario(scenario()).routines["g0"]]


@st.composite
def drifting_worlds(draw):
    """A world of 1-6 users on 2-12 items with 0-3 swaps, each on the group
    or on one user, over every situation or over one habit's."""
    n_users = draw(st.integers(1, 6))
    drift = []
    for _ in range(draw(st.integers(0, 3))):
        entry = {"step": draw(st.integers(0, 20)), "op": "SwapTopItems",
                 "target": draw(st.sampled_from(["g0"] + [f"u{i:02d}" for i in range(n_users)]))}
        scope = draw(st.none() | st.sampled_from(CANONICAL_SCOPES))
        if scope is not None:
            entry["scope"] = scope
        drift.append(entry)
    return small_world(seed=draw(st.integers(0, 2**32)), n_users=n_users,
                       n_items=draw(st.integers(2, 12)), drift=drift)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(world=drifting_worlds())
def test_no_drift_changes_an_optimum(world):
    """A swap permutes a row, so each user's optimum after any drift equals
    its optimum before, exactly: what lets a trial compute it once."""
    users = [u.user_id for u in world.scenario.users]
    optimum = {user: world.optimal_expected_reward(user) for user in users}
    rows = {key: sorted(row) for key, row in world.relevance.items()}
    for op in world.scenario.drift:
        apply_drift(world, op.step)
        assert {user: world.optimal_expected_reward(user) for user in users} == optimum
        assert {key: sorted(row) for key, row in world.relevance.items()} == rows
    assert world.drift_fired == len(world.scenario.drift)


class TestEnvStep:
    def test_deterministic_reward_chain(self):
        world = small_world(seed=20, n_users=1, n_items=2, affinity=1.0,
                            routine=[SINGLE_HABIT])
        key = situations(world, "u00")[0]
        world.relevance[("u00", key)] = [1.0, 0.0]
        env = env_of(world)
        env.reset()
        total = sum(env.step(0)[0] for _ in range(50))
        assert total == 50.0

    def test_fixed_seed_fixed_rewards(self):
        rewards = []
        for _ in range(2):
            env = env_of(small_world(seed=21, background_rate=0))
            env.reset()
            rewards.append([env.step(1)[0] for _ in range(100)])
        assert rewards[0] == rewards[1]

    def test_optimal_policy_matches_closed_form(self):
        world = small_world(seed=23, background_rate=0)
        env = env_of(world)
        event = env.reset()
        n = 20_000
        total = 0.0
        for _ in range(n):
            s = CONTEXT.aggregate(event, world.scenario.user("u00").social_group)
            row = world.row("u00", s)
            best = row.index(max(row))
            r, event = env.step(best)
            total += r
        expected = world.optimal_expected_reward("u00")
        assert abs(total / n - expected) <= 0.02

    def test_background_burst_fills_store(self):
        world = small_world(seed=24, n_users=3)
        env = env_of(world)
        store = env.cf_store
        env.background_burst(250)
        assert len(store) == 250
        for profile in world.scenario.users:
            user = profile.user_id
            accepted = [set().union(*(positive_items(store, user, key, level)
                                      for key in situations(world, user)))
                        for level in range(CONTEXT.depth + 1)]
            # every user but the focal u00 is background
            assert bool(accepted[0]) == (user in ("u01", "u02"))
            # situation-tagged: every accepted (user, item) is indexed at every level
            assert all(items == accepted[0] for items in accepted)

    def test_background_burst_reads_rows_a_swap_changed(self):
        background = ["u00", "u01", "u02", "u03"]  # every user but the focal u04
        world = small_world(seed=25, n_users=5, agent_user="u04", drift=[swap(0)])
        env = env_of(world)
        store = env.cf_store
        ref_world = small_world(seed=25, n_users=5, agent_user="u04", drift=[swap(0)])
        ref_store = TransactionStore(len(ref_world.scenario.items))
        ref_rng = random.Random()
        ref_rng.setstate(env.background_rng.getstate())

        env.background_burst(200)
        reference_burst(ref_world, ref_store, ref_rng, background, 200)
        rows_before = exact_rows(world)
        assert apply_drift(world, 0) == apply_drift(ref_world, 0) == 1
        assert all(exact(world.relevance[k]) != row for k, row in rows_before.items())
        env.background_burst(400)
        reference_burst(ref_world, ref_store, ref_rng, background, 400)

        assert env.background_rng.getstate() == ref_rng.getstate()
        for user in background:
            for key in situations(world, user):
                for level in range(CONTEXT.depth + 1):
                    assert positive_items(store, user, key, level) == \
                        positive_items(ref_store, user, key, level)


def views_of(store):
    """Every view of a store by its scope, with its ratings and counts."""
    return {scope: (view.ratings, view.counts) for scope, view in store._scoped.items()}


# Distinct leaf-place habits to draw routines from, weight left to the draw.
HABIT_POOL = [dict(part_of_day=part, day_class=day, calendar=state, place=place,
                   cognitive=kind)
              for place in LEAVES for part, day, state, kind in (
                  ("Morning", "Weekday", "Free", "Navigate"),
                  ("Afternoon", "Weekday", "InMeeting", "OpenFolder"),
                  ("Evening", "Weekend", "Free", "SendEmail"))]

# catalog sizes at and just past powers of two, where the inline draw redraws
EDGE_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]


@st.composite
def background_scenarios(draw):
    """A scenario config of 2-10 users (so 1-9 background users) in 1-2
    groups, on 1-40 items, each group's routine 1-5 pool habits weighted by
    integer shares, zero shares included, and 0-3 swaps at steps 0-3."""
    n_users = draw(st.integers(2, 10))
    n_groups = draw(st.integers(1, 2))
    routines = {}
    for g in range(n_groups):
        picks = draw(st.lists(st.integers(0, len(HABIT_POOL) - 1),
                              min_size=1, max_size=5, unique=True))
        shares = draw(st.lists(st.integers(0, 3), min_size=len(picks), max_size=len(picks))
                      .filter(any))
        routines[f"g{g}"] = [dict(HABIT_POOL[i], weight=share / sum(shares))
                             for i, share in zip(picks, shares)]
    users = [f"u{i:02d}" for i in range(n_users)]
    drift = [{"step": draw(st.integers(0, 3)), "op": "SwapTopItems",
              "target": draw(st.sampled_from(list(routines) + users))}
             for _ in range(draw(st.integers(0, 3)))]
    n_items = draw(st.sampled_from(EDGE_SIZES) | st.integers(1, 40))
    return scenario(n_users=n_users, n_items=n_items, groups=n_groups, routines=routines,
                    drift=drift, agent_user=draw(st.sampled_from(users)))


class TestBackgroundKernel:
    """`background_burst` against the plain loop it replaced: the same
    draws from `background_rng`, the same transactions, in the same order."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(config=background_scenarios(), seed=st.integers(0, 2**32),
           bursts=st.lists(st.integers(0, 300), min_size=1, max_size=4))
    def test_matches_the_reference_loop(self, config, seed, bursts):
        parsed = parse_scenario(config)
        world, ref_world = (world_from_scenario(parsed, seed) for _ in range(2))
        env = env_of(world)
        ref_store = TransactionStore(len(parsed.items))
        ref_rng = random.Random()
        ref_rng.setstate(env.background_rng.getstate())
        background = [u.user_id for u in parsed.users if u.user_id != parsed.agent_user]
        for step, n_events in enumerate(bursts):
            # drift fired between bursts: the kernel's held rows must follow it
            assert apply_drift(world, step) == apply_drift(ref_world, step)
            env.background_burst(n_events)
            reference_burst(ref_world, ref_store, ref_rng, background, n_events)
            assert env.background_rng.getstate() == ref_rng.getstate()
            assert len(env.cf_store) == len(ref_store)
            assert views_of(env.cf_store) == views_of(ref_store)
        assert exact_rows(world) == exact_rows(ref_world)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_inline_draw_is_randrange(self, seed):
        """The premise of the kernel's user and item draws: CPython's
        `randrange(n)` is `getrandbits(n.bit_length())`, drawn again while it
        is n or more, values and generator state alike."""
        for n in range(1, 301):
            inline, library = random.Random(seed * 1000 + n), random.Random(seed * 1000 + n)
            bits = n.bit_length()
            for _ in range(20):
                value = inline.getrandbits(bits)
                while value >= n:
                    value = inline.getrandbits(bits)
                assert value == library.randrange(n)
            assert inline.getstate() == library.getstate()

    @pytest.mark.parametrize("weights", [
        [0.1] * 10, [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0], [1.0, 0.0, 0.0],
        [0.25, 0.25, 0.0, 0.25, 0.25]])
    def test_bisecting_the_bounds_is_the_weight_loop(self, weights):
        """`bisect_right` over the bounds picks what a `u < acc` loop picks,
        with the last habit as its fallback, at every sum and beside it."""
        bounds = _habit_bounds([Habit(None, w) for w in weights])
        acc, sums = 0.0, []
        for w in weights:
            acc += w
            sums.append(acc)
        draws = {0.0, LARGEST_DRAW, 0.5} | {math.nextafter(x, d) for x in sums
                                            for d in (0.0, 2.0)} | set(sums)
        for u in sorted(d for d in draws if 0.0 <= d < 1.0):
            loop = next((i for i, total in enumerate(sums) if u < total), len(weights) - 1)
            assert bisect_right(bounds, u) == loop, u

    def test_a_draw_past_every_sum_falls_back_to_the_last_habit(self):
        """Ten weights of 0.1 sum to the largest `random()` draw, not to 1, so
        that draw passes every running sum: both the event stream and the
        background stream then take the last habit."""
        routine = [dict(HABIT_POOL[i], weight=0.1) for i in range(10)]
        assert sum(h["weight"] for h in routine) == LARGEST_DRAW
        world = small_world(n_users=2, routine=routine)
        last = world.scenario.user("u01").routine[-1].situation

        class Stub(Draws):
            """Hands out its draws to random(), and the lowest value to the rest."""

            def getrandbits(self, k):
                return 0

            def randrange(self, n):
                return 0

            def uniform(self, low, high):
                return low

        event = gen_event(world, "u00", 0, Stub([LARGEST_DRAW]))
        assert CONTEXT.aggregate(event, "g0") is last
        env = env_of(world)
        env.background_rng = Stub([LARGEST_DRAW, 0.0])  # the habit, then accept
        env.background_burst(1)
        assert env.background_rng.n == 2
        assert positive_items(env.cf_store, "u01", last) == {0: 1.0}


@st.composite
def action_pairs(draw):
    """A world's config and seed, and two action sequences of one length."""
    config = draw(background_scenarios())
    steps = draw(st.integers(1, 40))
    actions = st.lists(st.integers(0, config["items"] - 1), min_size=steps, max_size=steps)
    return config, draw(st.integers(0, 2**32)), draw(actions), draw(actions)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=action_pairs(), rate=st.integers(0, 3))
def test_nothing_the_world_draws_reads_the_action(case, rate):
    """The world is a contextual bandit: two SimEnvs of one world stepped
    with different actions see the same events, the same drift, the same
    background writes and the same reward draws; only whether a reward
    draw accepts reads the action."""
    config, seed, actions, others = case
    parsed = parse_scenario(dict(config, background_rate=rate, warm_start_events=rate * 10))
    envs = [env_of(world_from_scenario(parsed, seed)) for _ in range(2)]
    for env in envs:
        env.background_burst(parsed.warm_start_events)
        env.reset()
    for a, b in zip(actions, others):
        draws = [env.reward_rng.getstate() for env in envs]
        (r_a, event_a), (r_b, event_b) = envs[0].step(a), envs[1].step(b)
        assert draws[0] == draws[1]
        assert event_a == event_b
        u = random.Random()
        u.setstate(draws[0])
        u = u.random()
        for env, r, action in ((envs[0], r_a, a), (envs[1], r_b, b)):
            prev = env.event_log[-2][1]
            s = CONTEXT.aggregate(prev, env.group)
            assert r == (1.0 if u < env.world.row(env.focal, s)[action] else 0.0)
        assert envs[0].world.drift_fired == envs[1].world.drift_fired
        assert envs[0].background_rng.getstate() == envs[1].background_rng.getstate()
    assert envs[0].event_log == envs[1].event_log
    assert [event for _, event in envs[0].event_log] == \
        focal_events(world_from_scenario(parsed, seed), len(actions) + 1)
    assert exact_rows(envs[0].world) == exact_rows(envs[1].world)
    assert len(envs[0].cf_store) == len(envs[1].cf_store)
    assert views_of(envs[0].cf_store) == views_of(envs[1].cf_store)


def reference_burst(world, store, rng, background_users, n_events):
    """Reference background write loop: every key, row and index looked up per event."""
    for _ in range(n_events):
        user_id = background_users[rng.randrange(len(background_users))]
        profile = world.scenario.user(user_id)
        u = rng.random()
        acc = 0.0
        habit = profile.routine[-1]
        for candidate in profile.routine:
            acc += candidate.weight
            if u < acc:
                habit = candidate
                break
        key = habit.situation
        item = rng.randrange(len(world.scenario.items))
        probability = world.row(user_id, key)[item]
        store.record_implicit(user_id, item, rng.random() < probability, key)


class TestGroupCoherence:
    def test_row_distance_non_increasing_in_affinity(self):
        def mean_abs_diff(affinity):
            world = small_world(seed=30, n_users=2, affinity=affinity)
            total = count = 0.0
            for key in situations(world, "u00"):
                a = world.row("u00", key)
                b = world.row("u01", key)
                total += sum(abs(x - y) for x, y in zip(a, b))
                count += len(a)
            return total / count

        d0, d5, d1 = mean_abs_diff(0.0), mean_abs_diff(0.5), mean_abs_diff(1.0)
        assert d0 >= d5 >= d1
        assert d1 == 0.0


class TestScenario:
    def test_habits_are_interned_situations_of_the_parsing_context(self, canonical_scenario):
        parsed = parse_scenario(canonical_scenario)
        for habit in parsed.routines["g0"]:
            s = habit.situation
            assert situation(s.time, s.place, "g0", s.cognitive, 0) is s
        world = world_from_scenario(parsed, 7)
        assert world.scenario is parsed
        assert situations(world, "u10") == [h.situation for h in parsed.routines["g0"]]

    def test_drift_scope_resolves_to_the_habit_situation(self, canonical_scenario):
        parsed = parse_scenario(canonical_scenario)
        assert parsed.drift[0].scope is None  # "all"
        key = parsed.routines["g0"][2].situation
        drift = [{"step": 5, "op": "SwapTopItems", "target": "g0", "scope": key.canonical()}]
        scoped = parse_scenario(dict(canonical_scenario, drift=drift))
        assert scoped.drift[0].scope is key

    def test_a_repeated_situation_is_rejected_by_name(self, canonical_scenario):
        routines = copy.deepcopy(canonical_scenario["routines"])
        first = routines["g0"][0]
        first["weight"] /= 2
        routines["g0"].insert(0, dict(first))
        key = parse_scenario(canonical_scenario).routines["g0"][0].situation
        with pytest.raises(ValueError, match=re.escape(
                f"routine of g0 repeats the situation {key.canonical()}")):
            parse_scenario(dict(canonical_scenario, routines=routines))

    def test_world_from_scenario_canonical(self, canonical_scenario):
        world = world_from_scenario(parse_scenario(canonical_scenario), 7)
        assert len(world.scenario.users) == 11
        assert world.scenario.items == tuple(f"doc{i:02d}" for i in range(20))
        assert len(situations(world, "u10")) == 6
        assert world.scenario.drift[0].step == 1000

    def test_check_scenario_takes_a_scope_from_the_targets_routine(
            self, canonical_scenario):
        parsed = parse_scenario(canonical_scenario)
        key = situations(world_from_scenario(parsed, 7), "u03")[2]
        for target in ("u03", "g0"):
            drift = [{"step": 5, "op": "SwapTopItems", "target": target,
                      "scope": key.canonical()}]
            parse_scenario(dict(canonical_scenario, drift=drift))

    def test_scenario_determinism(self, canonical_scenario):
        parsed = parse_scenario(canonical_scenario)
        assert world_from_scenario(parsed, 3).relevance == \
            world_from_scenario(parsed, 3).relevance

    def test_worlds_of_one_scenario_drift_independently(self, canonical_scenario):
        parsed = parse_scenario(canonical_scenario)
        first, second = world_from_scenario(parsed, 3), world_from_scenario(parsed, 3)
        assert first.scenario is second.scenario is parsed
        before = exact_rows(second)
        assert apply_drift(first, 1000) == 1
        assert exact_rows(first) != before
        assert exact_rows(second) == before
        assert apply_drift(second, 1000) == 1
        assert exact_rows(second) == exact_rows(first)
        assert apply_drift(first, 2000) == apply_drift(second, 2000) == 0
