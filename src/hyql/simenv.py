"""Synthetic ubiquitous environment: users, routines, relevance, drift.

Ground truth is a per-(user, level-0 situation) vector of acceptance
probabilities over the item catalog, in catalog order. Each social group
has a prototype vector per situation; a user's vector mixes the prototype
with personal noise through the group affinity, so colleagues want roughly
the same things. Both are packed `array('d')` rows, which hold the same
doubles a list of floats would, bit for bit, at a quarter of the memory.
Rewards are Bernoulli acceptances. A scheduled drift op swaps the best and
the worst item of each row it touches, in place, mid-run, which is what
the recommender has to track. A swap permutes a row, so no drift changes a
user's optimal expected reward. An action is an item's catalog index;
this module is also the only one that builds the items' id strings
(doc00..), which appear only in the lines a run writes.

A scenario config (a JSON object) defines the world, and this module is
the only one that knows its format. `parse_scenario` checks a config once
and turns each routine habit into its situation: the interned level-0 key
it realizes, plus its weight. A habit's place must be a leaf of the
built-in gazetteer, the only kind whose region reverse-geocodes back to
it, and a world may hold at most MAX_RELEVANCE_ROWS relevance rows and
MAX_RELEVANCE_VALUES relevance values.
The `Scenario` holds every fact its worlds share, and `world_from_scenario`
only draws a seed's relevance rows. So a bad scenario fails before a run
writes anything, and no world build re-checks. `SimEnv` steps the
scenario's `agent_user`; every other user is background.

Everything is driven by named random streams derived from one seed, and
events never depend on the agent's actions, so all agent variants sharing
a seed consume the identical event stream (paired-seed contract). The
per-step acceptance draw is taken once per step whatever the action, so
paired variants also share their luck.

The background stream: every user but the focal one writes transactions
into the CF store, `warm_start_events` of them before step 0 and
`background_rate` after each step, which keeps collaborative advice fresh
after a drift. Each transaction takes four draws from `background_rng`, in
this order: the user, uniform over the background users; one of its
habits, by weight; the item, uniform over the catalog; and the acceptance,
a `random()` draw below the user's probability for that item in that
habit's situation. The stream reads neither the agent's action nor any
other stream, so it writes the same transactions whatever the agent does.
`SimEnv.background_burst` draws them in one loop:
- A user or an item is CPython's own `randrange(n)`, spelt inline:
  `getrandbits(n.bit_length())`, drawn again while it is n or more. That is
  the algorithm `Random.randrange` runs for one positive argument, and a
  test pins the two against each other, state included.
- A habit is the first whose running weight sum exceeds a `random()` draw,
  or the last habit when none does (the sums may end just short of 1).
  The sums are added once, in routine order, as a `u < acc` loop adds
  them, and never decrease, since no weight is negative; so `bisect_right`
  over the sums of every habit but the last (`UserProfile.bounds`) returns
  exactly the loop's index, the last habit included. `gen_event` draws its
  habit the same way.
- A `SimEnv` looks up each background user's relevance rows once. Drift
  swaps values inside those same arrays, so a held row is always current.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .context import (CONTEXT, COGNITIVE_KINDS, CalendarEntry, CognitiveAction,
                      HOUR_RANGES, RawEvent, SECONDS_PER_DAY, SECONDS_PER_HOUR,
                      SituationKey, situation, time_bucket)

# the keys of a scenario config (and those it may omit), of a habit, of a drift entry
SCENARIO_KEYS = frozenset({"name", "users", "groups", "items", "affinity", "routines",
                           "day_length", "drift", "agent_user", "warm_start_events",
                           "background_rate"})
_OPTIONAL_KEYS = {"name", "day_length", "drift", "warm_start_events", "background_rate"}
_HABIT_KEYS = frozenset({"part_of_day", "day_class", "calendar", "place", "cognitive",
                         "weight"})
_DRIFT_KEYS = frozenset({"step", "op", "target", "scope"})

# stream offsets below the per-world seed base
_STREAM_BUILD = 0
_STREAM_EVENTS = 1
_STREAM_REWARDS = 2
_STREAM_BACKGROUND = 3
SEED_SPREAD = 1_000_003  # between the seed bases of consecutive seeds

# The largest world a scenario may ask for: 80 MB of packed relevance doubles,
# and about 75 MB of per-row overhead at some 376 B a row.
MAX_ITEMS = 10_000
MAX_RELEVANCE_ROWS = 200_000  # users x the longest routine
MAX_RELEVANCE_VALUES = 10_000_000  # users x items x the longest routine


class CoverageError(Exception):
    """A (user, situation) pair the world has no relevance row for."""


@dataclass(frozen=True, slots=True)
class Habit:
    """One weighted routine habit: the level-0 situation it realizes."""

    situation: SituationKey
    weight: float


@dataclass(frozen=True)
class UserProfile:
    """A user, its group and the group's routine. `bounds` holds the running
    weight sums of every habit but the last: `bisect_right(bounds, u)` is the
    index of the habit a `random()` draw u picks (see the module docstring)."""

    user_id: str
    social_group: str
    routine: tuple[Habit, ...]
    bounds: tuple[float, ...]


@dataclass(frozen=True)
class DriftOp:
    """A scheduled swap of the best and the worst item in each scoped row of
    its target ("SwapTopItems"); frozen, so a scenario's worlds share its ops."""

    step: int
    target: str  # user id or group id
    scope: Optional[SituationKey] = None  # None for every situation of the target


@dataclass
class WorldModel:
    """One seed's drawn world: every relevance row of its scenario's users,
    which `apply_drift` rewrites in place as the scenario's drift comes due.
    Everything else a trial reads of the world, the users, the catalog, the
    drift and the day length, it reads from `scenario`."""

    scenario: Scenario
    # (user_id, level-0 key) -> per-item acceptance probability, packed
    relevance: dict[tuple[str, SituationKey], array]
    seed: int
    drift_fired: int = 0  # apply_drift has fired this many ops, the drift's first

    def row(self, user_id: str, s: SituationKey) -> array:
        try:
            return self.relevance[(user_id, s)]
        except KeyError:
            raise CoverageError(f"no relevance row for ({user_id}, {s.canonical()})") from None

    def optimal_expected_reward(self, user_id: str) -> float:
        """Routine-weighted best-item acceptance probability (closed form)."""
        total = 0.0
        for habit in self.scenario.user(user_id).routine:
            total += habit.weight * max(self.row(user_id, habit.situation))
        return total


def _draw_row(rng: random.Random, n_items: int) -> array:
    """A prototype row: one `random()` draw per item, packed as doubles."""
    draw = rng.random
    return array("d", [draw() for _ in range(n_items)])


def _mix_row(proto: Sequence[float], rng: random.Random, affinity: float) -> array:
    """A user's row: each prototype value mixed with one fresh personal draw,
    packed as doubles (8 bytes a value, against about 32 for a list of floats).

    No clamp is needed: the affinity is in [0, 1] (`parse_scenario` checks it)
    and every prototype value and draw is a `random()` draw in [0, 1), so
    both terms are non-negative (never -0.0) and, rounded to nearest, their
    sum is at most fl(affinity + fl(1 - affinity)) <= 1.0.
    """
    draw = rng.random
    personal = 1.0 - affinity
    return array("d", [affinity * p + personal * draw() for p in proto])


# ---------------------------------------------------------------------------
# Scenario: parse and check once, then draw any number of worlds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A checked scenario config, built by `parse_scenario`: users u00..
    join groups g0.. round-robin, and each group shares one routine. Every
    world drawn from it shares its users, its catalog (the item ids doc00..,
    index i naming item i) and its drift."""

    routines: dict[str, tuple[Habit, ...]]  # every group, in order
    users: tuple[UserProfile, ...]
    items: tuple[str, ...]
    affinity: float  # each user's weight on its group's prototype, in [0, 1]
    drift: tuple[DriftOp, ...]  # by step
    day_length: int
    agent_user: str
    warm_start_events: int
    background_rate: int
    _by_id: dict[str, UserProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {u.user_id: u for u in self.users})

    def user(self, user_id: str) -> UserProfile:
        return self._by_id[user_id]


def check_keys(entry, required: frozenset, allowed: frozenset, what: str) -> None:
    """A JSON object with every `required` key and no key outside `allowed`."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = sorted(required - set(entry))
    if missing:
        raise ValueError(f"{what} is missing {', '.join(missing)}")


def json_int(entry: dict, key: str, minimum: Optional[int],
             default: Optional[int] = None) -> int:
    """A JSON integer, at least `minimum` unless that is None: a float, a
    string or a boolean is a mistake."""
    value = entry.get(key, default)
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{what} must be a number, got an integer too large "
                         f"for a float") from None


def json_list(value, what: str) -> list:
    """A JSON array: an object or a string, even an empty one, is a mistake."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def _routine(entries, group: str) -> tuple[Habit, ...]:
    """A group's habits, whose weights must sum to 1 whether or not a user joins.

    Each habit is a distinct situation: a repeated one would be listed twice
    in a user's routine, so a scoped drift would act on its row twice.
    """
    routine = tuple(_habit(entry, group)
                    for entry in json_list(entries, f"routine of {group}"))
    seen = set()
    for habit in routine:
        if habit.situation in seen:
            raise ValueError(f"routine of {group} repeats the situation "
                             f"{habit.situation.canonical()}")
        seen.add(habit.situation)
    total = sum(habit.weight for habit in routine)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"routine of {group} has weights summing to {total}, expected 1")
    return routine


def _habit_bounds(routine: Sequence[Habit]) -> tuple[float, ...]:
    """The running sums `acc += weight` of every habit's weight but the last,
    as a loop over the routine adds them up."""
    acc = 0.0
    bounds = []
    for habit in routine[:-1]:
        acc += habit.weight
        bounds.append(acc)
    return tuple(bounds)


def _habit(entry, group: str) -> Habit:
    """A habit the simulator can realize: `gen_event` draws a point inside its
    place's region, which reverse-geocodes back to that place only for a leaf."""
    check_keys(entry, _HABIT_KEYS, _HABIT_KEYS, "routine habit")
    place = entry["place"]
    CONTEXT.place_chain(place)  # raises on an unknown place
    if any(node.parent == place for node in CONTEXT.nodes.values()):
        raise ValueError(f"routine place {place!r} is not a leaf place of the gazetteer")
    if entry["cognitive"] not in COGNITIVE_KINDS:
        raise ValueError(f"unknown cognitive kind {entry['cognitive']!r}")
    weight = _number(entry["weight"], "routine weight")
    if not weight >= 0.0:
        raise ValueError(f"routine weight must be >= 0, got {weight}")
    bucket = time_bucket(entry["part_of_day"], entry["day_class"], entry["calendar"])
    return Habit(situation(bucket, place, group, entry["cognitive"], 0), weight)


def _drift_op(entry, users: Sequence[UserProfile]) -> DriftOp:
    check_keys(entry, _DRIFT_KEYS - {"scope"}, _DRIFT_KEYS, "drift entry")
    if entry["op"] != "SwapTopItems":
        raise ValueError(f"unknown drift op {entry['op']!r}")
    step, target = json_int(entry, "step", 0), entry["target"]
    # a drift op that would touch no row is a mistake, not a no-op
    members = [u for u in users if target in (u.user_id, u.social_group)]
    if not members:
        raise ValueError(f"drift target {target!r} names no user or group")
    scope = entry.get("scope", "all")
    scopes = {h.situation.canonical(): h.situation for h in members[0].routine}
    if scope != "all" and scope not in scopes:
        raise ValueError(f"drift scope {scope!r} is neither 'all' nor a "
                         f"situation of {target!r}'s routine")
    return DriftOp(step, target, None if scope == "all" else scopes[scope])


def parse_scenario(raw: dict) -> Scenario:
    """Check a scenario config without a random draw and return it parsed;
    ValueError for a bad one."""
    check_keys(raw, SCENARIO_KEYS - _OPTIONAL_KEYS, SCENARIO_KEYS, "scenario")
    if not isinstance(raw.get("name", ""), str):
        raise ValueError(f"name must be a string, got {raw['name']!r}")
    n_groups = json_int(raw, "groups", 1)
    groups = [f"g{i}" for i in range(n_groups)]
    # one routine per group, none for a group the scenario lacks
    check_keys(raw["routines"], frozenset(groups), frozenset(groups), "routines")
    routines = {group: _routine(raw["routines"][group], group) for group in groups}
    affinity = _number(raw["affinity"], "affinity")
    if not 0.0 <= affinity <= 1.0:
        raise ValueError(f"affinity must be in [0, 1], got {affinity}")
    n_users, n_items = json_int(raw, "users", 1), json_int(raw, "items", 1)
    if n_items > MAX_ITEMS:
        raise ValueError(f"items must be at most {MAX_ITEMS}, got {n_items}")
    longest = max(len(routine) for routine in routines.values())
    if n_users * longest > MAX_RELEVANCE_ROWS:
        raise ValueError(f"users x the longest routine must be at most "
                         f"{MAX_RELEVANCE_ROWS}, got {n_users} x {longest}")
    if n_users * n_items * longest > MAX_RELEVANCE_VALUES:
        raise ValueError(f"users x items x the longest routine must be at most "
                         f"{MAX_RELEVANCE_VALUES}, got {n_users} x {n_items} x {longest}")
    bounds = {group: _habit_bounds(routine) for group, routine in routines.items()}
    member_of = [groups[i % n_groups] for i in range(n_users)]
    users = tuple(UserProfile(f"u{i:02d}", group, routines[group], bounds[group])
                  for i, group in enumerate(member_of))
    if raw["agent_user"] not in [u.user_id for u in users]:
        raise ValueError(f"agent_user {raw['agent_user']!r} is not one of the "
                         f"scenario's {len(users)} users")
    drift = [_drift_op(entry, users) for entry in json_list(raw.get("drift", []), "drift")]
    items = tuple(f"doc{i:02d}" for i in range(n_items))
    return Scenario(routines, users, items, affinity,
                    tuple(sorted(drift, key=lambda op: op.step)),
                    json_int(raw, "day_length", 1, 50), raw["agent_user"],
                    json_int(raw, "warm_start_events", 0, 0),
                    json_int(raw, "background_rate", 0, 0))


def world_from_scenario(scenario: Scenario, seed: int) -> WorldModel:
    """Draw a world: group prototypes, then each user's relevance rows."""
    rng = random.Random(seed * SEED_SPREAD + _STREAM_BUILD)
    n_items = len(scenario.items)
    prototypes: dict[SituationKey, array] = {}
    for routine in scenario.routines.values():
        for habit in routine:
            prototypes[habit.situation] = _draw_row(rng, n_items)

    relevance: dict[tuple[str, SituationKey], array] = {}
    for profile in scenario.users:
        for habit in profile.routine:
            relevance[(profile.user_id, habit.situation)] = _mix_row(
                prototypes[habit.situation], rng, scenario.affinity)
    return WorldModel(scenario, relevance, seed)


# ---------------------------------------------------------------------------
# Event synthesis
# ---------------------------------------------------------------------------

def gen_event(world: WorldModel, user_id: str, step: int, rng: random.Random) -> RawEvent:
    """Synthesize a raw event realizing one weighted routine habit, whose
    situation it aggregates back to.

    The clock hour moves through the bucket's span as the day advances;
    the day-of-week is chosen to satisfy the habit's weekday/weekend
    class. Coordinates are uniform inside the place's bounding region.
    """
    scenario = world.scenario
    profile = scenario.user(user_id)
    s = profile.routine[bisect_right(profile.bounds, rng.random())].situation
    time = s.time

    day_number = step // scenario.day_length
    pos_in_day = (step % scenario.day_length) / scenario.day_length
    start, stop = HOUR_RANGES[time.part_of_day]
    hour = int(start + pos_in_day * (stop - start)) % 24
    if time.day_class == "Weekday":
        day_of_week = day_number % 5
    else:
        day_of_week = 5 + day_number % 2
    absolute_day = day_number * 7 + day_of_week
    minute = rng.randrange(60)
    timestamp = absolute_day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR + minute * 60

    node = CONTEXT.nodes[s.place]
    lat = rng.uniform(node.lat_min, node.lat_max)
    lon = rng.uniform(node.lon_min, node.lon_max)

    if s.cognitive == "Navigate":
        item = scenario.items[rng.randrange(len(scenario.items))]
        cognitive = CognitiveAction("Navigate", item)
    else:
        cognitive = CognitiveAction(s.cognitive)

    calendar = None
    if time.calendar_state == "InMeeting":
        top_of_hour = timestamp - (timestamp % SECONDS_PER_HOUR)
        calendar = CalendarEntry("meeting", top_of_hour, top_of_hour + SECONDS_PER_HOUR)

    return RawEvent(timestamp, (lat, lon), cognitive, calendar)


def focal_events(world: WorldModel, count: int) -> list[RawEvent]:
    """The focal user's events at steps 0 to count - 1: those a `SimEnv` of
    the world observes, whatever its agent does, since they read only the
    event stream."""
    rng = _event_rng(world)
    focal = world.scenario.agent_user
    return [gen_event(world, focal, step, rng) for step in range(count)]


def _event_rng(world: WorldModel) -> random.Random:
    """The focal user's event stream of the world, at its start."""
    return random.Random(world.seed * SEED_SPREAD + _STREAM_EVENTS)


def reward(world: WorldModel, user_id: str, s: SituationKey, a: int,
           rng: random.Random) -> float:
    """Bernoulli acceptance of the item at catalog index `a`, with its
    ground-truth probability."""
    probability = world.row(user_id, s)[a]
    return 1.0 if rng.random() < probability else 0.0


# ---------------------------------------------------------------------------
# Drift
# ---------------------------------------------------------------------------

def _scoped_rows(world: WorldModel, op: DriftOp) -> list[tuple[UserProfile, SituationKey]]:
    """The (user, situation) rows an op touches, by user, then by habit."""
    return [(u, habit.situation) for u in world.scenario.users
            if op.target in (u.user_id, u.social_group)
            for habit in u.routine if op.scope in (None, habit.situation)]


def apply_drift(world: WorldModel, step: int) -> int:
    """Fire the world's unfired drift ops scheduled at or before `step`, in
    step order, each swapping its rows' best and worst item in place, and
    return how many fired; the scenario's drift is step-sorted, so the ops
    due now follow its first `world.drift_fired`."""
    schedule = world.scenario.drift
    start = end = world.drift_fired
    while end < len(schedule) and schedule[end].step <= step:
        end += 1
    world.drift_fired = end
    for op in schedule[start:end]:
        for profile, key in _scoped_rows(world, op):
            row = world.relevance[(profile.user_id, key)]
            hi = row.index(max(row))
            lo = row.index(min(row))
            row[hi], row[lo] = row[lo], row[hi]
    return end - start


# ---------------------------------------------------------------------------
# The step loop wrapper
# ---------------------------------------------------------------------------

class SimEnv:
    """Steps the scenario's focal user (`agent_user`) through its world, and
    owns the per-run random streams and the focal user's current situation.

    Between steps it writes "background" transactions into the CF store:
    ambient activity of every other user at the scenario's background rate
    (they keep using the system too), which is what keeps collaborative
    advice fresh after a drift. A one-user scenario has no background.
    """

    def __init__(self, world: WorldModel, cf_store):
        scenario = world.scenario
        base = world.seed * SEED_SPREAD
        self.world = world
        self.scenario = scenario
        self.event_rng = _event_rng(world)
        self.reward_rng = random.Random(base + _STREAM_REWARDS)
        self.background_rng = random.Random(base + _STREAM_BACKGROUND)
        self.cf_store = cf_store
        self.focal = scenario.agent_user
        self.group = scenario.user(self.focal).social_group
        self.global_step = 0
        self.event_log: list[tuple[int, RawEvent]] = []
        self._situation: Optional[SituationKey] = None  # the focal user's current one
        # per background user: its id, its habit bounds and, per habit, its
        # relevance row (drift swaps values inside it) and its situation
        relevance = world.relevance
        self._background = [
            (u.user_id, u.bounds,
             tuple((relevance[(u.user_id, h.situation)], h.situation) for h in u.routine))
            for u in scenario.users if u.user_id != self.focal]

    def reset(self) -> RawEvent:
        self.global_step = 0
        self.event_log = []
        return self._observe()

    def _observe(self) -> RawEvent:
        """The focal user's event at the current step, situated and logged."""
        event = gen_event(self.world, self.focal, self.global_step, self.event_rng)
        self._situation = CONTEXT.aggregate(event, self.group)
        self.event_log.append((self.global_step, event))
        return event

    def background_burst(self, n_events: int) -> None:
        """Simulate n ambient interactions of the background users: per event
        a user, a habit, an item and an acceptance, drawn in that order as
        the module docstring states, and one `record_implicit` call."""
        background = self._background
        if not background:
            return
        rng = self.background_rng
        getrandbits, draw = rng.getrandbits, rng.random
        n_users, n_items = len(background), len(self.scenario.items)
        user_bits, item_bits = n_users.bit_length(), n_items.bit_length()
        record = self.cf_store.record_implicit
        for _ in range(n_events):
            u = getrandbits(user_bits)  # rng.randrange(n_users), inline
            while u >= n_users:
                u = getrandbits(user_bits)
            user_id, bounds, habits = background[u]
            row, s = habits[bisect_right(bounds, draw())]
            i = getrandbits(item_bits)  # rng.randrange(n_items), inline
            while i >= n_items:
                i = getrandbits(item_bits)
            record(user_id, i, draw() < row[i], s)

    def step(self, action: int) -> tuple[float, RawEvent]:
        """Advance one step: drift, reward, ambient activity, next event."""
        apply_drift(self.world, self.global_step)
        r = reward(self.world, self.focal, self._situation, action, self.reward_rng)
        self.background_burst(self.scenario.background_rate)
        self.global_step += 1
        return r, self._observe()
