"""Synthetic ubiquitous environment: users, routines, relevance, drift.

Ground truth is a per-(user, level-0 situation) vector of acceptance
probabilities over the item catalog. Each social group has a prototype
vector per situation; a user's vector mixes the prototype with personal
noise through the group affinity, so colleagues want roughly the same
things. Rewards are Bernoulli acceptances. Scheduled drift operations
rewrite the probability rows mid-run, which is what the recommender has
to track.

Everything is driven by named random streams derived from one seed, and
events never depend on the agent's actions, so all agent variants sharing
a seed consume the identical event stream (paired-seed contract). The
per-step acceptance draw is taken once per step whatever the action, so
paired variants also share their luck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .context import (CalendarEntry, CognitiveAction, ContextModel, HOUR_RANGES,
                      RawEvent, SECONDS_PER_DAY, SECONDS_PER_HOUR, SituationKey,
                      TimeBucket)
from .qlearn import ActionCatalog, ActionId, CatalogError

DRIFT_OPS = ("SwapTopItems", "ResampleRow")

# stream offsets below the per-world seed base
_STREAM_BUILD = 0
_STREAM_EVENTS = 1
_STREAM_REWARDS = 2
_STREAM_BACKGROUND = 3
_STREAM_DRIFT = 4
_SEED_SPREAD = 1_000_003


class CoverageError(Exception):
    """A (user, situation) pair the world has no relevance row for."""


@dataclass(frozen=True)
class RoutineTriple:
    """One weighted (time bucket, place, cognitive class) habit."""

    part_of_day: str
    day_class: str
    calendar_state: str
    place: str
    cognitive: str
    weight: float

    def bucket(self) -> TimeBucket:
        return TimeBucket(self.part_of_day, self.day_class, self.calendar_state)


@dataclass
class UserProfile:
    user_id: str
    social_group: str
    group_affinity: float
    routine: tuple[RoutineTriple, ...]

    def __post_init__(self):
        if not 0.0 <= self.group_affinity <= 1.0:
            raise ValueError("group_affinity must be in [0, 1]")
        total = sum(t.weight for t in self.routine)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"routine weights sum to {total}, expected 1")


@dataclass
class DriftOp:
    step: int
    op: str
    target: str  # user id or group id
    scope: str = "all"  # "all" or a canonical level-0 situation key
    applied: bool = False

    def __post_init__(self):
        if self.op not in DRIFT_OPS:
            raise ValueError(f"unknown drift op {self.op!r}")


def situation_for(triple: RoutineTriple, group: str) -> SituationKey:
    """The level-0 key this routine habit lands on."""
    return SituationKey(triple.bucket(), triple.place, group, triple.cognitive, 0)


@dataclass
class WorldModel:
    users: list[UserProfile]
    catalog: ActionCatalog
    # (user_id, level-0 key) -> per-item acceptance probability
    relevance: dict[tuple[str, SituationKey], list[float]]
    prototypes: dict[tuple[str, SituationKey], list[float]]
    drift_schedule: list[DriftOp]
    day_length: int
    seed: int
    context: ContextModel
    drift_rng: random.Random = field(repr=False, default_factory=random.Random)
    _by_id: dict[str, UserProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {profile.user_id: profile for profile in self.users}

    def user(self, user_id: str) -> UserProfile:
        return self._by_id[user_id]

    def situations(self, user_id: str) -> list[SituationKey]:
        profile = self.user(user_id)
        return [situation_for(t, profile.social_group) for t in profile.routine]

    def row(self, user_id: str, s: SituationKey) -> list[float]:
        try:
            return self.relevance[(user_id, s)]
        except KeyError:
            raise CoverageError(f"no relevance row for ({user_id}, {s.canonical()})") from None

    def optimal_expected_reward(self, user_id: str) -> float:
        """Routine-weighted best-item acceptance probability (closed form)."""
        profile = self.user(user_id)
        total = 0.0
        for triple in profile.routine:
            row = self.row(user_id, situation_for(triple, profile.social_group))
            total += triple.weight * max(row)
        return total


def _mix(prototype: float, personal: float, affinity: float) -> float:
    value = affinity * prototype + (1.0 - affinity) * personal
    return min(1.0, max(0.0, value))


def user_ids(n_users: int) -> list[str]:
    """The ids of a population of n users: u00, u01, ..."""
    return [f"u{i:02d}" for i in range(n_users)]


def _population(n_users: int, n_groups: int, n_items: int, affinity: float,
                routines: Optional[dict[str, Sequence[RoutineTriple]]],
                context: ContextModel) -> tuple[list[str], dict, list[UserProfile]]:
    """Groups, routines and profiles, after every check needing no random draw."""
    if n_users < 1 or n_items < 1 or n_groups < 1:
        raise ValueError("population needs at least one user, group and item")
    if not 0.0 <= affinity <= 1.0:
        raise ValueError("affinity must be in [0, 1]")
    groups = [f"g{i}" for i in range(n_groups)]
    routines = routines or {g: default_routine() for g in groups}
    for group in groups:
        if group not in routines:
            raise ValueError(f"no routine configured for group {group!r}")
        for triple in routines[group]:
            context.place_chain(triple.place)  # raises on unknown places
            triple.bucket()  # raises on an unknown time bucket
    users = [UserProfile(user_id, groups[i % n_groups], affinity,
                         tuple(routines[groups[i % n_groups]]))
             for i, user_id in enumerate(user_ids(n_users))]
    return groups, routines, users


def build_population(n_users: int, n_groups: int, n_items: int, affinity: float,
                     rng: random.Random, routines: Optional[dict[str, Sequence[RoutineTriple]]] = None,
                     day_length: int = 50,
                     drift: Sequence[DriftOp] = (),
                     context: Optional[ContextModel] = None,
                     seed: int = 0) -> WorldModel:
    """Draw group prototypes and per-user relevance rows.

    Users u00.. are assigned to groups g0.. round-robin. Each group shares
    a routine (the default one covers six situations across the canonical
    gazetteer places).
    """
    context = context or ContextModel.default()
    groups, routines, users = _population(n_users, n_groups, n_items, affinity,
                                          routines, context)
    catalog = ActionCatalog([f"doc{i:02d}" for i in range(n_items)])

    prototypes: dict[tuple[str, SituationKey], list[float]] = {}
    for group in groups:
        for triple in routines[group]:
            key = situation_for(triple, group)
            prototypes[(group, key)] = [rng.random() for _ in range(n_items)]

    relevance: dict[tuple[str, SituationKey], list[float]] = {}
    for profile in users:
        for triple in profile.routine:
            key = situation_for(triple, profile.social_group)
            proto = prototypes[(profile.social_group, key)]
            relevance[(profile.user_id, key)] = [
                _mix(proto[i], rng.random(), affinity) for i in range(n_items)]

    return WorldModel(users=users, catalog=catalog, relevance=relevance,
                      prototypes=prototypes,
                      drift_schedule=sorted((DriftOp(d.step, d.op, d.target, d.scope)
                                             for d in drift), key=lambda d: d.step),
                      day_length=day_length, seed=seed, context=context,
                      drift_rng=random.Random(seed * _SEED_SPREAD + _STREAM_DRIFT))


def default_routine() -> tuple[RoutineTriple, ...]:
    """Six weighted office-worker habits over the built-in gazetteer."""
    return (
        RoutineTriple("Morning", "Weekday", "Free", "Office", "Navigate", 0.30),
        RoutineTriple("Afternoon", "Weekday", "InMeeting", "ClientSite", "OpenFolder", 0.20),
        RoutineTriple("Afternoon", "Weekday", "Free", "Office", "SendEmail", 0.20),
        RoutineTriple("Evening", "Weekday", "Free", "Home", "Navigate", 0.10),
        RoutineTriple("Morning", "Weekend", "Free", "Home", "Navigate", 0.10),
        RoutineTriple("Night", "Weekday", "Free", "Transit", "Call", 0.10),
    )


# ---------------------------------------------------------------------------
# Event synthesis
# ---------------------------------------------------------------------------

def _sample_triple(routine: Sequence[RoutineTriple], rng: random.Random) -> RoutineTriple:
    u = rng.random()
    acc = 0.0
    for triple in routine:
        acc += triple.weight
        if u < acc:
            return triple
    return routine[-1]


def gen_event(world: WorldModel, user_id: str, step: int, rng: random.Random) -> RawEvent:
    """Synthesize a raw event realizing one weighted routine habit.

    The clock hour moves through the bucket's span as the day advances;
    the day-of-week is chosen to satisfy the habit's weekday/weekend
    class. Coordinates are uniform inside the place's bounding region.
    """
    profile = world.user(user_id)
    triple = _sample_triple(profile.routine, rng)

    day_number = step // world.day_length
    pos_in_day = (step % world.day_length) / world.day_length
    start, stop = HOUR_RANGES[triple.part_of_day]
    hour = int(start + pos_in_day * (stop - start)) % 24
    if triple.day_class == "Weekday":
        day_of_week = day_number % 5
    else:
        day_of_week = 5 + day_number % 2
    absolute_day = day_number * 7 + day_of_week
    minute = rng.randrange(60)
    timestamp = absolute_day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR + minute * 60

    node = world.context.nodes[triple.place]
    lat = rng.uniform(node.lat_min, node.lat_max)
    lon = rng.uniform(node.lon_min, node.lon_max)

    if triple.cognitive == "Navigate":
        item = world.catalog.actions[rng.randrange(len(world.catalog))]
        cognitive = CognitiveAction("Navigate", item)
    else:
        cognitive = CognitiveAction(triple.cognitive)

    calendar = None
    if triple.calendar_state == "InMeeting":
        top_of_hour = timestamp - (timestamp % SECONDS_PER_HOUR)
        calendar = CalendarEntry("meeting", top_of_hour, top_of_hour + SECONDS_PER_HOUR)

    return RawEvent(user_id, timestamp, (lat, lon), cognitive, calendar)


def reward(world: WorldModel, user_id: str, s: SituationKey, a: ActionId,
           rng: random.Random) -> float:
    """Bernoulli acceptance with the ground-truth probability."""
    if a not in world.catalog:
        raise CatalogError(a)
    row = world.row(user_id, s)
    probability = row[world.catalog.index(a)]
    return 1.0 if rng.random() < probability else 0.0


# ---------------------------------------------------------------------------
# Drift
# ---------------------------------------------------------------------------

def _scoped_rows(world: WorldModel, op: DriftOp) -> list[tuple[str, SituationKey]]:
    user_ids = [u.user_id for u in world.users
                if u.user_id == op.target or u.social_group == op.target]
    keys = []
    for user_id in user_ids:
        for key in world.situations(user_id):
            if op.scope == "all" or key.canonical() == op.scope:
                keys.append((user_id, key))
    return keys


def apply_drift(world: WorldModel, step: int) -> int:
    """Execute every not-yet-applied drift op scheduled at or before `step`."""
    fired = 0
    for op in world.drift_schedule:
        if op.applied or op.step > step:
            continue
        op.applied = True
        fired += 1
        if op.op == "SwapTopItems":
            for user_id, key in _scoped_rows(world, op):
                row = world.relevance[(user_id, key)]
                hi = row.index(max(row))
                lo = row.index(min(row))
                row[hi], row[lo] = row[lo], row[hi]
        elif op.op == "ResampleRow":
            # redraw the prototype once per touched (group, situation), then
            # re-mix every scoped member with fresh personal noise
            rng = world.drift_rng
            redrawn: set[tuple[str, SituationKey]] = set()
            for user_id, key in _scoped_rows(world, op):
                profile = world.user(user_id)
                proto_key = (profile.social_group, key)
                if proto_key not in redrawn:
                    world.prototypes[proto_key] = [rng.random() for _ in world.catalog]
                    redrawn.add(proto_key)
                proto = world.prototypes[proto_key]
                world.relevance[(user_id, key)] = [
                    _mix(p, rng.random(), profile.group_affinity) for p in proto]
    return fired


# ---------------------------------------------------------------------------
# The step loop wrapper
# ---------------------------------------------------------------------------

class SimEnv:
    """Owns the per-run random streams and the per-user current situation.

    Optionally writes "background" transactions into a CF store: ambient
    activity of the other group members (they keep using the system too),
    which is what keeps collaborative advice fresh after a drift.
    """

    def __init__(self, world: WorldModel, cf_store=None, background_rate: int = 0,
                 background_users: Optional[Sequence[str]] = None):
        base = world.seed * _SEED_SPREAD
        self.world = world
        self.event_rng = random.Random(base + _STREAM_EVENTS)
        self.reward_rng = random.Random(base + _STREAM_REWARDS)
        self.background_rng = random.Random(base + _STREAM_BACKGROUND)
        self.cf_store = cf_store
        self.background_rate = background_rate
        self.background_users = list(background_users or [])
        self.global_step = 0
        self.event_log: list[tuple[int, RawEvent]] = []
        self._situation: dict[str, SituationKey] = {}

    def reset(self, user_id: str) -> RawEvent:
        event = gen_event(self.world, user_id, 0, self.event_rng)
        self._remember(user_id, event)
        self.global_step = 0
        self.event_log = [(0, event)]
        return event

    def _remember(self, user_id: str, event: RawEvent) -> None:
        profile = self.world.user(user_id)
        self._situation[user_id] = self.world.context.aggregate(
            event, profile, 0)

    def current_situation(self, user_id: str) -> SituationKey:
        return self._situation[user_id]

    def background_burst(self, n_events: int) -> int:
        """Simulate n ambient interactions of the background users."""
        if self.cf_store is None or not self.background_users:
            return 0
        rng = self.background_rng
        for _ in range(n_events):
            user_id = self.background_users[rng.randrange(len(self.background_users))]
            profile = self.world.user(user_id)
            triple = _sample_triple(profile.routine, rng)
            key = situation_for(triple, profile.social_group)
            item = self.world.catalog.actions[rng.randrange(len(self.world.catalog))]
            probability = self.world.row(user_id, key)[self.world.catalog.index(item)]
            accepted = rng.random() < probability
            self.cf_store.record_implicit(user_id, item, accepted, key)
        return n_events

    def step(self, user_id: str, action: ActionId) -> tuple[float, RawEvent]:
        """Advance one step: drift, reward, ambient activity, next event."""
        apply_drift(self.world, self.global_step)
        r = reward(self.world, user_id, self._situation[user_id], action,
                   self.reward_rng)
        self.background_burst(self.background_rate)
        self.global_step += 1
        next_event = gen_event(self.world, user_id, self.global_step, self.event_rng)
        self._remember(user_id, next_event)
        self.event_log.append((self.global_step, next_event))
        return r, next_event


# ---------------------------------------------------------------------------
# Scenario configuration (structured text file)
# ---------------------------------------------------------------------------

def routine_from_config(entries: Sequence[dict]) -> tuple[RoutineTriple, ...]:
    return tuple(RoutineTriple(e["part_of_day"], e["day_class"], e["calendar"],
                               e["place"], e["cognitive"], float(e["weight"]))
                 for e in entries)


def _population_args(scenario: dict, context: ContextModel) -> dict:
    """build_population's arguments for a parsed scenario, but the rng and seed."""
    return dict(
        n_users=int(scenario["users"]), n_groups=int(scenario["groups"]),
        n_items=int(scenario["items"]), affinity=float(scenario["affinity"]),
        routines={group: routine_from_config(entries)
                  for group, entries in scenario["routines"].items()},
        day_length=int(scenario.get("day_length", 50)),
        drift=[DriftOp(int(d["step"]), d["op"], d["target"], d.get("scope", "all"))
               for d in scenario.get("drift", [])],
        context=context)


def world_from_scenario(scenario: dict, seed: int,
                        context: Optional[ContextModel] = None) -> WorldModel:
    """Build a world from a parsed scenario config, overriding its seed."""
    args = _population_args(scenario, context or ContextModel.default())
    rng = random.Random(seed * _SEED_SPREAD + _STREAM_BUILD)
    return build_population(rng=rng, seed=seed, **args)


def check_scenario(scenario: dict, context: ContextModel) -> None:
    """Raise what world_from_scenario would raise, without drawing a random number."""
    args = _population_args(scenario, context)
    _population(args["n_users"], args["n_groups"], args["n_items"], args["affinity"],
                args["routines"], context)
