"""Context abstraction: raw sensor events to discrete situation keys.

A situation combines a time bucket, a place, the user's social group and
the user's current cognitive activity, at a chosen granularity level.
Time buckets come from fixed hour boundaries on a simulated local clock
(day 0 is a Monday). Places come from a static gazetteer of bounding
regions with a parent hierarchy (place -> city -> root), which replaces
any live reverse-geocoding service so that runs stay deterministic and
offline. The gazetteer is built in (`GAZETTEER`), and every layer reads
the one `ContextModel` made from it, `CONTEXT`. Every event carries a
position and a cognitive action; only the calendar entry may be absent.

Every layer indexes by situation. A `SituationKey` and its `TimeBucket`
are named tuples, so the interpreter hashes and compares them as the tuples
of their fields, with no Python-level call. Keys are also interned:
`situation` hands out one shared key per distinct situation, process-wide.
Interning is what lets a dict lookup stop at the identity check, and makes
a key loaded from a pickle the shared one itself. Equality stays by value,
so a key built elsewhere still finds the shared one in a dict. A key is
only ever written as text (`canonical`), never parsed back: `verify`
renders a trace's situation column from each step's logged event and
compares it. The intern table only ever gains entries, and it is filled
with `setdefault`, so the functions here behave as pure ones: same inputs,
same key, from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400

PARTS_OF_DAY = ("Morning", "Afternoon", "Evening", "Night")
DAY_CLASSES = ("Weekday", "Weekend")
CALENDAR_STATES = ("InMeeting", "Free")
COGNITIVE_KINDS = ("Navigate", "SendEmail", "Call", "OpenFolder")

# The hours of each part of the day, [start, end): abstract_time reads them
# through _PART_OF_HOUR, and the simulator draws a bucket's timestamps from them.
HOUR_RANGES = {
    "Morning": (6, 12),
    "Afternoon": (12, 18),
    "Evening": (18, 23),
    "Night": (23, 30),  # 23:00 through 05:59 next morning, mod 24
}
_PART_OF_HOUR = tuple(next(part for part, (start, end) in HOUR_RANGES.items()
                           if start <= hour < end or start <= hour + 24 < end)
                      for hour in range(24))


class TimeBucket(NamedTuple):
    """Discretized time: part of day, weekday/weekend, calendar state.

    A named tuple, hashed and compared by the interpreter as the tuple of its
    fields. `time_bucket` checks the fields and hands out one of the 16
    shared buckets, so interned situations hold their buckets by identity; a
    pickled bucket loads as that shared one.
    """

    part_of_day: str
    day_class: str
    calendar_state: str

    def __reduce__(self):
        return (time_bucket, tuple(self))

    def canonical(self) -> str:
        return f"{self.part_of_day}-{self.day_class}-{self.calendar_state}"


@dataclass(frozen=True, slots=True)
class CalendarEntry:
    label: str
    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("calendar entry ends before it starts")


@dataclass(frozen=True, slots=True)
class CognitiveAction:
    """A user action observed by the cognitive sensor.

    `kind` is the action class used in situation keys; `item` carries the
    navigated document for Navigate actions and is ignored otherwise.
    """

    kind: str
    item: Optional[str] = None

    def __post_init__(self):
        if self.kind not in COGNITIVE_KINDS:
            raise ValueError(f"bad cognitive kind: {self.kind!r}")


@dataclass(frozen=True, slots=True)
class RawEvent:
    """One multi-sensor observation of the focal user: a (lat, lon)
    position, a cognitive action and, during a meeting, a calendar entry.
    Only the scenario's `agent_user` is observed, so an event names no user."""

    timestamp: int
    geo: tuple[float, float]
    cognitive: CognitiveAction
    calendar_entry: Optional[CalendarEntry] = None

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")
        lat, lon = self.geo
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude out of range: {lat}")
        if not (-180.0 <= lon <= 180.0):
            raise ValueError(f"longitude out of range: {lon}")


@dataclass(frozen=True)
class PlaceNode:
    """A gazetteer entry: a named bounding box inside its parent's region."""

    name: str
    parent: Optional[str]  # parent place name, None for the root
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, lat: float, lon: float) -> bool:
        return (self.lat_min <= lat <= self.lat_max
                and self.lon_min <= lon <= self.lon_max)


class SituationKey(NamedTuple):
    """The discrete state: a named tuple, hashed and compared by the
    interpreter as the tuple of its fields.

    `granularity` is the effective place level actually used (0 = most
    specific). Lifting a key whose place chain is shorter than the asked
    level clamps at the chain end, the root: a key at the root place stays
    at level 0 at every granularity.

    `situation` hands out the shared key, which a lookup finds by identity.
    A pickled key loads as that shared one, so it is hashed by the
    interpreter that loads it: string hashes differ between interpreters.
    """

    time: TimeBucket
    place: str
    social_group: str
    cognitive: str
    granularity: int

    def __reduce__(self):
        return (situation, tuple(self))

    def canonical(self) -> str:
        return "|".join((self.time.canonical(), self.place, self.social_group,
                         self.cognitive, str(self.granularity)))


# The 16 time buckets, built once and handed out by time_bucket and
# abstract_time, so interned situations compare their buckets by identity.
_BUCKETS = {(part, day, state): TimeBucket(part, day, state)
            for part in PARTS_OF_DAY for day in DAY_CLASSES for state in CALENDAR_STATES}


def time_bucket(part_of_day: str, day_class: str, calendar_state: str) -> TimeBucket:
    """The shared bucket for these fields; ValueError naming an unknown field."""
    bucket = _BUCKETS.get((part_of_day, day_class, calendar_state))
    if bucket is not None:
        return bucket
    if part_of_day not in PARTS_OF_DAY:
        raise ValueError(f"bad part_of_day: {part_of_day!r}")
    if day_class not in DAY_CLASSES:
        raise ValueError(f"bad day_class: {day_class!r}")
    raise ValueError(f"bad calendar_state: {calendar_state!r}")


def abstract_time(timestamp: int, calendar: Iterable[CalendarEntry] = ()) -> TimeBucket:
    """Map a timestamp (plus calendar) to its bucket. Total function."""
    if timestamp < 0:
        raise ValueError("timestamp must be >= 0")
    part = _PART_OF_HOUR[(timestamp % SECONDS_PER_DAY) // SECONDS_PER_HOUR]
    day_of_week = (timestamp // SECONDS_PER_DAY) % 7  # 0 = Monday
    day_class = "Weekend" if day_of_week >= 5 else "Weekday"
    state = "Free"
    for entry in calendar:
        if entry.start <= timestamp < entry.end:
            state = "InMeeting"
            break
    return _BUCKETS[part, day_class, state]


# (time, place, group, cognitive, granularity) -> the one shared key
_KEYS: dict[tuple, SituationKey] = {}


def situation(time: TimeBucket, place: str, social_group: str, cognitive: str,
              granularity: int) -> SituationKey:
    """The one shared key for these fields, built on first request."""
    fields = (time, place, social_group, cognitive, granularity)
    key = _KEYS.get(fields)
    if key is None:
        key = _KEYS.setdefault(fields, SituationKey(*fields))
    return key


class ContextModel:
    """Holds the place hierarchy and provides the abstraction pipeline."""

    def __init__(self, nodes: Sequence[PlaceNode]):
        if not nodes:
            raise ValueError("gazetteer is empty")
        self.nodes: dict[str, PlaceNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError(f"duplicate place name {node.name!r}")
            self.nodes[node.name] = node
        roots = [n.name for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root place, found {roots}")
        self._chains: dict[str, tuple[str, ...]] = {}
        for node in nodes:
            chain = [node.name]
            seen = {node.name}
            cursor = node
            while cursor.parent is not None:
                if cursor.parent not in self.nodes:
                    raise ValueError(f"place {cursor.name!r} has unknown parent {cursor.parent!r}")
                if cursor.parent in seen:
                    raise ValueError(f"cycle in place hierarchy at {cursor.parent!r}")
                seen.add(cursor.parent)
                chain.append(cursor.parent)
                cursor = self.nodes[cursor.parent]
            self._chains[node.name] = tuple(chain)
        self.depth = max(len(c) - 1 for c in self._chains.values())
        # reverse geocoding's scan order: deepest first (chain length minus
        # one is the depth below the root), same-depth ties by name
        self._scan = sorted(nodes, key=lambda n: (-len(self._chains[n.name]), n.name))

    def place_chain(self, name: str) -> tuple[str, ...]:
        """Names from the node up to the root; ValueError for a name the
        gazetteer lacks."""
        try:
            return self._chains[name]
        except KeyError:
            raise ValueError(f"unknown place {name!r}") from None

    def abstract_location(self, lat: float, lon: float) -> PlaceNode:
        """Reverse geocode against the gazetteer.

        Deepest containing region wins; same-depth ties go to the
        lexicographically smaller name. A point no region contains raises
        ValueError. The built-in root covers exactly the valid range, which
        `RawEvent` enforces: it contains every valid point and no other.
        """
        for node in self._scan:
            if node.contains(lat, lon):
                return node
        raise ValueError(f"no gazetteer region contains ({lat}, {lon})")

    def aggregate(self, event: RawEvent, social_group: str) -> SituationKey:
        """Compose time, place, group and cognitive class into one level-0 key;
        `generalize` lifts it to a coarser level."""
        calendar = (event.calendar_entry,) if event.calendar_entry else ()
        bucket = abstract_time(event.timestamp, calendar)
        place = self.abstract_location(*event.geo).name
        return situation(bucket, place, social_group, event.cognitive.kind, 0)

    def generalize(self, key: SituationKey, level: int) -> SituationKey:
        """Lift a key's place to `level`, clamping at its chain end."""
        if level < key.granularity:
            raise ValueError(f"cannot specialize key from level {key.granularity} to {level}")
        if level > self.depth:
            raise ValueError(f"granularity level {level} outside 0..{self.depth}")
        chain = self.place_chain(key.place)
        hop = min(level - key.granularity, len(chain) - 1)
        return situation(key.time, chain[hop], key.social_group,
                         key.cognitive, key.granularity + hop)


# The built-in gazetteer: a root covering the globe, so every valid point
# reverse-geocodes to a place; cities under it, and leaf places under cities.
GAZETTEER = (
    PlaceNode("Anywhere", None, -90.0, 90.0, -180.0, 180.0),
    PlaceNode("Paris", "Anywhere", 48.8, 48.91, 2.25, 2.42),
    PlaceNode("Evry", "Anywhere", 48.6, 48.66, 2.41, 2.47),
    PlaceNode("Home", "Paris", 48.86, 48.88, 2.34, 2.36),
    PlaceNode("Office", "Paris", 48.84, 48.855, 2.3, 2.34),
    PlaceNode("Transit", "Paris", 48.88, 48.9, 2.37, 2.41),
    PlaceNode("ClientSite", "Evry", 48.62, 48.64, 2.43, 2.45),
)
CONTEXT = ContextModel(GAZETTEER)
