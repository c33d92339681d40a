import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyql
from hyql.context import (CONTEXT, HOUR_RANGES, CalendarEntry, CognitiveAction,
                          ContextModel, PlaceNode, RawEvent, SituationKey, TimeBucket,
                          abstract_time, situation, time_bucket,
                          SECONDS_PER_DAY, SECONDS_PER_HOUR)

MONDAY = 0
TUESDAY = 1
SATURDAY = 5


def ts(day_of_week: int, hour: int, minute: int = 0) -> int:
    return day_of_week * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR + minute * 60


class TestAbstractTime:
    def test_tuesday_morning_free(self):
        assert abstract_time(ts(TUESDAY, 9)) == TimeBucket("Morning", "Weekday", "Free")

    def test_saturday_afternoon_in_meeting(self):
        entry = CalendarEntry("standup", ts(SATURDAY, 12), ts(SATURDAY, 14))
        assert abstract_time(ts(SATURDAY, 13), [entry]) == TimeBucket(
            "Afternoon", "Weekend", "InMeeting")

    def test_monday_night(self):
        assert abstract_time(ts(MONDAY, 3, 30)) == TimeBucket("Night", "Weekday", "Free")

    def test_bucket_boundaries(self):
        assert abstract_time(ts(MONDAY, 6)).part_of_day == "Morning"
        assert abstract_time(ts(MONDAY, 12)).part_of_day == "Afternoon"
        assert abstract_time(ts(MONDAY, 18)).part_of_day == "Evening"
        assert abstract_time(ts(MONDAY, 23)).part_of_day == "Night"
        assert abstract_time(ts(MONDAY, 5, 59)).part_of_day == "Night"
        for hour in range(24):
            spans = [part for part, (start, end) in HOUR_RANGES.items()
                     if hour in range(start, end) or hour + 24 in range(start, end)]
            assert len(spans) == 1
            for minute in (0, 59):
                assert abstract_time(ts(MONDAY, hour, minute)).part_of_day == spans[0]

    def test_meeting_end_is_exclusive(self):
        entry = CalendarEntry("m", 100, 200)
        assert abstract_time(200, [entry]).calendar_state == "Free"
        assert abstract_time(199, [entry]).calendar_state == "InMeeting"

    def test_total_and_pure_over_wide_range(self):
        rng = random.Random(0)
        for _ in range(2000):
            t = rng.randrange(0, 10**10)
            first = abstract_time(t)
            assert abstract_time(t) == first
            assert first.part_of_day in ("Morning", "Afternoon", "Evening", "Night")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            abstract_time(-1)


class TestAbstractLocation:
    def test_containment(self):
        assert CONTEXT.abstract_location(48.85, 2.32).name == "Office"
        assert CONTEXT.abstract_location(48.87, 2.35).name == "Home"

    def test_point_outside_every_region_raises(self):
        # no global root box, so points can fall outside every region
        ctx = ContextModel([
            PlaceNode("Root", None, 10.0, 11.0, 10.0, 11.0),
            PlaceNode("Home", "Root", 10.0, 10.2, 10.0, 10.2),
            PlaceNode("Office", "Root", 10.8, 11.0, 10.8, 11.0),
        ])
        for lat, lon in [(12.0, 12.0), (9.9, 9.9), (20.0, 3.0), (10.5, 11.5)]:
            with pytest.raises(ValueError,
                               match=re.escape(f"no gazetteer region contains ({lat}, {lon})")):
                ctx.abstract_location(lat, lon)
        # inside the root's box but no leaf's
        assert ctx.abstract_location(10.3, 10.5).name == "Root"

    def test_boundary_tie_lexicographic(self):
        ctx = ContextModel([
            PlaceNode("Root", None, 0.0, 10.0, 0.0, 10.0),
            PlaceNode("B", "Root", 0.0, 5.0, 0.0, 5.0),
            PlaceNode("A", "Root", 5.0, 10.0, 0.0, 5.0),
        ])
        # (5, 3) sits on the shared lat boundary of A and B
        assert ctx.abstract_location(5.0, 3.0).name == "A"

    def test_invalid_coordinates(self):
        with pytest.raises(ValueError):
            CONTEXT.abstract_location(91.0, 0.0)

    def test_deeper_region_beats_city(self):
        # Office is inside the Paris box; the leaf must win
        node = CONTEXT.abstract_location(48.85, 2.33)
        assert node.name == "Office"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scan_matches_the_min_over_containing_nodes(self, data):
        lat, lon = data.draw(points_near(CONTEXT))
        assert_locates_as_oracle(CONTEXT, lat, lon)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scan_matches_oracle_on_overlapping_siblings(self, data):
        ctx = data.draw(overlapping_gazetteers())
        lat, lon = data.draw(points_near(ctx))
        assert_locates_as_oracle(ctx, lat, lon)


def oracle_location(ctx, lat, lon):
    """Deepest containing node, ties by name; None when no node contains the point."""
    depth = {name: len(ctx.place_chain(name)) - 1 for name in ctx.nodes}
    containing = [n for n in ctx.nodes.values() if n.contains(lat, lon)]
    return min(containing, key=lambda n: (-depth[n.name], n.name), default=None)


def assert_locates_as_oracle(ctx, lat, lon):
    """abstract_location returns the oracle's node, or raises where it finds none."""
    expected = oracle_location(ctx, lat, lon)
    if expected is None:
        with pytest.raises(ValueError, match="no gazetteer region contains"):
            ctx.abstract_location(lat, lon)
    else:
        assert ctx.abstract_location(lat, lon).name == expected.name


def points_near(ctx):
    """Points anywhere, inside and around the boxes, and exactly on box edges."""
    nodes = list(ctx.nodes.values())
    edge_lats = sorted({v for n in nodes for v in (n.lat_min, n.lat_max)})
    edge_lons = sorted({v for n in nodes for v in (n.lon_min, n.lon_max)})
    finite = dict(allow_nan=False, allow_infinity=False)
    anywhere = st.tuples(st.floats(-90.0, 90.0, **finite), st.floats(-180.0, 180.0, **finite))
    near = st.tuples(
        st.floats(max(-90.0, edge_lats[0] - 1), min(90.0, edge_lats[-1] + 1), **finite),
        st.floats(max(-180.0, edge_lons[0] - 1), min(180.0, edge_lons[-1] + 1), **finite))
    on_edges = st.tuples(st.sampled_from(edge_lats), st.sampled_from(edge_lons))
    edge_and_near = st.tuples(st.sampled_from(edge_lats), near.map(lambda p: p[1]))
    return st.one_of(anywhere, near, on_edges, edge_and_near)


@st.composite
def overlapping_gazetteers(draw):
    """A random tree of integer-cornered boxes on a 10 x 10 grid, no global root.

    Siblings overlap and share edges, and names are dealt in random order,
    so the same-depth tie by name decides many points.
    """
    n = draw(st.integers(2, 8))
    names = draw(st.permutations("ABCDEFGH"))[:n]
    nodes = []
    for i, name in enumerate(names):
        parent = None if i == 0 else names[draw(st.integers(0, i - 1))]
        lat_lo, lat_hi = sorted(draw(st.lists(st.integers(0, 10), min_size=2, max_size=2)))
        lon_lo, lon_hi = sorted(draw(st.lists(st.integers(0, 10), min_size=2, max_size=2)))
        nodes.append(PlaceNode(name, parent, *map(float, (lat_lo, lat_hi, lon_lo, lon_hi))))
    return ContextModel(nodes)


class TestGazetteer:
    def test_empty_is_config_error(self):
        with pytest.raises(ValueError, match="gazetteer is empty"):
            ContextModel([])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError, match="one root"):
            ContextModel([PlaceNode("R1", None, 0.0, 1.0, 0.0, 1.0),
                          PlaceNode("R2", None, 2.0, 3.0, 2.0, 3.0)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown parent"):
            ContextModel([PlaceNode("Root", None, 0.0, 1.0, 0.0, 1.0),
                          PlaceNode("A", "Nowhere", 0.0, 1.0, 0.0, 1.0)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle in place hierarchy"):
            ContextModel([PlaceNode("Root", None, 0.0, 1.0, 0.0, 1.0),
                          PlaceNode("A", "B", 0.0, 1.0, 0.0, 1.0),
                          PlaceNode("B", "A", 0.0, 1.0, 0.0, 1.0)])


def office_event(timestamp=ts(TUESDAY, 9), cognitive="Navigate"):
    return RawEvent(timestamp, (48.85, 2.32), CognitiveAction(cognitive))


class TestAggregate:
    def test_morning_at_office(self):
        key = CONTEXT.aggregate(office_event(), "g0")
        assert key == SituationKey(TimeBucket("Morning", "Weekday", "Free"),
                                   "Office", "g0", "Navigate", 0)

    def test_full_depth_reaches_root(self):
        key = CONTEXT.generalize(CONTEXT.aggregate(office_event(), "g0"), CONTEXT.depth)
        assert key.place == "Anywhere"
        assert key.granularity == CONTEXT.depth

    def test_level_out_of_range(self):
        key = CONTEXT.aggregate(office_event(), "g0")
        with pytest.raises(ValueError):
            CONTEXT.generalize(key, CONTEXT.depth + 1)
        with pytest.raises(ValueError):
            CONTEXT.generalize(CONTEXT.generalize(key, 1), 0)

    def test_generalization_is_function_of_previous_level(self):
        # equal level-k keys must generalize to equal level-(k+1) keys; the
        # last two points lie in Paris but no leaf, and in the root alone
        rng = random.Random(1)
        places = [(48.85, 2.32), (48.87, 2.35), (48.63, 2.44), (48.89, 2.39),
                  (48.82, 2.26), (0.0, 0.0)]
        events = []
        for _ in range(200):
            geo = places[rng.randrange(len(places))]
            events.append(RawEvent(rng.randrange(0, 10**7), geo,
                                   CognitiveAction("Navigate")))
        for k in range(CONTEXT.depth):
            seen = {}
            for event in events:
                key_k = CONTEXT.generalize(CONTEXT.aggregate(event, "g0"), k)
                key_k1 = CONTEXT.generalize(CONTEXT.aggregate(event, "g0"), k + 1)
                if key_k in seen:
                    assert seen[key_k] == key_k1
                seen[key_k] = key_k1


def every_level(event):
    """The event's key at each granularity level, most specific first."""
    return [CONTEXT.generalize(CONTEXT.aggregate(event, "g0"), level)
            for level in range(CONTEXT.depth + 1)]


class TestEnumerateGranularities:
    def test_leaf_depth_two_gives_three_keys(self):
        keys = every_level(office_event())
        assert [k.place for k in keys] == ["Office", "Paris", "Anywhere"]
        assert [k.granularity for k in keys] == [0, 1, 2]

    def test_unknown_place_deduplicates(self):
        # a point no city contains is known only as the root, whose chain
        # ends at once, so it clamps at level 0: every level is one key
        event = RawEvent(ts(TUESDAY, 9), (0.0, 0.0), CognitiveAction("Call"))
        keys = every_level(event)
        assert set(keys) == {keys[0]}
        assert keys[0].place == "Anywhere" and keys[0].granularity == 0

    def test_same_bucket_same_lists(self):
        a = every_level(office_event(ts(TUESDAY, 9)))
        b = every_level(office_event(ts(TUESDAY, 11, 45)))
        assert a == b

    def test_no_duplicates_and_ordered(self):
        keys = every_level(office_event())
        assert len(set(keys)) == len(keys)
        assert [k.granularity for k in keys] == sorted(k.granularity for k in keys)


class TestSituationKey:
    def test_value_equality_and_hash(self):
        bucket = TimeBucket("Morning", "Weekday", "Free")
        a = SituationKey(bucket, "Office", "g0", "Navigate", 0)
        b = SituationKey(bucket, "Office", "g0", "Navigate", 0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("interned", [True, False])
    def test_hash_lookup_and_equality_make_no_python_call(self, interned):
        # the interpreter hashes and compares a key as a tuple, in C
        key = situation(time_bucket("Morning", "Weekday", "Free"), "Office", "g0",
                        "Navigate", 0)
        other = key if interned else SituationKey(TimeBucket("Morning", "Weekday", "Free"),
                                                  "Office", "g0", "Navigate", 0)
        assert (other is key) == interned
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            hashed, found, equal = hash(key), {key: 1}.get(other), key == other
        finally:
            sys.setprofile(previous)
        assert (hashed, found, equal) == (hash(other), 1, True)
        assert calls == []

    def test_equal_situations_share_one_key(self):
        a = CONTEXT.aggregate(office_event(), "g0")
        assert CONTEXT.aggregate(office_event(ts(TUESDAY, 11, 45)), "g0") is a
        lifted = CONTEXT.generalize(a, 1)
        assert lifted.place == "Paris" and CONTEXT.generalize(a, 1) is lifted
        assert CONTEXT.generalize(a, 0) is a
        # a key built outside the model lifts to the shared keys too
        outside = SituationKey(TimeBucket("Morning", "Weekday", "Free"),
                               "Office", "g0", "Navigate", 0)
        assert outside is not a
        assert CONTEXT.generalize(outside, 0) is a
        assert CONTEXT.generalize(outside, 1) is lifted

    def test_pickled_key_hashes_where_it_is_loaded(self):
        # another interpreter hashes strings with another seed
        hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys\n"
                "from hyql.context import TimeBucket, situation\n"
                "key = situation(TimeBucket('Morning', 'Weekday', 'Free'), 'Office', 'g0',\n"
                "                'Navigate', 0)\n"
                "sys.stdout.buffer.write(pickle.dumps(key))\n")
        src = str(Path(hyql.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        loaded = pickle.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                             capture_output=True, check=True).stdout)
        local = situation(TimeBucket("Morning", "Weekday", "Free"), "Office", "g0",
                          "Navigate", 0)
        assert loaded is local  # loads as the shared key, hashed here
        assert loaded == local and hash(loaded) == hash(local)
        assert {local: "found"}.get(loaded) == "found"
        # its bucket loads as the shared one, hashed here
        shared = time_bucket("Morning", "Weekday", "Free")
        assert loaded.time is shared and hash(loaded.time) == hash(shared)
        assert pickle.loads(pickle.dumps(TimeBucket("Morning", "Weekday", "Free"))) is shared

    @pytest.mark.parametrize("fields, message", [
        (("Dawn", "Weekday", "Free"), "bad part_of_day: 'Dawn'"),
        (("Morning", "Weekly", "Free"), "bad day_class: 'Weekly'"),
        (("Morning", "Weekday", "Busy"), "bad calendar_state: 'Busy'"),
    ])
    def test_time_bucket_names_the_field_it_cannot_hold(self, fields, message):
        with pytest.raises(ValueError, match=message):
            time_bucket(*fields)


class TestRawEvent:
    def test_needs_some_payload(self):
        # a position and a cognitive action are required; the calendar is not
        with pytest.raises(TypeError):
            RawEvent(0)
        with pytest.raises(TypeError):
            RawEvent(0, (48.85, 2.32))
        assert RawEvent(0, (48.85, 2.32), CognitiveAction("Call")).calendar_entry is None

    def test_coordinate_ranges(self):
        with pytest.raises(ValueError):
            RawEvent(0, (95.0, 0.0), CognitiveAction("Call"))
        with pytest.raises(ValueError):
            RawEvent(0, (0.0, -190.0), CognitiveAction("Call"))
