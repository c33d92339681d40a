import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyql.context import (CALENDAR_STATES, COGNITIVE_KINDS, DAY_CLASSES, PARTS_OF_DAY,
                          CalendarEntry, CognitiveAction, RawEvent, SituationKey,
                          TimeBucket, time_bucket)
from hyql.qlearn import BRANCHES, EXPLOIT, StepRecord
from hyql.store import (OrderingError, PreferenceRecord, RunStore,
                        StoreParseError, _event_line, _step_line,
                        read_action_history, read_event_history)


def skey(place="Office"):
    return SituationKey(TimeBucket("Morning", "Weekday", "Free"), place, "g0",
                        "Navigate", 0)


def situations(steps):
    """The situation of each step of a `populated_store` trace."""
    return [skey()] * steps


def step_record(step, reward=1.0):
    return StepRecord(step, skey(), "doc00", "Exploit", reward)


def sample_event(timestamp=9 * 3600):
    return RawEvent(timestamp, (48.85, 2.32), CognitiveAction("Navigate", "doc03"),
                    CalendarEntry("sync", timestamp - 60, timestamp + 60))


def populated_store():
    store = RunStore()
    store.append_event_history(sample_event(), 0)
    store.append_event_history(RawEvent(7200, (48.87, 2.35), CognitiveAction("Call")), 1)
    for step in range(3):
        store.append_action_history(step_record(step, reward=float(step % 2)))
        store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00",
                                                  float(step % 2), step))
    return store


class TestActionHistory:
    def test_append_then_read_round_trip(self):
        store = RunStore()
        record = step_record(0)
        store.append_action_history(record)
        assert store.action_history == [record]

    def test_equal_steps_accepted(self):
        store = RunStore()
        store.append_action_history(step_record(3))
        store.append_action_history(step_record(3))
        assert len(store.action_history) == 2

    def test_decreasing_step_rejected(self):
        store = RunStore()
        store.append_action_history(step_record(5))
        with pytest.raises(OrderingError):
            store.append_action_history(step_record(4))


class TestEventHistory:
    def test_round_trip(self):
        store = RunStore()
        event = sample_event()
        store.append_event_history(event, 0)
        assert store.event_history == [(0, event)]

    def test_empty_read(self):
        assert RunStore().event_history == []

    def test_thousand_appends_order_preserved(self):
        store = RunStore()
        for i in range(1000):
            store.append_event_history(RawEvent(i, (48.87, 2.35), CognitiveAction("Call")), i)
        assert len(store.event_history) == 1000
        assert [s for s, _ in store.event_history] == list(range(1000))

    def test_decreasing_step_rejected(self):
        store = RunStore()
        store.append_event_history(sample_event(), 5)
        with pytest.raises(OrderingError):
            store.append_event_history(sample_event(), 4)


class TestPreferences:
    def test_a_later_step_replaces_the_keys_line_in_place(self, tmp_path):
        store = RunStore()
        store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00", 1.0, 0))
        store.upsert_preferences(PreferenceRecord("u00", skey("Home"), "doc00", 1.0, 1))
        store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00", 0.0, 2))
        store.snapshot(tmp_path)
        assert (tmp_path / "preferences.tsv").read_text(encoding="utf-8").splitlines() == [
            "# hyql-store v2 preferences: user_id\tsituation_key\taction"
            "\tlast_reward\tlast_step",
            f"u00\t{skey().canonical()}\tdoc00\t0\t2",
            f"u00\t{skey('Home').canonical()}\tdoc00\t1\t1"]

    def test_a_new_user_situation_or_item_appends_a_line(self):
        store = RunStore()
        records = [PreferenceRecord("u00", skey(), "doc00", 1.0, 0),
                   PreferenceRecord("u00", skey(), "doc01", 1.0, 1),
                   PreferenceRecord("u00", skey("Home"), "doc00", 0.0, 2),
                   PreferenceRecord("u01", skey(), "doc00", 0.0, 3)]
        for record in records:
            store.upsert_preferences(record)
        assert list(store.preferences.values()) == records

    def test_an_equal_step_replaces_and_an_older_step_is_rejected(self):
        store = RunStore()
        store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00", 1.0, 5))
        store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00", 0.0, 5))
        assert [p.reward for p in store.preferences.values()] == [0.0]
        with pytest.raises(OrderingError, match="preference step 4 < last 5"):
            store.upsert_preferences(PreferenceRecord("u00", skey(), "doc00", 1.0, 4))
        # another key's step may be lower
        store.upsert_preferences(PreferenceRecord("u00", skey("Home"), "doc00", 1.0, 0))

    def test_the_text_is_the_file_the_snapshot_writes(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path)
        assert store.preferences_text() == \
            (tmp_path / "preferences.tsv").read_text(encoding="utf-8")
        assert RunStore().preferences_text().count("\n") == 1  # the header alone


class TestSnapshotLoad:
    def test_empty_round_trip(self, tmp_path):
        RunStore().snapshot(tmp_path / "run")
        assert read_action_history(tmp_path / "run", []) == []

    def test_empty_store_writes_only_the_headers(self, tmp_path):
        RunStore().snapshot(tmp_path)
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == ["history_actions.tsv", "history_events.tsv",
                                           "preferences.tsv"]
        for path in files:
            header, rest = path.read_bytes().split(b"\n", 1)
            assert header.startswith(b"# hyql-store v2 ")
            assert rest == b""

    def test_populated_round_trip_byte_identical(self, tmp_path):
        store = populated_store()
        first = tmp_path / "first"
        second = tmp_path / "second"
        store.snapshot(first)
        again = RunStore()
        for record in read_action_history(first, situations(3)):
            again.append_action_history(record)
        again.snapshot(second)
        name = "history_actions.tsv"
        assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_observational_equality(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path / "run")
        assert read_action_history(tmp_path / "run", situations(3)) == store.action_history

    def test_truncated_file_is_parse_error_with_line(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path / "run")
        path = tmp_path / "run" / "history_actions.tsv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreParseError) as info:
            read_action_history(tmp_path / "run", situations(3))
        assert str(info.value).startswith(f"{path}:{len(lines)}:")

    def test_missing_header_rejected(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path / "run")
        path = tmp_path / "run" / "history_actions.tsv"
        body = path.read_text().splitlines()[1:]
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(StoreParseError, match="schema header"):
            read_action_history(tmp_path / "run", situations(3))

    def test_missing_file_rejected(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path / "run")
        (tmp_path / "run" / "history_actions.tsv").unlink()
        with pytest.raises(StoreParseError, match="missing store file"):
            read_action_history(tmp_path / "run", situations(3))

    @pytest.mark.parametrize("reward", ["nan", "-0.5", "2"])
    def test_a_reward_outside_the_unit_interval_is_rejected(self, tmp_path, reward):
        populated_store().snapshot(tmp_path / "run")
        path = tmp_path / "run" / "history_actions.tsv"
        lines = path.read_text().splitlines()
        fields = lines[2].split("\t")
        fields[4] = reward
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreParseError) as info:
            read_action_history(tmp_path / "run", situations(3))
        assert str(info.value) == f"{path}:3: reward {float(reward)!r} outside [0, 1]"

    def test_ordering_violation_in_file_detected(self, tmp_path):
        store = populated_store()
        store.snapshot(tmp_path / "run")
        path = tmp_path / "run" / "history_actions.tsv"
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # step 0 again, where step 3 belongs
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreParseError) as info:
            read_action_history(tmp_path / "run", situations(4))
        written = _step_line(step_record(3, reward=0.0))
        assert str(info.value) == (f"{path}:5: {lines[1]!r} is not spelt as hyql writes "
                                   f"it: {written!r}")

    def test_a_situation_other_than_the_given_one_is_rejected(self, tmp_path):
        """The situation column is rendered from the given situations and
        compared, never parsed."""
        populated_store().snapshot(tmp_path / "run")
        path = tmp_path / "run" / "history_actions.tsv"
        lines = path.read_text().splitlines()
        given = situations(3)
        given[1] = skey("Home")
        with pytest.raises(StoreParseError) as info:
            read_action_history(tmp_path / "run", given)
        written = _step_line(StepRecord(1, skey("Home"), "doc00", "Exploit", 1.0))
        assert str(info.value) == (f"{path}:3: {lines[2]!r} is not spelt as hyql writes "
                                   f"it: {written!r}")


class TestStepRecord:
    def test_line_round_trip(self, tmp_path):
        s = SituationKey(TimeBucket("Morning", "Weekday", "Free"), "Office",
                         "g0", "Navigate", 0)
        record = StepRecord(0, s, "a1", EXPLOIT, 1 / 3)
        store = RunStore()
        store.append_action_history(record)
        store.snapshot(tmp_path)
        assert read_action_history(tmp_path, [s]) == [record]


situation_keys = st.builds(
    SituationKey,
    st.builds(time_bucket, st.sampled_from(PARTS_OF_DAY), st.sampled_from(DAY_CLASSES),
              st.sampled_from(CALENDAR_STATES)),
    st.sampled_from(["Office", "Home", "Paris", "Anywhere"]),
    st.integers(0, 99).map("g{}".format), st.sampled_from(COGNITIVE_KINDS),
    st.integers(0, 3))


# every reward in [0, 1] the line format must carry bit for bit
EDGE_REWARDS = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1 / 3]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(payloads=st.lists(st.tuples(
    situation_keys, st.integers(0, 999).map("doc{:02d}".format), st.sampled_from(BRANCHES),
    st.floats(0.0, 1.0) | st.sampled_from(EDGE_REWARDS)), min_size=1, max_size=5))
def test_a_trace_reads_back_equal_for_any_records(payloads):
    records = [StepRecord(step, *payload) for step, payload in enumerate(payloads)]
    store = RunStore()
    for record in records:
        store.append_action_history(record)
    with tempfile.TemporaryDirectory() as tmp:
        store.snapshot(tmp)
        back = read_action_history(tmp, [record.s for record in records])
        text = (Path(tmp) / "history_actions.tsv").read_text(encoding="utf-8")
    assert back == records
    assert text.splitlines()[1:] == [_step_line(record) for record in back]  # sign and bits


def event_store(events):
    store = RunStore()
    for step, event in enumerate(events):
        store.append_event_history(event, step)
    return store


class TestReadEventHistory:
    def test_snapshot_then_read_gives_the_events_back(self, tmp_path):
        events = [sample_event(), RawEvent(7200, (48.87, 2.35), CognitiveAction("Call"))]
        event_store(events).snapshot(tmp_path)
        assert read_event_history(tmp_path, 1) == events

    def test_the_lines_are_the_event_columns_without_a_user(self, tmp_path):
        event_store([sample_event()]).snapshot(tmp_path)
        assert (tmp_path / "history_events.tsv").read_text(encoding="utf-8").splitlines() == [
            "# hyql-store v2 events: step\ttimestamp\tlat\tlon\tcognitive_kind"
            "\tcognitive_item\tcalendar_label\tcalendar_start\tcalendar_end",
            "0\t32400\t48.850000000000001\t2.3199999999999998\tNavigate\tdoc03"
            "\tsync\t32340\t32460"]

    def test_a_v1_header_is_rejected(self, tmp_path):
        event_store([sample_event()]).snapshot(tmp_path)
        path = tmp_path / "history_events.tsv"
        path.write_text(path.read_text().replace("# hyql-store v2", "# hyql-store v1"))
        with pytest.raises(StoreParseError) as info:
            read_event_history(tmp_path, 0)
        assert str(info.value).startswith(f"{path}:1: missing or wrong schema header")

    @pytest.mark.parametrize("steps, message", [
        (2, "event log ends after 2 of 3 events"),
        (0, "more than the run's 1 events")])
    def test_the_log_holds_exactly_one_event_more_than_the_steps(
            self, tmp_path, steps, message):
        event_store([sample_event(), sample_event()]).snapshot(tmp_path)
        with pytest.raises(StoreParseError, match=message):
            read_event_history(tmp_path, steps)

    @pytest.mark.parametrize("index, value, message", [
        (0, "1", r"'1\\t.*' is not spelt as hyql writes it: '0\\t"),
        (1, "-5", "timestamp must be >= 0"),
        (2, "90.5", "latitude out of range"),
        (3, "nan", "longitude out of range"),
        (4, "Dance", "bad cognitive kind"),
        (7, "", "invalid literal for int"),
        (8, "0", "calendar entry ends before it starts"),
    ])
    def test_a_bad_field_is_a_parse_error_naming_the_line(self, tmp_path, index, value,
                                                          message):
        event_store([sample_event()]).snapshot(tmp_path)
        path = tmp_path / "history_events.tsv"
        header, line = path.read_text().splitlines()
        fields = line.split("\t")
        fields[index] = value
        path.write_text(f"{header}\n" + "\t".join(fields) + "\n")
        with pytest.raises(StoreParseError, match=message) as info:
            read_event_history(tmp_path, 0)
        assert str(info.value).startswith(f"{path}:2: ")


# every float the line format must carry bit for bit: the range ends, the
# smallest subnormal, and values whose shortest repr needs 17 digits
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 0.1 + 0.2,
               48.850000000000001, 1 / 3]
latitudes = st.floats(-90.0, 90.0) | st.sampled_from([90.0, -90.0] + EDGE_FLOATS)
longitudes = st.floats(-180.0, 180.0) | st.sampled_from([180.0, -180.0] + EDGE_FLOATS)
cognitive_actions = (st.builds(CognitiveAction, st.sampled_from(COGNITIVE_KINDS))
                     | st.builds(CognitiveAction, st.just("Navigate"),
                                 st.integers(0, 999).map("doc{:02d}".format)))
meetings = st.none() | st.integers(0, 10**9).flatmap(lambda start: st.builds(
    CalendarEntry, st.sampled_from(["meeting", "sync", ""]), st.just(start),
    st.integers(start, start + 10**6)))
raw_events = st.builds(RawEvent, st.integers(0, 10**12), st.tuples(latitudes, longitudes),
                       cognitive_actions, meetings)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(events=st.lists(raw_events, min_size=1, max_size=5))
def test_event_lines_read_back_as_equal_events(events):
    with tempfile.TemporaryDirectory() as tmp:
        event_store(events).snapshot(tmp)
        back = read_event_history(tmp, len(events) - 1)
        text = (Path(tmp) / "history_events.tsv").read_text(encoding="utf-8")
    assert back == events
    assert text.splitlines()[1:] == [_event_line(step, event)
                                     for step, event in enumerate(back)]


@pytest.mark.parametrize("record", [
    step_record(3), sample_event(), CognitiveAction("Navigate", "doc03"),
    CalendarEntry("sync", 0, 60), PreferenceRecord("u00", skey(), "doc00", 1.0, 3),
], ids=lambda record: type(record).__name__)
def test_per_step_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
