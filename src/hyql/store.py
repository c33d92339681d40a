"""The shared run database: histories and preferences.

The two histories are append-only in memory; the preference table holds
one record per (user, situation, item), the latest, in the order each key
first arrived. All three snapshot to tab-separated UTF-8 files in a run
directory; the experiment's scenario.json defines the users. Each file
starts with a `#` header carrying the schema version and column names,
then holds one record to a line. Schema v2 states each fact once:

- history_actions.tsv: `step, situation_key, action, branch, reward`, one
  line per agent step, numbered from 0. The step's next situation s' is
  the next line's situation_key; the last step's s' is the situation of
  the last event.
- history_events.tsv: `step, timestamp, lat, lon, cognitive_kind,
  cognitive_item, calendar_label, calendar_start, calendar_end`, one line
  per observed event, steps 0 to the run's step count; a step's event is
  the one its situation aggregates. An empty item or calendar is absent.
  Every event is the focal user's, whom scenario.json names as
  `agent_user`, so no line names a user.
- preferences.tsv: `user_id, situation_key, action, last_reward,
  last_step`.

This module is the only owner of these line formats and of the float
format they share (`fmt_float`); every other module reads a run's action
history, the trace, through `read_action_history`, its event log through
`read_event_history`, and gets the preference table's exact text from
`RunStore.preferences_text`.

Snapshots are canonical: the same records always write the same bytes,
and a trace read back and snapshotted again is byte-identical. A snapshot
streams each file line by line through one buffered handle, so it never
holds a whole file's text in memory. Reading is header- and field-checked:
a malformed file, or one written under another schema version, raises
StoreParseError with its path and line number, and no partial history is
returned. A run file is read as it is on disk, line endings included, and
a history file reads back only as the exact line `snapshot` writes at each
place. The step and situation columns are rendered and compared, never
parsed: a line's step is its place in the file, and a trace line's
situation is the one the reader is given for that step. The other fields
are parsed, the record is rendered again through the writer's own line
format, and the first line that differs, such as a step `0_0` or one out of
order, another situation, a reward ` +0.000 `, a timestamp `+22500`, a
float with trailing zeros, a blank line, a `\r\n` ending or a last line
without its newline, raises StoreParseError. A trace branch must be one of
the four tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .context import CalendarEntry, CognitiveAction, RawEvent, SituationKey
from .qlearn import BRANCHES, StepRecord

SCHEMA_VERSION = 2

_FILES = {
    "actions": ("history_actions.tsv", "step\tsituation_key\taction\tbranch\treward"),
    "events": ("history_events.tsv",
               "step\ttimestamp\tlat\tlon\tcognitive_kind\tcognitive_item"
               "\tcalendar_label\tcalendar_start\tcalendar_end"),
    "preferences": ("preferences.tsv",
                    "user_id\tsituation_key\taction\tlast_reward\tlast_step"),
}


def fmt_float(value: float) -> str:
    """17 significant digits: enough for a bit-faithful double round-trip."""
    return format(float(value), ".17g")


class OrderingError(Exception):
    """An append or upsert whose step went backwards."""


class StoreParseError(Exception):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")


@dataclass(frozen=True, slots=True)
class PreferenceRecord:
    user_id: str
    situation: SituationKey
    action: str
    reward: float
    step: int

    def __post_init__(self):
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError("reward must be in [0, 1]")


class RunStore:
    """Single-writer store for one simulation run."""

    def __init__(self):
        self.action_history: list[StepRecord] = []
        self.event_history: list[tuple[int, RawEvent]] = []
        # the latest record per (user, situation, item), in first-seen order
        self.preferences: dict[tuple[str, SituationKey, str], PreferenceRecord] = {}

    def append_action_history(self, record: StepRecord) -> None:
        if self.action_history and record.step < self.action_history[-1].step:
            raise OrderingError(
                f"action step {record.step} < last {self.action_history[-1].step}")
        self.action_history.append(record)

    def append_event_history(self, event: RawEvent, step: int) -> None:
        if self.event_history and step < self.event_history[-1][0]:
            raise OrderingError(
                f"event step {step} < last {self.event_history[-1][0]}")
        self.event_history.append((step, event))

    def upsert_preferences(self, record: PreferenceRecord) -> None:
        """Replace the record of the same (user, situation, item), keeping its
        place, or add the key last."""
        key = (record.user_id, record.situation, record.action)
        last = self.preferences.get(key)
        if last is not None and record.step < last.step:
            raise OrderingError(f"preference step {record.step} < last {last.step}")
        self.preferences[key] = record

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self, dirpath: str | Path) -> None:
        directory = Path(dirpath)
        directory.mkdir(parents=True, exist_ok=True)
        _write(directory, "actions", (_step_line(r) for r in self.action_history))
        _write(directory, "events",
               (_event_line(step, e) for step, e in self.event_history))
        _write(directory, "preferences", self._preference_lines())

    def preferences_text(self) -> str:
        """preferences.tsv's exact contents, as `snapshot` writes them."""
        return "".join(_file_lines("preferences", self._preference_lines()))

    def _preference_lines(self):
        return (f"{p.user_id}\t{p.situation.canonical()}\t{p.action}"
                f"\t{fmt_float(p.reward)}\t{p.step}" for p in self.preferences.values())


def read_action_history(dirpath: str | Path,
                        situations: Sequence[SituationKey]) -> list[StepRecord]:
    """The action history of a run whose step n is in situation
    `situations[n]`, one record per situation, header- and field-checked.

    Only a line's action, branch and reward are parsed: its step and
    situation columns are rendered, the step from the line's place in the
    trace and the situation from `situations`, and the line must be the one
    `snapshot` writes from them. Any error, from the field count, the
    reward's parse, a reward outside [0, 1], a branch outside the four tags,
    a line other than the one hyql writes at its place (another step, another
    situation, another spelling) or a trace shorter or longer than
    `situations`, is raised as a StoreParseError naming the file and line.
    """
    def parse(step: int, fields: list[str]) -> StepRecord:
        _, _, action, branch, reward = fields
        r = float(reward)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reward {r!r} outside [0, 1]")
        if branch not in BRANCHES:
            raise ValueError(f"branch {branch!r} is none of {', '.join(BRANCHES)}")
        return StepRecord(step, situations[step], action, branch, r)

    return _read_history(dirpath, "actions", parse, lambda step, record: _step_line(record),
                         len(situations), "trace", "step")


def read_event_history(dirpath: str | Path, steps: int) -> list[RawEvent]:
    """The event log of one run of `steps` steps: the focal user's events at
    steps 0 to `steps`, in order, the last one the last step's next event.

    Checked as `read_action_history` checks a trace, the step column
    rendered from the line's place; an event that `RawEvent`,
    `CognitiveAction` or `CalendarEntry` rejects, such as a latitude outside
    [-90, 90] or a meeting that ends before it starts, is a StoreParseError
    too.
    """
    return _read_history(dirpath, "events", _event_from_fields, _event_line, steps + 1,
                         "event log", "event")


def _read_history(dirpath: str | Path, part: str, parse, render, count: int,
                  name: str, unit: str) -> list:
    """The `count` records of a history file, the record of line n + 2 at
    step n: `parse(step, fields)` turns a line's fields into its record, or
    raises ValueError, and `render(step, record)` must give the line back
    exactly. `name` and `unit` word the messages: "trace" and "step"."""
    filename, columns = _FILES[part]
    n_fields = columns.count("\t") + 1
    path = Path(dirpath) / filename
    lines = read_run_file(path).split("\n")
    unterminated = lines.pop()  # "" after a file's last newline
    if not lines or lines[0] != _header(part):
        raise StoreParseError(path, 1, f"missing or wrong schema header, "
                                       f"expected v{SCHEMA_VERSION} {part}")
    if unterminated:
        raise StoreParseError(path, len(lines) + 1, "last line has no newline")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise StoreParseError(path, lineno,
                                  f"expected {n_fields} fields, got {len(fields)}")
        step = len(records)
        if step == count:
            raise StoreParseError(path, lineno, f"more than the run's {count} {unit}s")
        try:
            record = parse(step, fields)
        except ValueError as exc:
            raise StoreParseError(path, lineno, str(exc)) from exc
        written = render(step, record)
        if line != written:
            raise StoreParseError(path, lineno, f"{line!r} is not spelt as hyql writes "
                                                f"it: {written!r}")
        records.append(record)
    if len(records) != count:
        raise StoreParseError(path, len(lines) + 1,
                              f"{name} ends after {len(records)} of {count} {unit}s")
    return records


def read_run_file(path: Path) -> str:
    """A run file's text, line endings as written; StoreParseError at line 0
    unless it reads as UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise StoreParseError(path, 0, "missing store file") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreParseError(path, 0, f"unreadable store file: {exc}") from None


def _header(part: str) -> str:
    return f"# hyql-store v{SCHEMA_VERSION} {part}: {_FILES[part][1]}"


def _file_lines(part: str, lines):
    """The header and then each line, newline-ended."""
    yield _header(part) + "\n"
    for line in lines:
        yield line + "\n"


def _write(directory: Path, part: str, lines) -> None:
    """Stream a file's lines, as `_file_lines` gives them, to one file."""
    with open(directory / _FILES[part][0], "w", encoding="utf-8") as handle:
        handle.writelines(_file_lines(part, lines))


def _step_line(record: StepRecord) -> str:
    return "\t".join((str(record.step), record.s.canonical(), record.a,
                      record.branch, fmt_float(record.r)))


def _event_line(step: int, event: RawEvent) -> str:
    lat, lon = event.geo
    entry = event.calendar_entry
    return "\t".join((str(step), str(event.timestamp), fmt_float(lat), fmt_float(lon),
                      event.cognitive.kind, event.cognitive.item or "",
                      entry.label if entry else "", str(entry.start) if entry else "",
                      str(entry.end) if entry else ""))


def _event_from_fields(step: int, fields: list[str]) -> RawEvent:
    """The event of an event line, its step column aside: an empty item is
    none, and a line whose three calendar fields are all empty has no
    calendar entry."""
    _, timestamp, lat, lon, kind, item, label, start, end = fields
    entry = (None if label == start == end == ""
             else CalendarEntry(label, int(start), int(end)))
    return RawEvent(int(timestamp), (float(lat), float(lon)),
                    CognitiveAction(kind, item or None), entry)
