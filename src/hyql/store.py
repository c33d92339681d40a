"""The shared run database: histories and preferences.

The two histories are append-only in memory; the preference table holds
one record per (user, situation, item), the latest, in the order each key
first arrived. All three snapshot to tab-separated UTF-8 files in a run
directory (history_actions.tsv, history_events.tsv, preferences.tsv); the
experiment's scenario.json defines the users. Each file starts with a `#`
header carrying the schema version and column names. This module is the
only owner of their line formats and of the float format they share
(`fmt_float`); every other module reads a run's action history, the trace,
through `read_action_history`, and gets the preference table's exact text
from `RunStore.preferences_text`.

Snapshots are canonical: the same records always write the same bytes,
and a trace read back and snapshotted again is byte-identical. A snapshot
streams each file line by line through one buffered handle, so it never
holds a whole file's text in memory. Reading is header- and field-checked:
a malformed file raises StoreParseError with its path and line number,
and no partial trace is returned. A trace holds exactly the run's steps,
numbered from 0, one record to a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .context import RawEvent, SituationKey
from .qlearn import StepRecord

SCHEMA_VERSION = 1

_FILES = {
    "actions": ("history_actions.tsv",
                "step\tsituation_key\taction\tbranch\treward\tnext_situation_key"),
    "events": ("history_events.tsv",
               "step\tuser_id\ttimestamp\tlat\tlon\tcognitive_kind\tcognitive_item"
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


def read_action_history(dirpath: str | Path, steps: int) -> list[StepRecord]:
    """The action history of one run of `steps` steps, header-, field- and
    order-checked.

    Any error, from the field count, a field's parse, a reward outside
    [0, 1], a record numbered other than its place in the trace or a trace
    shorter or longer than `steps`, is raised as a StoreParseError naming
    the file and line.
    """
    filename, columns = _FILES["actions"]
    n_fields = columns.count("\t") + 1
    path = Path(dirpath) / filename
    lines = read_run_file(path).splitlines()
    if not lines or not lines[0].startswith(f"# hyql-store v{SCHEMA_VERSION} actions:"):
        raise StoreParseError(path, 1, "missing or wrong schema header")
    trace: list[StepRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise StoreParseError(path, lineno,
                                  f"expected {n_fields} fields, got {len(fields)}")
        try:
            record = _step_from_fields(fields)
        except Exception as exc:
            raise StoreParseError(path, lineno, str(exc)) from exc
        if not 0.0 <= record.r <= 1.0:
            raise StoreParseError(path, lineno, f"reward {record.r!r} outside [0, 1]")
        if record.step != len(trace):
            raise StoreParseError(path, lineno,
                                  f"step {record.step} where step {len(trace)} belongs")
        if record.step == steps:
            raise StoreParseError(path, lineno, f"more than the run's {steps} steps")
        trace.append(record)
    if len(trace) != steps:
        raise StoreParseError(path, len(lines) + 1,
                              f"trace ends after {len(trace)} of {steps} steps")
    return trace


def read_run_file(path: Path) -> str:
    """A run file's text; StoreParseError at line 0 unless it reads as UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StoreParseError(path, 0, "missing store file") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreParseError(path, 0, f"unreadable store file: {exc}") from None


def _file_lines(part: str, lines):
    """The header and then each line, newline-ended."""
    yield f"# hyql-store v{SCHEMA_VERSION} {part}: {_FILES[part][1]}\n"
    for line in lines:
        yield line + "\n"


def _write(directory: Path, part: str, lines) -> None:
    """Stream a file's lines, as `_file_lines` gives them, to one file."""
    with open(directory / _FILES[part][0], "w", encoding="utf-8") as handle:
        handle.writelines(_file_lines(part, lines))


def _step_line(record: StepRecord) -> str:
    return "\t".join((str(record.step), record.s.canonical(), record.a,
                      record.branch, fmt_float(record.r), record.s_next.canonical()))


def _step_from_fields(fields: list[str]) -> StepRecord:
    step, s, a, branch, r, s_next = fields
    return StepRecord(int(step), SituationKey.from_canonical(s), a, branch,
                      float(r), SituationKey.from_canonical(s_next))


def _event_line(step: int, event: RawEvent) -> str:
    lat, lon = event.geo
    label = event.calendar_entry.label if event.calendar_entry else ""
    start = str(event.calendar_entry.start) if event.calendar_entry else ""
    end = str(event.calendar_entry.end) if event.calendar_entry else ""
    return "\t".join((str(step), event.user_id, str(event.timestamp),
                      fmt_float(lat), fmt_float(lon), event.cognitive.kind,
                      event.cognitive.item or "", label, start, end))
