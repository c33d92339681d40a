"""The shared run database: users, histories, preferences.

Everything is append-only in memory and snapshots to four tab-separated
UTF-8 files in a run directory (users.tsv, history_actions.tsv,
history_events.tsv, preferences.tsv). Each file starts with a `#` header
carrying the schema version and column names. This module is the only
owner of their line formats: every other module reads a run's files
through `RunStore.load` or `read_action_history`.

Snapshots are canonical: snapshot -> load -> snapshot is byte-identical.
Reading is header- and field-checked: a malformed file raises
StoreParseError with its path and line number, and no partial store is
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .context import CalendarEntry, CognitiveAction, RawEvent, SituationKey
from .qlearn import StepRecord
from .serde import fmt_float

SCHEMA_VERSION = 1

_FILES = {
    "users": ("users.tsv", "user_id\tlogin\tsocial_group"),
    "actions": ("history_actions.tsv",
                "step\tsituation_key\taction\tbranch\treward\tnext_situation_key"),
    "events": ("history_events.tsv",
               "step\tuser_id\ttimestamp\tlat\tlon\tcognitive_kind\tcognitive_item"
               "\tcalendar_label\tcalendar_start\tcalendar_end"),
    "preferences": ("preferences.tsv", "user_id\tsituation_key\taction\treward\tstep"),
}


class OrderingError(Exception):
    """An append whose step went backwards."""


class StoreParseError(Exception):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    login: str
    social_group: str

    def __post_init__(self):
        if not self.login:
            raise ValueError("login must be non-empty")


@dataclass(frozen=True)
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
        self.users: list[UserRecord] = []
        self.action_history: list[StepRecord] = []
        self.event_history: list[tuple[int, RawEvent]] = []
        self.preferences: list[PreferenceRecord] = []
        self._user_ids: set[str] = set()

    def add_user(self, record: UserRecord) -> None:
        if record.user_id in self._user_ids:
            raise ValueError(f"duplicate user id {record.user_id!r}")
        self._user_ids.add(record.user_id)
        self.users.append(record)

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
        self.preferences.append(record)

    # -- snapshot / load --------------------------------------------------------

    def snapshot(self, dirpath: str | Path) -> None:
        directory = Path(dirpath)
        directory.mkdir(parents=True, exist_ok=True)
        _write(directory, "users",
               (f"{u.user_id}\t{u.login}\t{u.social_group}" for u in self.users))
        _write(directory, "actions", (_step_line(r) for r in self.action_history))
        _write(directory, "events",
               (_event_line(step, e) for step, e in self.event_history))
        _write(directory, "preferences",
               (f"{p.user_id}\t{p.situation.canonical()}\t{p.action}"
                f"\t{fmt_float(p.reward)}\t{p.step}" for p in self.preferences))

    @classmethod
    def load(cls, dirpath: str | Path) -> "RunStore":
        directory = Path(dirpath)
        store = cls()
        _read(directory, "users", lambda f: store.add_user(UserRecord(*f)))
        _read(directory, "actions",
              lambda f: store.append_action_history(_step_from_fields(f)))
        _read(directory, "events", lambda f: store.append_event_history(
            _event_from_fields(f[1:]), int(f[0])))
        _read(directory, "preferences", lambda f: store.upsert_preferences(
            PreferenceRecord(f[0], SituationKey.from_canonical(f[1]), f[2],
                             float(f[3]), int(f[4]))))
        return store


def read_action_history(dirpath: str | Path) -> list[StepRecord]:
    """The action history of one run directory, checked as `RunStore.load` does."""
    store = RunStore()
    _read(Path(dirpath), "actions",
          lambda f: store.append_action_history(_step_from_fields(f)))
    return store.action_history


def _write(directory: Path, part: str, lines) -> None:
    filename, columns = _FILES[part]
    body = "\n".join(lines)
    header = f"# hyql-store v{SCHEMA_VERSION} {part}: {columns}"
    (directory / filename).write_text(
        header + ("\n" + body if body else "") + "\n", encoding="utf-8")


def _read(directory: Path, part: str, add) -> None:
    """Check the header, then pass each line's fields to `add`.

    Any error, from the field count or from `add`, is raised as a
    StoreParseError naming the file and line.
    """
    filename, columns = _FILES[part]
    n_fields = columns.count("\t") + 1
    path = directory / filename
    if not path.exists():
        raise StoreParseError(path, 0, "missing store file")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(f"# hyql-store v{SCHEMA_VERSION} {part}:"):
        raise StoreParseError(path, 1, "missing or wrong schema header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise StoreParseError(path, lineno,
                                  f"expected {n_fields} fields, got {len(fields)}")
        try:
            add(fields)
        except Exception as exc:
            raise StoreParseError(path, lineno, str(exc)) from exc


def _step_line(record: StepRecord) -> str:
    return "\t".join((str(record.step), record.s.canonical(), record.a,
                      record.branch, fmt_float(record.r), record.s_next.canonical()))


def _step_from_fields(fields: list[str]) -> StepRecord:
    step, s, a, branch, r, s_next = fields
    return StepRecord(int(step), SituationKey.from_canonical(s), a, branch,
                      float(r), SituationKey.from_canonical(s_next))


def _event_line(step: int, event: RawEvent) -> str:
    lat = fmt_float(event.geo[0]) if event.geo else ""
    lon = fmt_float(event.geo[1]) if event.geo else ""
    kind = event.cognitive.kind if event.cognitive else ""
    item = (event.cognitive.item or "") if event.cognitive else ""
    label = event.calendar_entry.label if event.calendar_entry else ""
    start = str(event.calendar_entry.start) if event.calendar_entry else ""
    end = str(event.calendar_entry.end) if event.calendar_entry else ""
    return "\t".join((str(step), event.user_id, str(event.timestamp),
                      lat, lon, kind, item, label, start, end))


def _event_from_fields(fields: list[str]) -> RawEvent:
    user_id, timestamp, lat, lon, kind, item, label, start, end = fields
    geo = (float(lat), float(lon)) if lat else None
    cognitive = CognitiveAction(kind, item or None) if kind else None
    calendar = CalendarEntry(label, int(start), int(end)) if label else None
    return RawEvent(user_id, int(timestamp), geo, cognitive, calendar)
