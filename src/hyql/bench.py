"""Experiment runner: seeded variant comparisons, their metrics and CSV.

Each trial pairs every agent variant with the same world seed, so all
variants consume the identical event stream and per-step acceptance draws
(paired-seed design). Runs persist their full store (including the action
history, which doubles as the trace) under the output directory; every
metric, and each run's preference table (the focal user's last reward and
step per situation and item), can be recomputed from those files alone,
which is what `verify` does. `verify` reads each trace against its run's
event log: a trace line's step and situation columns are rendered and
compared, never parsed, the step from the line's place and the situation
from the step's logged event, aggregated. So a trace situation edited to
another valid key fails, and no key is ever built from a trace's text.
The event log itself must be the one the seed gives (`simenv.focal_events`,
since no event reads an action), and every trace action an item of the
scenario's catalog.
Outputs are canonical: rerunning a spec reproduces the CSV and the traces
byte for byte, with or without parallelism. `--parallel K` starts at most
min(K, trials, CPUs) workers, and the process pool is imported only when
that is more than one, so a serial run never loads `multiprocessing`.

A spec file holds exactly five keys: `scenario` (a name or a path),
`variants` (a list of `{"name", "variant"}` objects), `trials`, `steps` and
an optional `base_seed` (1000 by default). `load_experiment_spec` is the
one way to build an `ExperimentSpec`: it rejects any other key, at the top
level or in a variant, and a count that is not a JSON integer, before a run
writes anything. It checks the scenario once, through
`simenv.parse_scenario`; trials and `verify` draw their worlds from that
parsed form, never reading the scenario's keys again. A bad spec, scenario
file or output directory is a `ConfigError`; a run file `verify` or
`report` cannot read or parse raises `StoreParseError` with its path and
line.

Every trial yields four metrics, all from its list of rewards and branch
tags: CumulativeReward sums the rewards; StepsToThreshold is the first step
whose trailing 50-step mean reward reaches 0.8 of the focal user's optimal
expected reward; DriftRecoverySteps counts the post-drift steps until that
mean reaches 0.9 of the same optimum (a drift permutes rows, swapping a best
and a worst item, so the optimum after it equals the one before it);
BranchHistogram is the share of steps the greedy branch chose. A metric
that never triggers is reported with the sentinel value -1. Both `run_trial`
and `verify` take a trial's drift step from the scenario: the first drift
op a run of its length applies. `verify` draws one world per seed and reads
its optimum for every variant, without applying a drift.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from .agent import Agent, AgentConfig, VARIANTS
from .collab import TransactionStore
from .context import CONTEXT, SituationKey
from .qlearn import EXPLOIT, StepRecord
from .simenv import (SEED_SPREAD, Scenario, SimEnv, check_keys, focal_events,
                     json_int, json_list, parse_scenario, world_from_scenario)
from .store import (PreferenceRecord, RunStore, StoreParseError, fmt_float,
                    read_action_history, read_event_history, read_run_file)

NEVER = -1.0
THRESHOLD_WINDOW, THRESHOLD_FRACTION = 50, 0.8
RECOVERY_WINDOW, RECOVERY_FRACTION = 50, 0.9

SPEC_KEYS = frozenset({"scenario", "variants", "trials", "steps", "base_seed"})
VARIANT_KEYS = frozenset({"name", "variant"})
DEFAULT_BASE_SEED = 1000

CSV_HEADER = "variant,seed,metric,value,from,to"

_AGENT_STREAM = 99  # agent rng offset below the trial seed base


class ConfigError(Exception):
    """A spec or scenario file the runner cannot act on."""


def _is_safe_name(name) -> bool:
    """A variant name is a CSV field and a directory under the run's output."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and not any(c in name for c in ",/\\\t\n\r"))


@dataclass(frozen=True)
class MetricRow:
    variant: str
    seed: int
    metric: str
    value: float
    window_from: int
    window_to: int

    def to_csv(self) -> str:
        return (f"{self.variant},{self.seed},{self.metric},{fmt_float(self.value)},"
                f"{self.window_from},{self.window_to}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A checked experiment, as `load_experiment_spec` builds it.

    `scenario` is the config as loaded, written back to scenario.json
    unchanged; `parsed` is its checked form, which every trial reads.
    """

    scenario: dict
    variants: list[dict]  # each exactly {"name": ..., "variant": ...}
    trials: int
    steps: int
    base_seed: int
    parsed: Scenario = field(repr=False, compare=False)

    def to_dict(self, scenario_ref: str) -> dict:
        """The spec.json shape: the five keys, the scenario by reference."""
        return {"scenario": scenario_ref, "variants": self.variants,
                "trials": self.trials, "steps": self.steps,
                "base_seed": self.base_seed}

    def seeds(self) -> list[int]:
        return [self.base_seed + t for t in range(self.trials)]


def _read_json(path: Path, what: str):
    """A spec or scenario file's JSON; ConfigError unless it reads as UTF-8 JSON."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a decode error, an int past 4300 digits
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def load_scenario(ref: str | Path) -> dict:
    """Load a scenario config; the name "canonical" resolves to the built-in."""
    if str(ref) == "canonical":
        return json.loads(
            (resources.files("hyql") / "data" / "canonical_scenario.json").read_text("utf-8"))
    return _read_json(Path(ref), "scenario")


def _check_variants(value) -> list[dict]:
    """A non-empty list of uniquely named `{"name", "variant"}` objects."""
    variants = json_list(value, "variants")
    if not variants:
        raise ValueError("at least one variant is required")
    for v in variants:
        check_keys(v, VARIANT_KEYS, VARIANT_KEYS, "variant")
        if not _is_safe_name(v["name"]):
            raise ValueError(f"bad variant name {v['name']!r}")
        if v["variant"] not in VARIANTS:
            raise ValueError(f"unknown agent variant {v['variant']!r}")
    if len({v["name"] for v in variants}) != len(variants):
        raise ValueError("variant names must be unique")
    return variants


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read and check a spec file; the one way to build an ExperimentSpec.

    A relative scenario path is taken from the spec file's directory.
    """
    spec_path = Path(path)
    raw = _read_json(spec_path, "spec")
    try:
        check_keys(raw, SPEC_KEYS - {"base_seed"}, SPEC_KEYS, "spec")
        if not isinstance(raw["scenario"], str):
            raise ValueError("scenario must be a name or a path")
        variants = _check_variants(raw["variants"])
        trials = json_int(raw, "trials", 1)
        steps = json_int(raw, "steps", 1)
        base_seed = json_int(raw, "base_seed", None, DEFAULT_BASE_SEED)
    except ValueError as exc:
        raise ConfigError(f"bad experiment spec: {exc}") from None
    scenario_path = raw["scenario"]
    if scenario_path != "canonical" and not Path(scenario_path).is_absolute():
        scenario_path = spec_path.parent / scenario_path
    scenario = load_scenario(scenario_path)
    try:
        parsed = parse_scenario(scenario)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from None
    return ExperimentSpec(scenario, variants, trials, steps, base_seed, parsed)


# ---------------------------------------------------------------------------
# One trial
# ---------------------------------------------------------------------------

def _first_window_hit(rewards: Sequence[float], window: int,
                      target: float) -> Optional[int]:
    """First 1-based index whose trailing-window mean reward reaches target."""
    running = 0.0
    for t, value in enumerate(rewards, start=1):
        running += value
        if t > window:
            running -= rewards[t - window - 1]
        if t >= window and running / window >= target:
            return t
    return None


def _drift_step(scenario: Scenario, steps: int) -> Optional[int]:
    """The step of the first drift op a run of `steps` steps applies, if any."""
    return min((op.step for op in scenario.drift if op.step < steps), default=None)


@dataclass
class TrialResult:
    trace: list[StepRecord]
    optimal: float  # the focal user's optimal expected reward, before and after drift
    drift_step: Optional[int]


def run_trial(scenario: Scenario, variant: dict, seed: int, steps: int,
              run_dir: Optional[Path] = None) -> TrialResult:
    """Fresh world plus fresh agent, one full run, optional persistence."""
    world = world_from_scenario(scenario, seed)
    focal = scenario.agent_user
    cf_store = TransactionStore(len(scenario.items))
    env = SimEnv(world, cf_store)
    env.background_burst(scenario.warm_start_events)

    config = AgentConfig(variant["variant"], focal, scenario.day_length,
                         seed * SEED_SPREAD + _AGENT_STREAM)
    agent = Agent(config, scenario.items, scenario.user(focal).social_group, cf_store)

    optimal = world.optimal_expected_reward(focal)
    trace = agent.run(env, steps)
    if run_dir is not None:
        _persist_run(run_dir, focal, trace, env)
    return TrialResult(trace, optimal, _drift_step(scenario, steps))


def _persist_run(run_dir: Path, focal: str, trace: list[StepRecord],
                 env: SimEnv) -> None:
    store = _preference_store(focal, trace)
    for step, event in env.event_log:
        store.append_event_history(event, step)
    for record in trace:
        store.append_action_history(record)
    store.snapshot(run_dir)


def _preference_store(focal: str, trace: list[StepRecord]) -> RunStore:
    """A store holding the focal user's preference table for `trace`."""
    store = RunStore()
    for record in trace:
        store.upsert_preferences(PreferenceRecord(focal, record.s, record.a,
                                                  record.r, record.step))
    return store


def read_trace(run_dir: str | Path, situations: Sequence[SituationKey]) -> list[StepRecord]:
    """A run's trace, one record per step's situation; raises StoreParseError
    on a malformed or incomplete history file, or a line other than the one
    hyql writes for that step and situation."""
    return read_action_history(run_dir, situations)


def rows_for_trial(variant_name: str, seed: int,
                   result: TrialResult) -> list[MetricRow]:
    """The trial's four metric rows, at the fixed windows, over one reward list.

    DriftRecoverySteps counts only the rewards from the drift step on, the
    first ones drawn from the drifted world.
    """
    rewards = [record.r for record in result.trace]
    n = len(rewards)
    if not n:
        raise ValueError("empty trace")
    drift = result.drift_step

    def row(metric: str, value: Optional[float], window_from: int = 0) -> MetricRow:
        return MetricRow(variant_name, seed, metric,
                         NEVER if value is None else float(value), window_from, n)

    recovery = None if drift is None else _first_window_hit(
        rewards[drift:], RECOVERY_WINDOW, RECOVERY_FRACTION * result.optimal)
    exploits = sum(record.branch == EXPLOIT for record in result.trace)
    return [row("CumulativeReward", sum(rewards)),
            row("StepsToThreshold", _first_window_hit(
                rewards, THRESHOLD_WINDOW, THRESHOLD_FRACTION * result.optimal)),
            row("DriftRecoverySteps", recovery, drift or 0),
            row("BranchHistogram", exploits / n)]


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def _trial_task(spec: ExperimentSpec, variant: dict, seed: int,
                run_dir: Path) -> list[MetricRow]:
    """One persisted trial and its metric rows, in this or a worker process."""
    result = run_trial(spec.parsed, variant, seed, spec.steps, run_dir)
    return rows_for_trial(variant["name"], seed, result)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   parallel: int = 1) -> list[MetricRow]:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    (out / "scenario.json").write_text(
        json.dumps(spec.scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "spec.json").write_text(
        json.dumps(spec.to_dict("scenario.json"), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    tasks = [(variant, seed, out / "runs" / variant["name"] / str(seed))
             for variant in spec.variants for seed in spec.seeds()]
    # a process pool forks all its workers at the first submit
    workers = min(parallel, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_trial_task, repeat(spec), *zip(*tasks)))
    else:
        per_trial = [_trial_task(spec, *task) for task in tasks]

    rows = [row for trial_rows in per_trial for row in trial_rows]
    (out / "metrics.csv").write_text(csv_text(rows), encoding="utf-8")
    return rows


def csv_text(rows: Sequence[MetricRow]) -> str:
    """metrics.csv's exact contents: header, then rows by variant, seed, metric."""
    if not rows:
        raise ValueError("no rows to emit")
    body = "\n".join(r.to_csv() for r in sorted(
        rows, key=lambda r: (r.variant, r.seed, r.metric)))
    return CSV_HEADER + "\n" + body + "\n"


def parse_csv(path: str | Path) -> list[MetricRow]:
    """metrics.csv's rows; StoreParseError names the line of a bad header,
    field count or field."""
    lines = read_run_file(Path(path)).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise StoreParseError(path, 1, "missing metrics header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            variant, seed, metric, value, w_from, w_to = line.split(",")
            rows.append(MetricRow(variant, int(seed), metric, float(value),
                                  int(w_from), int(w_to)))
        except ValueError as exc:  # a field count or a field that does not parse
            raise StoreParseError(path, lineno, str(exc)) from None
    return rows


# ---------------------------------------------------------------------------
# verify / report
# ---------------------------------------------------------------------------

def recompute_runs(out_dir: str | Path) -> tuple[list[MetricRow], list[str]]:
    """Rebuild every metric row and preference table from the persisted
    traces and configs, reading each trace and event log once.

    A trace is read against the situations its event log aggregates to, one
    per step, so a trace line whose situation does not follow from its
    step's event raises StoreParseError naming that line, as does a trace
    action outside the scenario's catalog. Returns the rows, and one message
    for each run whose event log is not the one its seed gives, naming its
    first differing line, and one for each run whose preferences.tsv differs
    from the table its trace gives, naming the file and the first line that
    differs.
    """
    out = Path(out_dir)
    spec = load_experiment_spec(out / "spec.json")
    scenario = spec.parsed
    focal = scenario.agent_user
    group = scenario.user(focal).social_group
    catalog = set(scenario.items)
    drift_step = _drift_step(scenario, spec.steps)
    rows: list[MetricRow] = []
    stale: list[str] = []
    for seed in spec.seeds():
        world = world_from_scenario(scenario, seed)
        optimal = world.optimal_expected_reward(focal)
        seed_events = focal_events(world, spec.steps + 1)
        for variant in spec.variants:
            run_dir = out / "runs" / variant["name"] / str(seed)
            events = read_event_history(run_dir, spec.steps)
            trace = read_trace(run_dir, [CONTEXT.aggregate(event, group)
                                         for event in events[:-1]])
            for record in trace:
                if record.a not in catalog:
                    raise StoreParseError(run_dir / "history_actions.tsv", record.step + 2,
                                          f"action {record.a!r} is not in the "
                                          f"scenario's catalog")
            rows.extend(rows_for_trial(variant["name"], seed,
                                       TrialResult(trace, optimal, drift_step)))
            if events != seed_events:
                step = next(i for i, pair in enumerate(zip(events, seed_events))
                            if pair[0] != pair[1])
                stale.append(f"{run_dir / 'history_events.tsv'}:{step + 2}: event "
                             f"{step} is not the one seed {seed} gives")
            path = run_dir / "preferences.tsv"
            recorded = read_run_file(path)
            expected = _preference_store(focal, trace).preferences_text()
            if recorded != expected:  # then some line, with its ending, differs
                lineno, got, want = next(_differing_lines(recorded, expected))
                stale.append(f"{path}:{lineno}: file has {got!r}, its trace gives {want!r}")
    return rows, stale


def _differing_lines(recorded: str, expected: str):
    """(line number, recorded line, expected line), each line with its
    ending, at each line where two texts differ; "<missing>" stands for a
    line past a text's end."""
    recorded_lines = recorded.splitlines(keepends=True)
    expected_lines = expected.splitlines(keepends=True)
    for i in range(max(len(recorded_lines), len(expected_lines))):
        got = recorded_lines[i] if i < len(recorded_lines) else "<missing>"
        want = expected_lines[i] if i < len(expected_lines) else "<missing>"
        if got != want:
            yield i + 1, got, want


def _metrics_path(out_dir: str | Path) -> Path:
    """The metrics.csv of an output directory, which must exist."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ConfigError(f"output directory not found: {out}")
    return out / "metrics.csv"


def verify_dir(out_dir: str | Path) -> list[str]:
    """Recompute metrics and preference tables from the traces, each read
    against its event log; return a list of mismatch messages, metrics.csv's
    lines first. metrics.csv must match byte for byte, line endings too."""
    recorded = read_run_file(_metrics_path(out_dir))
    rows, stale = recompute_runs(out_dir)
    return [f"line {lineno}: recorded {got!r} != recomputed {want!r}"
            for lineno, got, want in _differing_lines(recorded, csv_text(rows))] + stale


def report_dir(out_dir: str | Path) -> str:
    """Readable per-variant summary of a finished experiment."""
    rows = parse_csv(_metrics_path(out_dir))
    by_key: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        by_key.setdefault((row.variant, row.metric), []).append(row.value)
    lines = [f"{'variant':<20} {'metric':<20} {'mean':>12} {'min':>12} {'max':>12} {'n':>4}"]
    for (variant, metric), values in sorted(by_key.items()):
        triggered = [v for v in values if v != NEVER]
        mean = sum(triggered) / len(triggered) if triggered else NEVER
        lines.append(f"{variant:<20} {metric:<20} {mean:>12.4f} "
                     f"{min(values):>12.4f} {max(values):>12.4f} {len(values):>4}")
        if len(triggered) != len(values):
            lines.append(f"{'':<20} {'':<20} ({len(values) - len(triggered)} of "
                         f"{len(values)} runs never triggered)")
    return "\n".join(lines)
