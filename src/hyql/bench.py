"""Experiment runner: seeded variant comparisons, metrics, CSV and plots.

Each trial pairs every agent variant with the same world seed, so all
variants consume the identical event stream and per-step acceptance draws
(paired-seed design). Runs persist their full store (including the action
history, which doubles as the trace) under the output directory; every
metric can be recomputed from those files alone, which is what `verify`
does. Outputs are canonical: rerunning a spec reproduces the CSV and the
traces byte for byte, with or without parallelism. The process pool is
imported only when a run asks for one, so a serial run never loads
`multiprocessing`.

Building an `ExperimentSpec` checks its scenario once, through
`simenv.parse_scenario`; trials and `verify` draw their worlds from that
parsed form and never read the scenario's keys themselves.

A metric that never triggers (a threshold never reached, a recovery that
never happens) is reported with the sentinel value -1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from .agent import Agent, AgentConfig, VARIANTS
from .collab import TransactionStore
from .context import ContextModel, GazetteerError
from .qlearn import EXPLOIT, StepRecord
from .simenv import (Scenario, SimEnv, apply_drift, parse_scenario,
                     world_from_scenario)
from .store import PreferenceRecord, RunStore, fmt_float, read_action_history

METRIC_NAMES = ("CumulativeReward", "StepsToThreshold", "DriftRecoverySteps",
                "BranchHistogram")
NEVER = -1.0

CSV_HEADER = "variant,seed,metric,value,from,to"

_AGENT_STREAM = 99  # agent rng offset below the trial seed base
_SEED_SPREAD = 1_000_003


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


@dataclass
class ExperimentSpec:
    """A validated experiment: every way of building one runs the checks.

    `scenario` is the config as loaded, written back to scenario.json
    unchanged; `parsed` is its checked form, which every trial reads.
    """

    scenario: dict
    variants: list[dict]  # each: {"name": ..., "variant": ..., **agent overrides}
    trials: int
    steps: int
    metrics: tuple[str, ...] = METRIC_NAMES
    base_seed: int = 1000
    threshold_window: int = 50
    threshold_fraction: float = 0.8
    recovery_window: int = 50
    recovery_fraction: float = 0.9
    parsed: Scenario = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.threshold_window < 1 or self.recovery_window < 1:
            raise ConfigError("threshold and recovery windows must be >= 1")
        if not isinstance(self.variants, (list, tuple)) or not all(
                isinstance(v, dict) for v in self.variants):
            raise ConfigError("variants must be a list of objects")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        try:
            self.parsed = parse_scenario(self.scenario, ContextModel.default())
        except (TypeError, ValueError, GazetteerError) as exc:
            raise ConfigError(f"bad scenario: {exc}") from None
        names = [v.get("name") for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("variant names must be unique")
        for v in self.variants:
            if not _is_safe_name(v.get("name")):
                raise ConfigError(f"bad variant name {v.get('name')!r}")
            if v.get("variant") not in VARIANTS:
                raise ConfigError(f"unknown agent variant {v.get('variant')!r}")
            try:
                agent_config_from_variant(v, self.parsed, self.base_seed).learning_params()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"variant {v['name']!r}: {exc}") from None
        if not isinstance(self.metrics, (list, tuple)):
            raise ConfigError("metrics must be a list of metric names")
        for m in self.metrics:
            if m not in METRIC_NAMES:
                raise ConfigError(f"unknown metric {m!r}")
        self.metrics = tuple(self.metrics)

    @classmethod
    def from_dict(cls, raw: dict, scenario: dict) -> "ExperimentSpec":
        """Build from the nested spec.json shape; raw["scenario"] is not read."""
        threshold = raw.get("threshold", {})
        recovery = raw.get("recovery", {})
        try:
            return cls(
                scenario=scenario,
                variants=raw["variants"],
                trials=int(raw["trials"]),
                steps=int(raw["steps"]),
                metrics=raw.get("metrics", METRIC_NAMES),
                base_seed=int(raw.get("base_seed", 1000)),
                threshold_window=int(threshold.get("window", 50)),
                threshold_fraction=float(threshold.get("fraction", 0.8)),
                recovery_window=int(recovery.get("window", 50)),
                recovery_fraction=float(recovery.get("fraction", 0.9)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad experiment spec: {exc}") from exc

    def to_dict(self) -> dict:
        """The nested spec.json shape, without the scenario reference."""
        return {
            "variants": self.variants, "trials": self.trials, "steps": self.steps,
            "metrics": list(self.metrics), "base_seed": self.base_seed,
            "threshold": {"window": self.threshold_window,
                          "fraction": self.threshold_fraction},
            "recovery": {"window": self.recovery_window,
                         "fraction": self.recovery_fraction},
        }

    def seeds(self) -> list[int]:
        return [self.base_seed + t for t in range(self.trials)]


def load_scenario(ref: str | Path) -> dict:
    """Load a scenario config; the name "canonical" resolves to the built-in."""
    if str(ref) == "canonical":
        text = (resources.files("hyql") / "data" / "canonical_scenario.json").read_text("utf-8")
    else:
        path = Path(ref)
        if not path.exists():
            raise ConfigError(f"scenario file not found: {path}")
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    spec_path = Path(path)
    if not spec_path.exists():
        raise ConfigError(f"spec file not found: {spec_path}")
    try:
        raw = json.loads(spec_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec is not valid JSON: {exc}") from exc
    scenario_ref = raw.get("scenario") if isinstance(raw, dict) else None
    if not isinstance(scenario_ref, str):
        raise ConfigError("spec needs a 'scenario' name or path")
    scenario_path = scenario_ref
    if scenario_ref != "canonical" and not Path(scenario_ref).is_absolute():
        scenario_path = spec_path.parent / scenario_ref
    return ExperimentSpec.from_dict(raw, load_scenario(scenario_path))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric_cumulative_reward(trace: Sequence[StepRecord]) -> float:
    if not trace:
        raise ValueError("empty trace")
    return sum(r.r for r in trace)


def _first_window_hit(rewards: Sequence[float], window: int,
                      target: float) -> Optional[int]:
    """First 1-based index whose trailing-window mean reward reaches target."""
    if window < 1:
        raise ValueError("window must be >= 1")
    running = 0.0
    for t, value in enumerate(rewards, start=1):
        running += value
        if t > window:
            running -= rewards[t - window - 1]
        if t >= window and running / window >= target:
            return t
    return None


def metric_steps_to_threshold(trace: Sequence[StepRecord], window: int,
                              threshold: float) -> Optional[int]:
    """First 1-based step whose trailing-window mean reward clears threshold."""
    return _first_window_hit([r.r for r in trace], window, threshold)


def metric_drift_recovery(trace: Sequence[StepRecord], drift_step: int, window: int,
                          fraction_of_post_optimal: float,
                          post_drift_optimal: float) -> Optional[int]:
    """Post-drift steps until the trailing-window mean recovers.

    Counts only steps at indices >= drift_step (the first rewards drawn
    from the drifted world); the target is fraction * post-drift optimal
    expected reward.
    """
    if not 0 <= drift_step < len(trace):
        raise ValueError(f"drift_step {drift_step} outside trace of {len(trace)}")
    return _first_window_hit([r.r for r in trace[drift_step:]], window,
                             fraction_of_post_optimal * post_drift_optimal)


def branch_histogram(trace: Sequence[StepRecord]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in trace:
        counts[record.branch] = counts.get(record.branch, 0) + 1
    return counts


def metric_branch_exploit_fraction(trace: Sequence[StepRecord]) -> float:
    if not trace:
        raise ValueError("empty trace")
    return branch_histogram(trace).get(EXPLOIT, 0) / len(trace)


# ---------------------------------------------------------------------------
# One trial
# ---------------------------------------------------------------------------

@dataclass
class TrialResult:
    trace: list[StepRecord]
    optimal_pre: float
    optimal_post: float
    drift_step: Optional[int]


def agent_config_from_variant(variant: dict, scenario: Scenario, seed: int) -> AgentConfig:
    overrides = {k: v for k, v in variant.items() if k not in ("name",)}
    overrides.setdefault("episode_length", scenario.day_length)
    if "feature_weights" in overrides:
        overrides["feature_weights"] = tuple(overrides["feature_weights"])
    return AgentConfig(user_id=scenario.agent_user,
                       seed=seed * _SEED_SPREAD + _AGENT_STREAM, **overrides)


def run_trial(scenario: Scenario, variant: dict, seed: int, steps: int,
              run_dir: Optional[Path] = None,
              context: Optional[ContextModel] = None) -> TrialResult:
    """Fresh world plus fresh agent, one full run, optional persistence."""
    world = world_from_scenario(scenario, seed, context)
    focal = scenario.agent_user
    cf_store = TransactionStore(world.catalog, world.context)
    background_users = [u.user_id for u in world.users if u.user_id != focal]
    env = SimEnv(world, cf_store, scenario.background_rate, background_users)
    env.background_burst(scenario.warm_start_events)

    config = agent_config_from_variant(variant, scenario, seed)
    agent = Agent(config, world.catalog, world.context,
                  world.user(focal).social_group, cf_store)

    optimal_pre = world.optimal_expected_reward(focal)
    trace = agent.run(env, steps)
    optimal_post = world.optimal_expected_reward(focal)
    drift_steps = [op.step for op in world.drift_schedule if op.applied]
    drift_step = min(drift_steps) if drift_steps else None

    if run_dir is not None:
        _persist_run(run_dir, focal, trace, env)
    return TrialResult(trace, optimal_pre, optimal_post, drift_step)


def _persist_run(run_dir: Path, focal: str, trace: list[StepRecord],
                 env: SimEnv) -> None:
    store = RunStore()
    for step, event in env.event_log:
        store.append_event_history(event, step)
    for record in trace:
        store.append_action_history(record)
        store.upsert_preferences(PreferenceRecord(focal, record.s, record.a,
                                                  record.r, record.step))
    store.snapshot(run_dir)


def read_trace(run_dir: str | Path) -> list[StepRecord]:
    """A run's trace; raises StoreParseError on a malformed history file."""
    return read_action_history(run_dir)


def rows_for_trial(spec: ExperimentSpec, variant_name: str, seed: int,
                   result: TrialResult) -> list[MetricRow]:
    n = len(result.trace)
    rows = []
    for metric in spec.metrics:
        if metric == "CumulativeReward":
            rows.append(MetricRow(variant_name, seed, metric,
                                  metric_cumulative_reward(result.trace), 0, n))
        elif metric == "StepsToThreshold":
            hit = metric_steps_to_threshold(
                result.trace, spec.threshold_window,
                spec.threshold_fraction * result.optimal_pre)
            rows.append(MetricRow(variant_name, seed, metric,
                                  NEVER if hit is None else float(hit), 0, n))
        elif metric == "DriftRecoverySteps":
            if result.drift_step is None:
                rows.append(MetricRow(variant_name, seed, metric, NEVER, 0, n))
            else:
                hit = metric_drift_recovery(result.trace, result.drift_step,
                                            spec.recovery_window,
                                            spec.recovery_fraction,
                                            result.optimal_post)
                rows.append(MetricRow(variant_name, seed, metric,
                                      NEVER if hit is None else float(hit),
                                      result.drift_step, n))
        elif metric == "BranchHistogram":
            rows.append(MetricRow(variant_name, seed, metric,
                                  metric_branch_exploit_fraction(result.trace),
                                  0, n))
    return rows


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def _trial_task(spec: ExperimentSpec, variant: dict, seed: int,
                run_dir: Path) -> list[MetricRow]:
    """One persisted trial and its metric rows, in this or a worker process."""
    result = run_trial(spec.parsed, variant, seed, spec.steps, run_dir)
    return rows_for_trial(spec, variant["name"], seed, result)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   parallel: int = 1) -> list[MetricRow]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.json").write_text(
        json.dumps(spec.scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "spec.json").write_text(
        json.dumps(dict(spec.to_dict(), scenario="scenario.json"), indent=2,
                   sort_keys=True) + "\n", encoding="utf-8")

    tasks = [(variant, seed, out / "runs" / variant["name"] / str(seed))
             for variant in spec.variants for seed in spec.seeds()]
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_trial = list(pool.map(_trial_task, repeat(spec), *zip(*tasks)))
    else:
        per_trial = [_trial_task(spec, *task) for task in tasks]

    rows = sort_rows([row for trial_rows in per_trial for row in trial_rows])
    emit_csv(rows, out / "metrics.csv")
    emit_plot_script(out / "plot_rewards.py")
    return rows


def sort_rows(rows: Sequence[MetricRow]) -> list[MetricRow]:
    return sorted(rows, key=lambda r: (r.variant, r.seed, r.metric))


def csv_text(rows: Sequence[MetricRow]) -> str:
    """metrics.csv's exact contents: header, then the rows in sorted order."""
    if not rows:
        raise ValueError("no rows to emit")
    body = "\n".join(r.to_csv() for r in sort_rows(rows))
    return CSV_HEADER + "\n" + body + "\n"


def emit_csv(rows: Sequence[MetricRow], path: str | Path) -> None:
    Path(path).write_text(csv_text(rows), encoding="utf-8")


def parse_csv(path: str | Path) -> list[MetricRow]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: missing metrics header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        variant, seed, metric, value, w_from, w_to = line.split(",")
        rows.append(MetricRow(variant, int(seed), metric, float(value),
                              int(w_from), int(w_to)))
    return rows


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Reward-vs-step curves per variant, averaged over seeds.

Standalone: run from the experiment output directory (needs matplotlib).
"""

from pathlib import Path

import matplotlib.pyplot as plt

WINDOW = 50
HERE = Path(__file__).parent

curves = {}
for variant_dir in sorted((HERE / "runs").iterdir()):
    seed_curves = []
    for seed_dir in sorted(variant_dir.iterdir(), key=lambda p: int(p.name)):
        lines = (seed_dir / "history_actions.tsv").read_text().splitlines()
        rewards = [float(line.split("\\t")[4]) for line in lines[1:] if line]
        rolling = []
        acc = 0.0
        for i, r in enumerate(rewards):
            acc += r
            if i >= WINDOW:
                acc -= rewards[i - WINDOW]
            rolling.append(acc / min(i + 1, WINDOW))
        seed_curves.append(rolling)
    n = min(len(c) for c in seed_curves)
    curves[variant_dir.name] = [
        sum(c[i] for c in seed_curves) / len(seed_curves) for i in range(n)]

for name, curve in curves.items():
    plt.plot(range(len(curve)), curve, label=name)
plt.xlabel("step")
plt.ylabel(f"mean reward (rolling {WINDOW})")
plt.legend()
plt.tight_layout()
plt.savefig(HERE / "reward_vs_step.png", dpi=150)
print(f"wrote {HERE / 'reward_vs_step.png'}")
'''


def emit_plot_script(path: str | Path) -> None:
    Path(path).write_text(_PLOT_TEMPLATE, encoding="utf-8")


# ---------------------------------------------------------------------------
# verify / report
# ---------------------------------------------------------------------------

def recompute_rows(out_dir: str | Path) -> list[MetricRow]:
    """Rebuild every metric row from the persisted traces and configs."""
    out = Path(out_dir)
    spec = load_experiment_spec(out / "spec.json")
    scenario = spec.parsed
    context = ContextModel.default()
    rows: list[MetricRow] = []
    for variant in spec.variants:
        for seed in spec.seeds():
            run_dir = out / "runs" / variant["name"] / str(seed)
            trace = read_trace(run_dir)
            world = world_from_scenario(scenario, seed, context)
            optimal_pre = world.optimal_expected_reward(scenario.agent_user)
            apply_drift(world, spec.steps - 1)
            optimal_post = world.optimal_expected_reward(scenario.agent_user)
            drift_steps = [op.step for op in world.drift_schedule if op.applied]
            result = TrialResult(trace, optimal_pre, optimal_post,
                                 min(drift_steps) if drift_steps else None)
            rows.extend(rows_for_trial(spec, variant["name"], seed, result))
    return sort_rows(rows)


def verify_dir(out_dir: str | Path) -> list[str]:
    """Recompute metrics from traces; return a list of mismatch messages."""
    out = Path(out_dir)
    recorded = (out / "metrics.csv").read_text(encoding="utf-8")
    expected = csv_text(recompute_rows(out))
    if recorded == expected:
        return []
    mismatches = []
    recorded_lines = recorded.splitlines()
    expected_lines = expected.splitlines()
    for i in range(max(len(recorded_lines), len(expected_lines))):
        got = recorded_lines[i] if i < len(recorded_lines) else "<missing>"
        want = expected_lines[i] if i < len(expected_lines) else "<missing>"
        if got != want:
            mismatches.append(f"line {i + 1}: recorded {got!r} != recomputed {want!r}")
    return mismatches


def report_dir(out_dir: str | Path) -> str:
    """Readable per-variant summary of a finished experiment."""
    rows = parse_csv(Path(out_dir) / "metrics.csv")
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
