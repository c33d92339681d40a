"""Span tracing around the calls into each hyql layer, and per-layer metrics.

`Tracer.install` replaces each function in TARGETS with a wrapper that
records one span per call: name, start, end, parent span, the step it
belongs to and the phase (run or verify). A span belongs to the step most
recently entered in its trial; spans before a trial's first step belong to
its set-up (step -1). Spans stay in compact arrays in memory and are written
out once, by `Tracer.write`. `Tracer.restore` puts every original back.

Functions bound by `from ... import` live in several module namespaces;
install replaces every binding of the original object in every loaded
hyql module, so a call through any of them is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

from measure import percentile

RUN, VERIFY = 0, 1
SETUP_STEP = -1

# (span name, module, attribute): several attributes may share one name.
TARGETS = (
    ("context.aggregate", "hyql.context", "ContextModel.aggregate"),
    ("context.generalize", "hyql.context", "ContextModel.generalize"),
    ("qlearn.greedy_action", "hyql.qlearn", "greedy_action"),
    ("qlearn.epsilon_greedy_action", "hyql.qlearn", "epsilon_greedy_action"),
    ("qlearn.QTable.value", "hyql.qlearn", "QTable.value"),
    ("qlearn.QTable.update", "hyql.qlearn", "QTable.update"),
    ("collab.advise_action", "hyql.collab", "TransactionStore.advise_action"),
    ("collab.top_n", "hyql.collab", "TransactionStore.top_n"),
    ("collab.cosine_similarity", "hyql.collab", "cosine_similarity"),
    ("collab.record_implicit", "hyql.collab", "TransactionStore.record_implicit"),
    ("casebase.retrieve", "hyql.casebase", "CaseBase.retrieve"),
    ("casebase.adapt", "hyql.casebase", "adapt"),
    ("casebase.retain", "hyql.casebase", "CaseBase.retain"),
    ("agent.hybrid_policy", "hyql.agent", "hybrid_policy"),
    ("agent.step", "hyql.agent", "Agent.step"),
    ("agent.end_episode", "hyql.agent", "Agent.end_episode"),
    ("agent.run", "hyql.agent", "Agent.run"),
    ("simenv.SimEnv.step", "hyql.simenv", "SimEnv.step"),
    ("simenv.background_burst", "hyql.simenv", "SimEnv.background_burst"),
    ("simenv.gen_event", "hyql.simenv", "gen_event"),
    ("simenv.reward", "hyql.simenv", "reward"),
    ("simenv.apply_drift", "hyql.simenv", "apply_drift"),
    ("simenv.world_from_scenario", "hyql.simenv", "world_from_scenario"),
    ("store.RunStore.append", "hyql.store", "RunStore.append_action_history"),
    ("store.RunStore.append", "hyql.store", "RunStore.append_event_history"),
    ("store.RunStore.append", "hyql.store", "RunStore.upsert_preferences"),
    ("store.RunStore.snapshot", "hyql.store", "RunStore.snapshot"),
    ("bench.run_trial", "hyql.bench", "run_trial"),
    ("bench.rows_for_trial", "hyql.bench", "rows_for_trial"),
    ("bench.read_trace", "hyql.bench", "read_trace"),
    ("bench.verify_dir", "hyql.bench", "verify_dir"),
)

# Bindings made by `from ... import` that install must reach.
REQUIRED_BINDINGS = (
    ("hyql.qlearn", "greedy_action"), ("hyql.agent", "greedy_action"),
    ("hyql.agent", "hybrid_policy"), ("hyql.agent", "adapt"),
    ("hyql.collab", "cosine_similarity"), ("hyql.simenv", "gen_event"),
    ("hyql.simenv", "reward"), ("hyql.simenv", "apply_drift"),
)

BRANCHES = ("Exploit", "Advise", "RandomFallback")

# name -> unit, in the order the traced run reports them.
PER_LAYER = {
    "context.aggregate.calls_per_step": "calls/step",
    "context.aggregate.self_us_per_step": "us/step",
    "context.generalize.calls_per_step": "calls/step",
    "context.generalize.self_us_per_step": "us/step",
    "qlearn.greedy_action.calls_per_step": "calls/step",
    "qlearn.greedy_action.us_p50": "us",
    "qlearn.QTable.value.calls_per_step": "calls/step",
    "qlearn.QTable.update.self_us_per_step": "us/step",
    "collab.advise_action.calls_per_step": "calls/step",
    "collab.advise_action.us_p50": "us",
    "collab.advise_action.us_p99": "us",
    "collab.advise_action.answered_ratio": "ratio",
    "collab.top_n.calls_per_advise": "calls/advise",
    "collab.cosine_similarity.calls_per_step": "calls/step",
    "collab.cosine_similarity.self_us_per_step": "us/step",
    "collab.record_implicit.calls_per_step": "calls/step",
    "collab.record_implicit.self_us_per_step": "us/step",
    "collab.record_implicit.setup_ms_per_trial": "ms/trial",
    "collab.transactions_at_end": "count",
    "casebase.retrieve.calls": "count",
    "casebase.retrieve.hit_ratio": "ratio",
    "casebase.adapt.calls": "count",
    "casebase.retain.calls_per_episode": "calls/episode",
    "casebase.retain.self_us_per_step": "us/step",
    "agent.step.self_us_per_step": "us/step",
    "agent.end_episode.self_us_per_episode": "us/episode",
    "agent.branch.Exploit.share": "ratio",
    "agent.branch.Advise.share": "ratio",
    "agent.branch.RandomFallback.share": "ratio",
    "simenv.SimEnv.step.self_us_per_step": "us/step",
    "simenv.background_burst.self_us_per_step": "us/step",
    "simenv.gen_event.self_us_per_step": "us/step",
    "simenv.reward.self_us_per_step": "us/step",
    "simenv.apply_drift.self_us_per_step": "us/step",
    "simenv.world_from_scenario.ms_per_trial": "ms/trial",
    "simenv.event_log_at_end": "count",
    "store.RunStore.snapshot.ms_per_trial": "ms/trial",
    "store.RunStore.append.self_us_per_step": "us/step",
    "bench.rows_for_trial.ms_per_trial": "ms/trial",
    "bench.read_trace.ms_per_trial": "ms/trial",
    "bench.verify_dir.s": "s",
    "mem.tracemalloc_peak_mb": "MB",
    "mem.growth_bytes_per_step": "B/step",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module: str, attr: str):
    """(owner, name, original) for a module function or a class method."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _hyql_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyql" or name.startswith("hyql."))]


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("q")
        self.step = array("q")
        self.phase = array("b")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_step = SETUP_STEP
        self.steps_entered = 0
        self.current_phase = RUN
        self.branches = {b: 0 for b in BRANCHES}
        self.advice_answered = 0
        self.retrieve_hits = 0
        self.at_end: list[tuple[int, int]] = []  # (transactions, event log) per trial
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in TARGETS:
            owner, key, original = _resolve(module, attr)
            span_id = self.name_ids.setdefault(name, len(self.name_ids))
            if span_id == len(self.names):
                self.names.append(name)
            wrapper = self._wrap(span_id, name, original)
            if isinstance(owner, type):
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)
                continue
            for mod in _hyql_modules():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        missing = [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
                   if not getattr(getattr(sys.modules[m], a), "__perfbench__", False)]
        if missing:
            raise RuntimeError(f"tracer failed to patch {missing}")

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        left = [f"{m.__name__}.{k}" for m in _hyql_modules()
                for k, v in vars(m).items() if getattr(v, "__perfbench__", False)]
        for _, module, attr in TARGETS:
            owner, key, value = _resolve(module, attr)
            if getattr(value, "__perfbench__", False):
                left.append(f"{module}.{attr}")
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {left}")

    def _wrap(self, span_id: int, name: str, fn):
        tracer = self
        on_enter = {"bench.run_trial": self._enter_trial,
                    "agent.step": self._enter_step}.get(name)
        on_exit = {"agent.step": self._exit_step,
                   "collab.advise_action": self._exit_advise,
                   "casebase.retrieve": self._exit_retrieve,
                   "agent.run": self._exit_run}.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            t = tracer
            index = len(t.start)
            t.span_name.append(span_id)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.step.append(t.current_step)
            t.phase.append(t.current_phase)
            t.end.append(0)
            t.stack.append(index)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[index] = clock()
                t.stack.pop()
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__perfbench__ = True
        return traced

    # -- hooks ----------------------------------------------------------------

    def _enter_trial(self) -> None:
        self.current_step = SETUP_STEP

    def _enter_step(self) -> None:
        self.current_step = self.steps_entered
        self.steps_entered += 1

    def _exit_step(self, args, result) -> None:
        branch = result[0].branch
        self.branches[branch] = self.branches.get(branch, 0) + 1

    def _exit_advise(self, args, result) -> None:
        self.advice_answered += result is not None

    def _exit_retrieve(self, args, result) -> None:
        self.retrieve_hits += result is not None

    def _exit_run(self, args, result) -> None:
        agent, env = args[0], args[1]
        self.at_end.append((len(agent.cf_store), len(env.event_log)))

    # -- output ---------------------------------------------------------------

    def write(self, directory: Path) -> None:
        """Spans as raw arrays in native byte order, plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.span_name, "parent": self.parent, "step": self.step,
                  "phase": self.phase, "start_ns": self.start, "end_ns": self.end}
        for field, values in fields.items():
            with open(directory / f"{field}.bin", "wb") as fh:
                values.tofile(fh)
        index = {"names": self.names, "spans": len(self.start),
                 "types": {f: v.typecode for f, v in fields.items()}}
        (directory / "index.json").write_text(json.dumps(index, indent=1) + "\n",
                                              encoding="utf-8")


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Spans from one thread nest without overlapping, so the children's
    cover is the sum of their durations, clipped to the parent's interval.
    """
    own = array("q", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= min(end[i], end[p]) - max(start[i], start[p])
    return own


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the recorded spans (all but mem.* and trace.*),
    and the number of calls each span recorded."""
    n_names = len(tracer.names)
    calls = [0] * n_names          # run phase, all spans
    step_calls = [0] * n_names     # run phase, spans belonging to a step
    step_self = [0] * n_names
    setup_self = [0] * n_names     # run phase, trial set-up
    run_total = [0] * n_names
    verify_calls = [0] * n_names
    verify_total = [0] * n_names
    durations: dict[int, list[int]] = {tracer.name_ids[n]: [] for n in (
        "qlearn.greedy_action", "collab.advise_action")}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for i, sid in enumerate(tracer.span_name):
        dur = tracer.end[i] - tracer.start[i]
        if tracer.phase[i] == VERIFY:
            verify_calls[sid] += 1
            verify_total[sid] += dur
            continue
        calls[sid] += 1
        run_total[sid] += dur
        if tracer.step[i] == SETUP_STEP:
            setup_self[sid] += selfs[i]
        else:
            step_calls[sid] += 1
            step_self[sid] += selfs[i]
        if sid in durations:
            durations[sid].append(dur)

    ids = tracer.name_ids
    steps = calls[ids["agent.step"]]
    trials = calls[ids["bench.run_trial"]]
    episodes = calls[ids["agent.end_episode"]]
    advises = calls[ids["collab.advise_action"]]
    retrieves = calls[ids["casebase.retrieve"]]
    if not steps or not trials:
        raise RuntimeError("traced run recorded no agent steps")

    def per_step_calls(name):
        return step_calls[ids[name]] / steps

    def self_us_per_step(name):
        return step_self[ids[name]] / steps / 1e3

    def us(name, q):
        try:
            return percentile(durations[ids[name]], q) / 1e3
        except ValueError:
            return 0.0  # too few calls to resolve the percentile

    m = {}
    for name in ("context.aggregate", "context.generalize"):
        m[f"{name}.calls_per_step"] = per_step_calls(name)
        m[f"{name}.self_us_per_step"] = self_us_per_step(name)
    m["qlearn.greedy_action.calls_per_step"] = per_step_calls("qlearn.greedy_action")
    m["qlearn.greedy_action.us_p50"] = us("qlearn.greedy_action", 50)
    m["qlearn.QTable.value.calls_per_step"] = per_step_calls("qlearn.QTable.value")
    m["qlearn.QTable.update.self_us_per_step"] = self_us_per_step("qlearn.QTable.update")
    m["collab.advise_action.calls_per_step"] = per_step_calls("collab.advise_action")
    m["collab.advise_action.us_p50"] = us("collab.advise_action", 50)
    m["collab.advise_action.us_p99"] = us("collab.advise_action", 99)
    m["collab.advise_action.answered_ratio"] = (tracer.advice_answered / advises
                                                if advises else 0.0)
    m["collab.top_n.calls_per_advise"] = (calls[ids["collab.top_n"]] / advises
                                          if advises else 0.0)
    for name in ("collab.cosine_similarity", "collab.record_implicit"):
        m[f"{name}.calls_per_step"] = per_step_calls(name)
        m[f"{name}.self_us_per_step"] = self_us_per_step(name)
    m["collab.record_implicit.setup_ms_per_trial"] = (
        setup_self[ids["collab.record_implicit"]] / trials / 1e6)
    m["collab.transactions_at_end"] = sum(t for t, _ in tracer.at_end) / len(tracer.at_end)
    m["casebase.retrieve.calls"] = retrieves
    m["casebase.retrieve.hit_ratio"] = tracer.retrieve_hits / retrieves if retrieves else 0.0
    m["casebase.adapt.calls"] = calls[ids["casebase.adapt"]]
    m["casebase.retain.calls_per_episode"] = calls[ids["casebase.retain"]] / episodes
    m["casebase.retain.self_us_per_step"] = self_us_per_step("casebase.retain")
    m["agent.step.self_us_per_step"] = self_us_per_step("agent.step")
    m["agent.end_episode.self_us_per_episode"] = (
        step_self[ids["agent.end_episode"]] / episodes / 1e3)
    for branch in BRANCHES:
        m[f"agent.branch.{branch}.share"] = tracer.branches.get(branch, 0) / steps
    for name in ("simenv.SimEnv.step", "simenv.background_burst", "simenv.gen_event",
                 "simenv.reward", "simenv.apply_drift"):
        m[f"{name}.self_us_per_step"] = self_us_per_step(name)
    m["simenv.world_from_scenario.ms_per_trial"] = (
        run_total[ids["simenv.world_from_scenario"]] / trials / 1e6)
    m["simenv.event_log_at_end"] = sum(e for _, e in tracer.at_end) / len(tracer.at_end)
    m["store.RunStore.snapshot.ms_per_trial"] = (
        run_total[ids["store.RunStore.snapshot"]] / trials / 1e6)
    # Persistence runs after a trial's last step, so it belongs to that step.
    m["store.RunStore.append.self_us_per_step"] = self_us_per_step("store.RunStore.append")
    m["bench.rows_for_trial.ms_per_trial"] = (
        run_total[ids["bench.rows_for_trial"]] / trials / 1e6)
    m["bench.read_trace.ms_per_trial"] = verify_total[ids["bench.read_trace"]] / trials / 1e6
    m["bench.verify_dir.s"] = verify_total[ids["bench.verify_dir"]] / 1e9
    return m, {name: calls[i] + verify_calls[i] for i, name in enumerate(tracer.names)}


def check_layers(metrics: dict, calls: dict, workload: dict) -> list[str]:
    """Instrumentation self-check: expected spans fired, exact counts hold."""
    problems = []
    idle = set(workload["idle_spans"])
    for name, n in calls.items():
        if n == 0 and name not in idle:
            problems.append(f"span {name} recorded no calls")
    for name, want in workload["expect"].items():
        if metrics[name] != want:
            problems.append(f"{name} is {metrics[name]!r}, expected exactly {want!r}")
    return problems
