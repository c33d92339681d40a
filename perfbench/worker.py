"""One repeat of one workload in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N \
        --mode plain|spans|memory|setup --work DIR

Runs `hyql run` in-process through `hyql.cli.main`, then `hyql verify`,
and writes DIR/result.json. Modes:

- plain: times set-up, the whole run and each `Agent.step` call from
  outside the program; these are the end-to-end samples.
- spans: records a span around every call into each layer (layers.py)
  and reports the per-layer metrics; spans are written to DIR/spans.
- memory: traces the first trial's allocations with tracemalloc and
  reports their peak and the growth per step of its agent run.
- setup: stops at the first `Agent.step` entry and reports the set-up
  time only; nothing is verified.

The hyql package is imported from ROOT/src, never from site-packages.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import measure
from layers import VERIFY, Tracer, layer_metrics


def _import_hyql(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hyql.cli
    if Path(hyql.__file__).resolve().parent != src / "hyql":
        raise measure.BenchError(f"imported hyql from {hyql.__file__}, not {src}")
    return hyql


def _step_timer(agent_cls, samples: dict, first_entry: list):
    """Wrap Agent.step to time each call, keyed by agent variant."""
    original = agent_cls.step
    clock = time.perf_counter_ns

    def timed(self, event, env):
        start = clock()
        if not first_entry:
            first_entry.append(start)
        result = original(self, event, env)
        elapsed = clock() - start
        variant = self.config.variant
        if variant not in samples:
            samples[variant] = array("q")
        samples[variant].append(elapsed)
        return result

    agent_cls.step = timed


class SetupDone(Exception):
    """Ends a set-up-only run at the first `Agent.step` entry."""


def _stop_at_first_step(agent_cls, first_entry: list):
    def stop(self, event, env):
        first_entry.append(time.perf_counter_ns())
        raise SetupDone

    agent_cls.step = stop


def _memory_probe(bench, agent_cls, probe: dict):
    """Trace allocations during the first trial only, which bounds the cost.

    Records the trial's traced peak (world build to persistence) and the
    traced memory its `Agent.run` kept, per step.
    """
    run_trial, run = bench.run_trial, agent_cls.run

    def first_trial(*args, **kwargs):
        if probe:
            return run_trial(*args, **kwargs)
        tracemalloc.start()
        try:
            return run_trial(*args, **kwargs)
        finally:
            probe["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def traced_run(self, env, total_steps):
        if not tracemalloc.is_tracing():
            return run(self, env, total_steps)
        before = tracemalloc.get_traced_memory()[0]
        trace = run(self, env, total_steps)
        probe["growth"] = (tracemalloc.get_traced_memory()[0] - before) / total_steps
        return trace

    bench.run_trial = first_trial
    agent_cls.run = traced_run


def check_output(cli, out: Path, trials: list[str]) -> dict:
    """Run `hyql verify` on `out` and digest it; name the trials that failed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(out)])
    checked = {"failed_trials": [], "errors": []}
    if code != 0:
        checked["errors"].append(f"hyql verify exited {code}: {err.getvalue().strip()[-2000:]}")
        checked["failed_trials"] = sorted(measure.trials_named_in(err.getvalue(), trials))
    checked["digest"], checked["trial_digests"] = measure.output_digests(out, trials)
    return checked


def run_once(root: Path, workload_name: str, seed: int, mode: str, work: Path) -> dict:
    workload = measure.load_workload(workload_name)
    trials = measure.trial_names(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    spec = measure.write_spec(root, workload, seed, work)
    out = work / "out"
    result = {"mode": mode, "trials": trials, "failed_trials": [], "errors": []}

    t_import = time.perf_counter_ns()
    hyql = _import_hyql(root)
    samples: dict[str, array] = {}
    first_entry: list[int] = []
    probe: dict[str, float] = {}
    tracer = None
    if mode == "spans":
        tracer = Tracer()
        tracer.install()
    elif mode == "setup":
        _stop_at_first_step(hyql.agent.Agent, first_entry)
    else:
        _step_timer(hyql.agent.Agent, samples, first_entry)
        if mode == "memory":
            _memory_probe(hyql.bench, hyql.agent.Agent, probe)

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hyql.cli.main(["run", str(spec), "--out", str(out),
                                  "--parallel", "1"])
        if code != 0:
            raise RuntimeError(f"hyql run exited {code}")
    except SetupDone:
        result["setup_s"] = (first_entry[0] - t_import) / 1e9
        return result
    except Exception as exc:  # a failing run fails every trial; report, don't crash
        result["errors"].append(f"hyql run raised {type(exc).__name__}: {exc}")
        result["failed_trials"] = trials
        if tracer is not None:
            tracer.restore()
        return result
    t_done = time.perf_counter_ns()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["out_bytes"] = measure.dir_bytes(out)

    if tracer is not None:
        tracer.current_phase = VERIFY
    try:
        checked = check_output(hyql.cli, out, trials)
    finally:
        if tracer is not None:
            tracer.restore()
    result["failed_trials"] = checked.pop("failed_trials")
    result["errors"] += checked.pop("errors")
    result.update(checked)

    if tracer is not None:
        # the first Agent.step span marks the end of set-up
        first = tracer.start[tracer.span_name.index(tracer.name_ids["agent.step"])]
        steps = tracer.steps_entered
        result["layers"], result["calls"] = layer_metrics(tracer)
        tracer.write(work / "spans")
    else:
        first = first_entry[0]
        steps = sum(len(v) for v in samples.values())
        result["step_ns"] = {k: v.tolist() for k, v in samples.items()}
    if steps != workload["steps"] * len(trials):
        result["errors"].append(f"ran {steps} agent steps, expected "
                                f"{workload['steps'] * len(trials)}")
    result["steps"] = steps
    result["setup_s"] = (first - t_import) / 1e9
    result["run_s"] = (t_done - first) / 1e9
    result["steps_per_s"] = steps / result["run_s"]
    if mode == "memory":
        result["tracemalloc_peak_mb"] = probe["peak_mb"]
        result["growth_bytes_per_step"] = probe["growth"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory", "setup"),
                        required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    work = Path(args.work)
    result = run_once(Path(args.root), args.workload, args.seed, args.mode, work)
    (work / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
