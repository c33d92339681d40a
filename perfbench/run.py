"""hyql benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload canonical|cf-wide|ingest-long \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; hyql is imported from ./src.
Each repeat runs in a fresh interpreter (worker.py), which executes
`hyql run` through `hyql.cli.main` with --parallel 1 and then `hyql verify`.

--trace 0 repeats untraced runs until --seconds have passed (at least
MIN_REPEATS) and reports the end-to-end metrics. --trace 1 makes one
untraced, one span-traced and one tracemalloc run and reports the
per-layer metrics. Both check every trial: the run must not raise, verify
must pass, and the output digest of each trial must be identical in every
repeat and mode. The last stdout line is the JSON result; the lines before
it print each metric with its unit, and the output digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
from layers import PER_LAYER, check_layers

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
# Set-up is short and noisy, so runs without enough repeats add set-up-only runs.
MIN_SETUPS = 7
# No repeat may end later than this, so a run ends well within 180 s.
STOP_AFTER_S = 120
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "steps_per_s": "steps/s", "step_us_p50": "us", "step_us_p99": "us",
    "setup_s": "s", "peak_rss_mb": "MB", "out_bytes_per_step": "B/step",
}


def run_worker(root: Path, workload: str, seed: int, mode: str) -> dict:
    work = root / ".perfbench_out" / workload / mode
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"errors": [f"{mode} worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"errors": [f"{mode} worker exited {proc.returncode}"]}
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


class Trials:
    """Counts trials attempted and failed, and checks per-trial digests."""

    def __init__(self, names: list[str]):
        self.names = names
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result: dict) -> None:
        self.attempted += len(self.names)
        self.errors += result.get("errors", [])
        if "trial_digests" not in result:
            self.failed += len(self.names)
            return
        bad = set(result["failed_trials"])
        for name, digest in result["trial_digests"].items():
            want = self.reference.setdefault(name, digest)
            if digest != want:
                bad.add(name)
                self.errors.append(f"trial {name}: output digest differs between repeats")
        self.failed += len(bad)


def untraced(root: Path, workload: str, seed: int, seconds: int, trials: Trials):
    repeats = []
    began = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - began
        # stop when the next repeat would end past --seconds (or STOP_AFTER_S)
        if (len(repeats) >= MIN_REPEATS and elapsed + last > seconds
                or elapsed + last > STOP_AFTER_S):
            break
        result = run_worker(root, workload, seed, "plain")
        last = time.perf_counter() - began - elapsed
        trials.add(result)
        if "step_ns" not in result:
            break
        repeats.append(result)
    if not repeats:
        return {}, {}
    setups = [r["setup_s"] for r in repeats]
    while len(setups) < MIN_SETUPS and time.perf_counter() - began < STOP_AFTER_S:
        result = run_worker(root, workload, seed, "setup")
        if "setup_s" not in result:
            trials.errors += result["errors"]
            break
        setups.append(result["setup_s"])
    (root / ".perfbench_out" / workload / "repeats.json").write_text(
        json.dumps(repeats) + "\n", encoding="utf-8")
    variants = sorted({v for r in repeats for v in r["step_ns"]})
    runs = [[ns for v in variants for ns in r["step_ns"][v]] for r in repeats]
    samples = [ns for run in runs for ns in run]
    # Every repeat runs the same inputs, so step i does the same work in each.
    per_step = [statistics.median(times) for times in zip(*runs)]
    metrics = {
        "steps_per_s": sum(r["steps"] for r in repeats) / sum(r["run_s"] for r in repeats),
        "step_us_p50": measure.percentile(samples, 50) / 1e3,
        "step_us_p99": measure.percentile(per_step, 99) / 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "out_bytes_per_step": statistics.median(r["out_bytes"] / r["steps"] for r in repeats),
    }
    info = {"repeats": len(repeats), "set-ups": len(setups), "step samples": len(samples),
            "digest": repeats[0]["digest"]}
    for v in variants:
        ns = [x for r in repeats for x in r["step_ns"][v]]
        info[f"{v} step us mean/p50"] = (f"{sum(ns) / len(ns) / 1e3:.1f}/"
                                         f"{measure.percentile(ns, 50) / 1e3:.1f}")
    return metrics, info


def traced(root: Path, workload: dict, name: str, seed: int, trials: Trials):
    plain = run_worker(root, name, seed, "plain")
    spans = run_worker(root, name, seed, "spans")
    memory = run_worker(root, name, seed, "memory")
    for result in (plain, spans, memory):
        trials.add(result)
    if not all("steps_per_s" in r for r in (plain, spans, memory)):
        return {}, {}
    trials.errors += check_layers(spans["layers"], spans["calls"], workload)
    metrics = dict(spans["layers"])
    metrics["mem.tracemalloc_peak_mb"] = memory["tracemalloc_peak_mb"]
    metrics["mem.growth_bytes_per_step"] = memory["growth_bytes_per_step"]
    metrics["trace.overhead_ratio"] = spans["steps_per_s"] / plain["steps_per_s"]
    info = {"digest": spans["digest"], "spans": f".perfbench_out/{name}/spans/spans"}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=measure.WORKLOADS)
    parser.add_argument("--seed", type=int, default=measure.DEFAULT_SEED,
                        help="workload base seed (the spec's base_seed)")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyql" / "__init__.py").is_file():
        print(f"no hyql source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = measure.load_workload(args.workload)
    trials = Trials(measure.trial_names(workload, args.seed))
    if args.trace:
        metrics, info = traced(root, workload, args.workload, args.seed, trials)
        units = PER_LAYER
    else:
        metrics, info = untraced(root, args.workload, args.seed, args.seconds, trials)
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        trials.errors.append(f"metrics not produced: {missing}")
    for line in trials.errors:
        print(f"error: {line}", file=sys.stderr)
    correct = bool(metrics) and not trials.errors and trials.failed == 0
    for key, value in info.items():
        print(f"# {key}: {value}")
    for key, unit in units.items():
        if key in metrics:
            print(f"{key:<44} {metrics[key]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": trials.attempted, "failed": trials.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics}}))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
