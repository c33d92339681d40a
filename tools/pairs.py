"""Alternating benchmark pairs: a parent checkout against a change.

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed N]
        [--json PATH]

PARENT and CHANGE are two source checkouts. Each pair runs
`perfbench/run.py --workload W --seed N` once in each, from the checkout's
own root and with its own perfbench, which sets the run length; the order
alternates from pair to pair (parent first, then change first), so a drift
in the host's speed does not favour one side. The script stops at the
first run that does not print `"correct": true`, and prints that run's
`error:` lines from run.py's stderr, which the raw runs keep too.

At the end it prints, per end-to-end metric, each side's median and
quartiles, the change's median relative to the parent's, the parent's
quartile spread relative to its median, how many pairs the change won
(by the metric's direction in BENCHMARK.json) and a verdict against the
metric's bound there (see `verdict`). Each run's repeat count is printed
beside its `peak_rss_mb`, which follows the repeat count. The
raw runs go to a JSON file (default `pairs-W-N.json` in the working
directory). Stdlib only; it never imports hyql.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """One run.py output: its `# key: value` lines and its final JSON line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            info[key] = value
    return {"correct": result.get("correct") is True,
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
            "info": info}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], direction: str,
            bound: float) -> str:
    """One metric's verdict over complete pairs, `parent[i]` against
    `change[i]`, with `bound` the relative worsening BENCHMARK.json allows:

    - "worse": the change's median is worse than the parent's by more than
      the bound;
    - "unresolved": the parent's quartile spread, relative to its median,
      is wider than the bound, and not every change run beats every parent
      run;
    - "better": the change wins at least 9 of 10 pairs, and its median is
      better than the parent's by more than the parent's quartile spread;
    - "within bound" otherwise.
    """
    sign = _sign(direction)
    p_q1, p_median, p_q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - p_median)
    if gain < -bound * p_median:
        return "worse"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_q3 - p_q1 > bound * p_median and not separated:
        return "unresolved"
    if 10 * _wins(parent, change, sign) >= 9 * len(parent) and gain > p_q3 - p_q1:
        return "better"
    return "within bound"


def _sign(direction: str) -> int:
    return 1 if direction == "higher" else -1


def _wins(parent: list[float], change: list[float], sign: int) -> int:
    """The pairs whose change run is strictly better than its parent run."""
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summarize(runs: list[dict], metrics: dict[str, tuple[str, float]]) -> list[str]:
    """The report's lines for runs of complete pairs.

    `runs` holds dicts with "pair", "side" ("parent" or "change") and
    "metrics"; `metrics` maps each metric to its direction, "higher" or
    "lower", and its bound. A pair is won when its change run is strictly
    better than its parent run.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [sides for _, sides in sorted(by_pair.items()) if set(sides) == set(SIDES)]
    lines = [f"{len(pairs)} complete pairs",
             f"{'metric':<20} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
             f"{'change':>8} {'spread':>7} {'wins':>6} verdict"]
    for name, (direction, bound) in metrics.items():
        both = [p for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent = [p["parent"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        wins = _wins(parent, change, _sign(direction))
        p_q = quartiles(parent)
        c_q = quartiles(change)
        relative = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
        spread = (p_q[2] - p_q[0]) / p_q[1] if p_q[1] else 0.0
        lines.append(f"{name:<20} {_triple(p_q):>32} {_triple(c_q):>32} "
                     f"{relative:>+8.1%} {spread:>7.1%} {wins:>3}/{len(parent):<2} "
                     f"{verdict(parent, change, direction, bound)}")
    lines.append("runs (pair, side, repeats, peak_rss_mb):")
    for i, sides in enumerate(pairs):
        for side in SIDES:
            run = sides[side]
            lines.append(f"  {i:>2} {side:<6} repeats {run['info'].get('repeats', '?'):>4} "
                         f"peak_rss_mb {run['metrics'].get('peak_rss_mb', float('nan')):.2f}")
    return lines


def _triple(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.6g}" for x in q)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    try:
        run = parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        return {"correct": False, "metrics": {}, "info": {},
                "error": f"{exc}; exit {proc.returncode}; stderr {proc.stderr[-500:]!r}"}
    if not run["correct"]:
        reasons = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        run["error"] = "; ".join(reasons) or f"exit {proc.returncode}, no error line"
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {entry["name"]: (entry["better"], entry["bound"]) for entry in spec["end_to_end"]}
    out = args.json or Path(f"pairs-{args.workload}-{args.seed}.json")

    runs: list[dict] = []
    correct = _run_pairs(args, checkouts, out, runs)
    print("\n".join(summarize(runs, metrics)))
    print(f"raw runs: {out}")
    return 0 if correct else 1


def _run_pairs(args, checkouts: dict[str, Path], out: Path, runs: list[dict]) -> bool:
    """Append each run to `runs` and to the JSON file; False at the first
    run that is not correct."""
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = run_once(checkouts[side], args.workload, args.seed)
            run.update(pair=pair, side=side)
            runs.append(run)
            print(f"pair {pair} {side}: correct {run['correct']}, repeats "
                  f"{run['info'].get('repeats', '?')}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()),
                  flush=True)
            out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
            if not run["correct"]:
                print(f"stopping: the {side} run was not correct: "
                      f"{run.get('error', 'no reason given')}", file=sys.stderr)
                return False
    return True


if __name__ == "__main__":
    raise SystemExit(main())
