"""Workload definitions, percentiles and output digests for the benchmark.

Stdlib only, and no import of hyql: run.py and the tests use these
helpers without loading the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_DIR = HERE / "workloads"
WORKLOADS = ("canonical", "cf-wide", "ingest-long")
DEFAULT_SEED = 1000

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class BenchError(Exception):
    """A benchmark input or environment the benchmark cannot run with."""


def load_workload(name: str) -> dict:
    """The workload's data file: scenario overrides, spec shape, expectations."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return json.loads((WORKLOAD_DIR / f"{name}.json").read_text(encoding="utf-8"))


def write_spec(root: Path, workload: dict, seed: int, directory: Path) -> Path:
    """Write scenario.json (canonical plus overrides) and spec.json; return the spec."""
    canonical = root / "src" / "hyql" / "data" / "canonical_scenario.json"
    scenario = json.loads(canonical.read_text(encoding="utf-8"))
    for key, value in workload["scenario"].items():
        if key not in scenario:
            raise BenchError(f"override of unknown scenario field {key!r}")
        scenario[key] = value
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scenario.json").write_text(json.dumps(scenario, indent=2) + "\n",
                                             encoding="utf-8")
    spec = {"scenario": "scenario.json", "variants": workload["variants"],
            "trials": workload["trials"], "steps": workload["steps"],
            "base_seed": seed}
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path


def trial_names(workload: dict, seed: int) -> list[str]:
    """One "variant,seed" name per trial, as metrics.csv rows start."""
    return [f"{v['name']},{seed + t}" for v in workload["variants"]
            for t in range(workload["trials"])]


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile; needs MIN_BEYOND samples above its rank.

    With fewer samples the percentile is not resolved by the data, so it
    raises ValueError instead of returning the maximum.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {n - rank}")
    return sorted(samples)[rank - 1]


def _hash_files(h, out: Path, paths) -> None:
    for path in paths:
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())


def output_digests(out: Path, trials: list[str]) -> tuple[str, dict[str, str]]:
    """Digest of metrics.csv and every history_*.tsv, and one per trial.

    A trial's digest covers its run directory's histories and its own
    metrics.csv rows, so a difference can be charged to one trial.
    """
    whole = hashlib.sha256()
    _hash_files(whole, out, [out / "metrics.csv"]
                + sorted(out.glob("runs/*/*/history_*.tsv")))
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    per_trial = {}
    for trial in trials:
        variant, seed = trial.split(",")
        h = hashlib.sha256()
        _hash_files(h, out, sorted((out / "runs" / variant / seed).glob("history_*.tsv")))
        h.update("\n".join(r for r in rows if r.startswith(trial + ",")).encode())
        per_trial[trial] = h.hexdigest()
    return whole.hexdigest(), per_trial


_ROW = re.compile(r"(?:recorded|recomputed) '([^,']+),(-?\d+),")


def trials_named_in(verify_stderr: str, trials: list[str]) -> set[str]:
    """Trials whose metric rows `hyql verify` reported as mismatched.

    When the report names no known trial (say, a missing row count), every
    trial is charged, since verify judged the directory as a whole.
    """
    named = {f"{m.group(1)},{m.group(2)}" for m in _ROW.finditer(verify_stderr)}
    named &= set(trials)
    return named or set(trials)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
