"""Golden runs: the canonical scenario's outputs, pinned byte for byte.

All five variants, one seed, 600 steps, run through the command line.
The SHA-256 of metrics.csv and of every history_*.tsv is pinned below, and
a `--parallel 2` run of the same spec must write the same bytes, as must
fresh interpreters under two PYTHONHASHSEED values (no set or dict order
keyed by a string hash may reach the output).

A second, wide run pins CFOnly and HyQL on the canonical scenario widened
to 101 users and 200 items (the `cf-wide` benchmark shape). CFOnly asks for
CF advice on every step, so it reaches the popularity answer and the
neighbour answer over 100 neighbours with many equal similarities, which
the 11-user run never does.

Re-bless these hashes only in a change whose stated purpose is a behaviour
change, and say so in CHANGES.md; a refactor or a speed-up must keep them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyql
from hyql.bench import load_scenario
from hyql.cli import main

VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
SEED = 1000

GOLDEN = {
    "metrics.csv":
        "eb12935a7166338ccc014b7d727a874f714772f549b226fbd6386617e697d904",
    "runs/CBRQ/1000/history_actions.tsv":
        "606ee7ab71ae3fe9420212871a16136eea67e1bc5832b5b62cb3f9f671ba1838",
    "runs/CBRQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/CFOnly/1000/history_actions.tsv":
        "120a4ec335b2e32f4477375ae8665ca5af092ea4288c433acea1865590c62ddf",
    "runs/CFOnly/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/EpsilonGreedyQ/1000/history_actions.tsv":
        "606ee7ab71ae3fe9420212871a16136eea67e1bc5832b5b62cb3f9f671ba1838",
    "runs/EpsilonGreedyQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/GreedyQ/1000/history_actions.tsv":
        "03a908edbc913d9d75633212dc02e38fa5b2c00b296144707337fa0c4ff8d5e6",
    "runs/GreedyQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/HyQL/1000/history_actions.tsv":
        "db8c77462dc71130cd45151ef48efaa35f96abd00c82ff615067ab7d4a13f2c9",
    "runs/HyQL/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
}


def _write_spec(directory):
    spec = {"scenario": "canonical", "trials": 1, "steps": 600, "base_seed": SEED,
            "variants": [{"name": v, "variant": v} for v in VARIANTS]}
    path = directory / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _digests(out):
    paths = [out / "metrics.csv"] + sorted(out.glob("runs/*/*/history_*.tsv"))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


@pytest.fixture(scope="module")
def golden_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = root / "out"
    assert main(["run", str(_write_spec(root)), "--out", str(out)]) == 0
    return root, out


def test_outputs_match_the_pinned_hashes(golden_out):
    _, out = golden_out
    assert _digests(out) == GOLDEN


def test_the_run_writes_its_metrics_configs_and_store_files_only(golden_out):
    _, out = golden_out
    store_files = ("history_actions.tsv", "history_events.tsv", "preferences.tsv")
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == \
        {"metrics.csv", "scenario.json", "spec.json"} | {
            f"runs/{variant}/{SEED}/{name}" for variant in VARIANTS for name in store_files}


def test_parallel_run_writes_the_same_bytes(golden_out):
    root, out = golden_out
    parallel = root / "parallel"
    assert main(["run", str(root / "spec.json"), "--out", str(parallel),
                 "--parallel", "2"]) == 0
    assert _digests(parallel) == _digests(out)


def test_verify_accepts_the_golden_run(golden_out):
    _, out = golden_out
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_hash_seed_does_not_change_the_bytes(golden_out, hash_seed):
    root, _ = golden_out
    out = root / f"hashseed-{hash_seed}"
    src = str(Path(hyql.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "hyql.cli", "run", str(root / "spec.json"),
                    "--out", str(out)], env=env, check=True, timeout=300)
    assert _digests(out) == GOLDEN


WIDE_VARIANTS = ("CFOnly", "HyQL")
WIDE_OVERRIDES = {"users": 101, "items": 200, "warm_start_events": 20000}

WIDE_GOLDEN = {
    "metrics.csv":
        "2a2d1c888e899de35c49ca541d16b9dd2c034195fd4848076922d7b008a9b980",
    "runs/CFOnly/1000/history_actions.tsv":
        "210cba602eb7c6eed794641f3f4001c8cfa6cc90fe0d46544a72b6ce75a2ed70",
    "runs/CFOnly/1000/history_events.tsv":
        "77171ab8358f5b12d40b105b416e69dc69856b82666ee6694377eb06bd0ebfaf",
    "runs/HyQL/1000/history_actions.tsv":
        "91cde65f0d26b70060170239f2e45fd70fd0d486e5f4e4d90d4f3eff3f95b675",
    "runs/HyQL/1000/history_events.tsv":
        "77171ab8358f5b12d40b105b416e69dc69856b82666ee6694377eb06bd0ebfaf",
}


def test_wide_outputs_match_the_pinned_hashes(tmp_path):
    scenario = load_scenario("canonical")
    scenario.update(WIDE_OVERRIDES)
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    spec = {"scenario": "scenario.json", "trials": 1, "steps": 600, "base_seed": SEED,
            "variants": [{"name": v, "variant": v} for v in WIDE_VARIANTS]}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
    assert _digests(out) == WIDE_GOLDEN
