"""Golden runs: the canonical scenario's outputs, pinned byte for byte.

All five variants, one seed, 600 steps, run through the command line.
The SHA-256 of metrics.csv and of every run's history_*.tsv and
preferences.tsv is pinned below, and a `--parallel 2` run of the same spec
must write the same bytes, as must fresh interpreters under two
PYTHONHASHSEED values (no set or dict order keyed by a string hash may
reach the output). Each run's preference table is also checked against
its trace (the last reward and step per situation and item, in first-seen
order), and its accepted items against the focal user's positive bits in
the CF store.

A second, wide run pins CFOnly and HyQL on the canonical scenario widened
to 101 users and 200 items (the `cf-wide` benchmark shape). CFOnly asks for
CF advice on every step, so it reaches the popularity answer and the
neighbour answer over 100 neighbours with many equal similarities, which
the 11-user run never does.

A third, tiny run (3 users, 2 items, 3-step days, seed 7) is the one
pinned run in which the case base acts: its rare weekend habit is first
met after a day whose weekday habit was retained, and a similar enough
case bootstraps that row in both case variants.

The wide and the tiny run, too, must write their pinned bytes under
`--parallel 2` and under both PYTHONHASHSEED values.

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

from conftest import positive_items
import hyql
import hyql.bench
from hyql.bench import load_experiment_spec, load_scenario, run_trial
from hyql.cli import main
from hyql.collab import TransactionStore
from hyql.qlearn import CASE_BOOTSTRAPPED
from hyql.store import read_action_history

VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
SEED = 1000

GOLDEN = {
    "metrics.csv":
        "eb12935a7166338ccc014b7d727a874f714772f549b226fbd6386617e697d904",
    "runs/CBRQ/1000/history_actions.tsv":
        "606ee7ab71ae3fe9420212871a16136eea67e1bc5832b5b62cb3f9f671ba1838",
    "runs/CBRQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/CBRQ/1000/preferences.tsv":
        "44f9472a6aaf35577f219f3c42b7419c1b76729805470577d56bcafd1179d8d8",
    "runs/CFOnly/1000/history_actions.tsv":
        "120a4ec335b2e32f4477375ae8665ca5af092ea4288c433acea1865590c62ddf",
    "runs/CFOnly/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/CFOnly/1000/preferences.tsv":
        "4f68c288f8d3e73103d3c201e33bb411c27b390feca98fa58f23236036873f3d",
    "runs/EpsilonGreedyQ/1000/history_actions.tsv":
        "606ee7ab71ae3fe9420212871a16136eea67e1bc5832b5b62cb3f9f671ba1838",
    "runs/EpsilonGreedyQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/EpsilonGreedyQ/1000/preferences.tsv":
        "44f9472a6aaf35577f219f3c42b7419c1b76729805470577d56bcafd1179d8d8",
    "runs/GreedyQ/1000/history_actions.tsv":
        "03a908edbc913d9d75633212dc02e38fa5b2c00b296144707337fa0c4ff8d5e6",
    "runs/GreedyQ/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/GreedyQ/1000/preferences.tsv":
        "c0c6aa6cbec84fd7b5bceade33be31e2cbf3ada6e8ce258c0d315f9ae05e5f8f",
    "runs/HyQL/1000/history_actions.tsv":
        "db8c77462dc71130cd45151ef48efaa35f96abd00c82ff615067ab7d4a13f2c9",
    "runs/HyQL/1000/history_events.tsv":
        "5b267d20c1c974d56f74d77241dda7ef38b0255cc42dbe498f4b52e8b0e53e1c",
    "runs/HyQL/1000/preferences.tsv":
        "d58d0525c239548e2d10aa119a75f7a462ca5af1fd6e19dec38f651af6f5596c",
}


def _write_spec(directory):
    spec = {"scenario": "canonical", "trials": 1, "steps": 600, "base_seed": SEED,
            "variants": [{"name": v, "variant": v} for v in VARIANTS]}
    path = directory / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _digests(out):
    paths = [out / "metrics.csv"] + sorted(
        path for pattern in ("history_*.tsv", "preferences.tsv")
        for path in out.glob(f"runs/*/*/{pattern}"))
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


def _run_in_a_fresh_interpreter(spec, out, hash_seed):
    src = str(Path(hyql.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "hyql.cli", "run", str(spec),
                    "--out", str(out)], env=env, check=True, timeout=300)


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_hash_seed_does_not_change_the_bytes(golden_out, hash_seed):
    root, _ = golden_out
    out = root / f"hashseed-{hash_seed}"
    _run_in_a_fresh_interpreter(root / "spec.json", out, hash_seed)
    assert _digests(out) == GOLDEN


def _preference_lines(run_dir, focal):
    """preferences.tsv's rows, each as (situation, item, reward, step); every
    row is the focal user's."""
    lines = (run_dir / "preferences.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("# hyql-store v1 preferences: "
                        "user_id\tsituation_key\taction\tlast_reward\tlast_step")
    rows = [line.split("\t") for line in lines[1:]]
    assert {user for user, *_ in rows} <= {focal}
    return [(s, a, float(r), int(step)) for _, s, a, r, step in rows]


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_preference_table_is_the_last_feedback_per_situation_and_item(
        golden_out, variant):
    _, out = golden_out
    run_dir = out / "runs" / variant / str(SEED)
    last = {}  # a key keeps its first place when a later step replaces it
    for record in read_action_history(run_dir, 600):
        last[(record.s.canonical(), record.a)] = (record.r, record.step)
    assert _preference_lines(run_dir, load_scenario("canonical")["agent_user"]) == [
        (s, a, r, step) for (s, a), (r, step) in last.items()]
    assert len(last) < 600


@pytest.mark.parametrize("variant", VARIANTS)
def test_accepted_preferences_are_the_focal_users_positive_bits(
        tmp_path, monkeypatch, variant):
    """Only the agent writes the focal user's ratings, so its last reward
    in a situation sets or clears exactly that item's bit in the level-0
    view at the end of the trial."""
    stores = []

    def capture(n_items):
        stores.append(TransactionStore(n_items))
        return stores[-1]

    monkeypatch.setattr(hyql.bench, "TransactionStore", capture)
    spec = load_experiment_spec(_write_spec(tmp_path))
    run_dir = tmp_path / "run"
    trace = run_trial(spec.parsed, {"name": variant, "variant": variant}, SEED, 600,
                      run_dir).trace
    focal, items = spec.parsed.agent_user, spec.parsed.items
    accepted = {(s, a) for s, a, r, _ in _preference_lines(run_dir, focal) if r == 1.0}
    positive = {(s.canonical(), items[i]) for s in {record.s for record in trace}
                for i in positive_items(stores[0], focal, s)}
    assert accepted == positive
    assert accepted


WIDE_VARIANTS = ("CFOnly", "HyQL")
WIDE_OVERRIDES = {"users": 101, "items": 200, "warm_start_events": 20000}

WIDE_GOLDEN = {
    "metrics.csv":
        "2a2d1c888e899de35c49ca541d16b9dd2c034195fd4848076922d7b008a9b980",
    "runs/CFOnly/1000/history_actions.tsv":
        "210cba602eb7c6eed794641f3f4001c8cfa6cc90fe0d46544a72b6ce75a2ed70",
    "runs/CFOnly/1000/history_events.tsv":
        "77171ab8358f5b12d40b105b416e69dc69856b82666ee6694377eb06bd0ebfaf",
    "runs/CFOnly/1000/preferences.tsv":
        "244e526b4bb3831cad912754b3de341f937230d248fb2acd9a56c0f40d271a35",
    "runs/HyQL/1000/history_actions.tsv":
        "91cde65f0d26b70060170239f2e45fd70fd0d486e5f4e4d90d4f3eff3f95b675",
    "runs/HyQL/1000/history_events.tsv":
        "77171ab8358f5b12d40b105b416e69dc69856b82666ee6694377eb06bd0ebfaf",
    "runs/HyQL/1000/preferences.tsv":
        "01e953c71783cf46e41c9da9f3a1e656552194995ebcab6ffaf0daf683152874",
}


def _write_wide_spec(directory):
    scenario = load_scenario("canonical")
    scenario.update(WIDE_OVERRIDES)
    (directory / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    spec = {"scenario": "scenario.json", "trials": 1, "steps": 600, "base_seed": SEED,
            "variants": [{"name": v, "variant": v} for v in WIDE_VARIANTS]}
    (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return directory / "spec.json"


def test_wide_outputs_match_the_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(_write_wide_spec(tmp_path)), "--out", str(out)]) == 0
    assert _digests(out) == WIDE_GOLDEN


TINY_VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
TINY_SEED = 7


def _habit(part_of_day, day_class, place, cognitive, weight, calendar="Free"):
    return {"part_of_day": part_of_day, "day_class": day_class, "calendar": calendar,
            "place": place, "cognitive": cognitive, "weight": weight}


TINY_SCENARIO = {
    "name": "tiny", "users": 3, "groups": 1, "items": 2, "affinity": 0.8,
    "day_length": 3, "agent_user": "u00", "warm_start_events": 0, "background_rate": 1,
    "routines": {"g0": [
        _habit("Morning", "Weekday", "Office", "Navigate", 0.5),
        _habit("Afternoon", "Weekday", "ClientSite", "OpenFolder", 0.125, "InMeeting"),
        _habit("Afternoon", "Weekday", "Office", "SendEmail", 0.25),
        _habit("Evening", "Weekday", "Home", "Navigate", 0.0625),
        _habit("Morning", "Weekend", "Office", "Navigate", 0.03125),
        _habit("Night", "Weekday", "Transit", "Call", 0.03125),
    ]},
}

TINY_GOLDEN = {
    "metrics.csv":
        "92e10292d9be717da32bbd21de68b132aa92bb097b6f41bd64e97561f76c32cd",
    "runs/CBRQ/7/history_actions.tsv":
        "e0f7e44edbf4fd263b6dd67c547dfa5626327b22efe2f1a901fa69f1fab2edb1",
    "runs/CBRQ/7/history_events.tsv":
        "efc2ce46d0e0af8b223f35defd73f4dd0f6d87e5d920eb8503eab843c4251cf5",
    "runs/CBRQ/7/preferences.tsv":
        "c64fba005d30170810ec7ceed7180154d387cbcd47bb354e4026eaaf228aa0e1",
    "runs/CFOnly/7/history_actions.tsv":
        "6846b38cc54694676f5c02e7e7dab53b4984891582424342f0c283b0bd5a3891",
    "runs/CFOnly/7/history_events.tsv":
        "efc2ce46d0e0af8b223f35defd73f4dd0f6d87e5d920eb8503eab843c4251cf5",
    "runs/CFOnly/7/preferences.tsv":
        "dfa1e5a9b20588501a9a67eccbc879f59d7ffb3f1f0a58c18baafe5e40c97387",
    "runs/EpsilonGreedyQ/7/history_actions.tsv":
        "4c6146513488711e84dfbe0c03713a63e90d3a55444332d5c4d4173b586111c1",
    "runs/EpsilonGreedyQ/7/history_events.tsv":
        "efc2ce46d0e0af8b223f35defd73f4dd0f6d87e5d920eb8503eab843c4251cf5",
    "runs/EpsilonGreedyQ/7/preferences.tsv":
        "c64fba005d30170810ec7ceed7180154d387cbcd47bb354e4026eaaf228aa0e1",
    "runs/GreedyQ/7/history_actions.tsv":
        "11830eb52e4117719d83177152bd59f91ab86b79d3c42ae057418eb7d1a45187",
    "runs/GreedyQ/7/history_events.tsv":
        "efc2ce46d0e0af8b223f35defd73f4dd0f6d87e5d920eb8503eab843c4251cf5",
    "runs/GreedyQ/7/preferences.tsv":
        "a4bc422bf0753734da26b18abc244f8a74f238c87e3ca14f1ed7384676008f93",
    "runs/HyQL/7/history_actions.tsv":
        "8fed8b327e86ff5d1411bbc519d1855f1ab6090d52bbe3746001224a245f969a",
    "runs/HyQL/7/history_events.tsv":
        "efc2ce46d0e0af8b223f35defd73f4dd0f6d87e5d920eb8503eab843c4251cf5",
    "runs/HyQL/7/preferences.tsv":
        "726c62b6b39b524fc1ac02a7d8daed13875a2b52e4d799e167d329445fbd36ac",
}


def _write_tiny_spec(directory):
    (directory / "scenario.json").write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    spec = {"scenario": "scenario.json", "trials": 1, "steps": 300, "base_seed": TINY_SEED,
            "variants": [{"name": v, "variant": v} for v in TINY_VARIANTS]}
    (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return directory / "spec.json"


def test_tiny_outputs_match_the_pinned_hashes_and_bootstrap_a_case(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(_write_tiny_spec(tmp_path)), "--out", str(out)]) == 0
    assert _digests(out) == TINY_GOLDEN
    traces = {variant: read_action_history(out / "runs" / variant / str(TINY_SEED), 300)
              for variant in TINY_VARIANTS}
    for variant in ("CBRQ", "HyQL"):
        assert sum(record.branch == CASE_BOOTSTRAPPED for record in traces[variant]) >= 1
    # GreedyQ never writes a second item's value, so argmax ties keep the first
    assert {record.a for record in traces["GreedyQ"]} == {"doc00"}


@pytest.mark.parametrize("how", ["parallel-2", "hash-seed-0", "hash-seed-12345"])
@pytest.mark.parametrize("write_spec, golden", [(_write_wide_spec, WIDE_GOLDEN),
                                                (_write_tiny_spec, TINY_GOLDEN)],
                         ids=["wide", "tiny"])
def test_wide_and_tiny_runs_write_the_pinned_bytes_in_parallel_and_under_any_hash_seed(
        tmp_path, write_spec, golden, how):
    spec, out = write_spec(tmp_path), tmp_path / "out"
    if how == "parallel-2":
        assert main(["run", str(spec), "--out", str(out), "--parallel", "2"]) == 0
    else:
        _run_in_a_fresh_interpreter(spec, out, how.rsplit("-", 1)[1])
    assert _digests(out) == golden
