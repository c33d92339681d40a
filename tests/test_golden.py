"""Golden runs: the canonical scenario's outputs, pinned byte for byte.

All five variants, one seed, 600 steps, run through the command line.
The SHA-256 of metrics.csv, of the scenario.json and spec.json the run
writes back, and of every run's history_*.tsv and preferences.tsv is
pinned below, and a `--parallel 2` run of the same spec must write the
same bytes, as must fresh interpreters under two PYTHONHASHSEED values (no
set or dict order keyed by a string hash may reach the output). Each run's preference table is also checked against
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
or output-format change, and say so in CHANGES.md; a refactor or a speed-up
must keep them. Every metrics.csv hash has held since it was pinned.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import positive_items, read_run_trace
import hyql
import hyql.bench
from hyql.bench import load_experiment_spec, load_scenario, run_trial
from hyql.cli import main
from hyql.collab import TransactionStore
from hyql.qlearn import CASE_BOOTSTRAPPED

VARIANTS = ("GreedyQ", "EpsilonGreedyQ", "CFOnly", "CBRQ", "HyQL")
SEED = 1000

GOLDEN = {
    "metrics.csv":
        "eb12935a7166338ccc014b7d727a874f714772f549b226fbd6386617e697d904",
    "scenario.json":
        "665f0914ade302b06f79fb7d99443d81279ea439b9ebd889cb8adfc8e1d6e68c",
    "spec.json":
        "94db3017f5b2bd7665d5366fd2aa6f3b47df1fe049d8a32256dc508f36c06090",
    "runs/CBRQ/1000/history_actions.tsv":
        "2214e2e011bf8c1e318639a08c61d7b62920c80ed7672ff2838c2be7e7d26bd0",
    "runs/CBRQ/1000/history_events.tsv":
        "9e4a38c7c58b2ef77239d9fda07d041474fc6a29f39975f00864b37c7bad3ce4",
    "runs/CBRQ/1000/preferences.tsv":
        "0e2f24a8854277562099c81c32d0b0f31dc23e70fb9c2d2c7659842225a603dd",
    "runs/CFOnly/1000/history_actions.tsv":
        "6ccc34cdf493e440775d126479b1049fc5725f8cc99fbec748eb1d359767a5d2",
    "runs/CFOnly/1000/history_events.tsv":
        "9e4a38c7c58b2ef77239d9fda07d041474fc6a29f39975f00864b37c7bad3ce4",
    "runs/CFOnly/1000/preferences.tsv":
        "49eae3ee93361a032eb09020341900451bc9d28ac327688cb903efd0ba26c03a",
    "runs/EpsilonGreedyQ/1000/history_actions.tsv":
        "2214e2e011bf8c1e318639a08c61d7b62920c80ed7672ff2838c2be7e7d26bd0",
    "runs/EpsilonGreedyQ/1000/history_events.tsv":
        "9e4a38c7c58b2ef77239d9fda07d041474fc6a29f39975f00864b37c7bad3ce4",
    "runs/EpsilonGreedyQ/1000/preferences.tsv":
        "0e2f24a8854277562099c81c32d0b0f31dc23e70fb9c2d2c7659842225a603dd",
    "runs/GreedyQ/1000/history_actions.tsv":
        "247ee8e95edc6cd42dad5d2cc983ad643997777847728e471f0a442008c9b1da",
    "runs/GreedyQ/1000/history_events.tsv":
        "9e4a38c7c58b2ef77239d9fda07d041474fc6a29f39975f00864b37c7bad3ce4",
    "runs/GreedyQ/1000/preferences.tsv":
        "851333d69545208d05fd9160c7035f0ebeb0b8d83700976473929bbab6d46921",
    "runs/HyQL/1000/history_actions.tsv":
        "7784d4c41d447fb99597611e7b5c82b58d0914c7214afe7d3428c6529a5cae12",
    "runs/HyQL/1000/history_events.tsv":
        "9e4a38c7c58b2ef77239d9fda07d041474fc6a29f39975f00864b37c7bad3ce4",
    "runs/HyQL/1000/preferences.tsv":
        "8d34be2d1f4c056a99927deb2186c506e5703a92ea9f78b606db6ebbdd1ba71b",
}


def _write_spec(directory):
    spec = {"scenario": "canonical", "trials": 1, "steps": 600, "base_seed": SEED,
            "variants": [{"name": v, "variant": v} for v in VARIANTS]}
    path = directory / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _digests(out):
    paths = [out / name for name in ("metrics.csv", "scenario.json", "spec.json")] + sorted(
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
    assert lines[0] == ("# hyql-store v2 preferences: "
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
    for record in read_run_trace(run_dir, 600):
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
    "scenario.json":
        "36bc0c52d244e98ce1f7a6a9288a0b710b484e9f755c88ce6dabff561170cc28",
    "spec.json":
        "4ad65e531783ec4afee870d49e761ebe4a66bfa8e673b8d1aa3a40da2a387a50",
    "runs/CFOnly/1000/history_actions.tsv":
        "f666a3b3d740305d4a6cdbcf9ab668b7bd69c24f7f6c806a343fe51cf15e9a1b",
    "runs/CFOnly/1000/history_events.tsv":
        "739abe9931d3d17b1254c81174a8987f0fe5fc0d01f4305971b0d4a30e3c46c8",
    "runs/CFOnly/1000/preferences.tsv":
        "8367a3a37436e5a1dec9efa2ad0376a625ca814d9a43ae863fdacf2c2bfcce02",
    "runs/HyQL/1000/history_actions.tsv":
        "0724316cfc166d98651f7fc9a1ffc4b46a547ab58eb5aaa07607023a4717a83f",
    "runs/HyQL/1000/history_events.tsv":
        "739abe9931d3d17b1254c81174a8987f0fe5fc0d01f4305971b0d4a30e3c46c8",
    "runs/HyQL/1000/preferences.tsv":
        "d9dce808f91d3cb0557edc098798e85f25e5570109bf7f10ba92e4dd6a16a78b",
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
    "scenario.json":
        "e03f6347b673a5caf3d30ae377b9a88c5995b68aefef683b44227802d8cd642e",
    "spec.json":
        "e81b6b174e14af06d66c77be57ccea5cb719ae90a37e0974389d9a88e4eb659c",
    "runs/CBRQ/7/history_actions.tsv":
        "a7a47e4fca2a961f414c24d4fc3da65289cd4a55ecdb705c2b4869d959cc0cf2",
    "runs/CBRQ/7/history_events.tsv":
        "1dc465cb20d95325ac0568db9bcb3f9269bab90d670f67e7d589877468893aa4",
    "runs/CBRQ/7/preferences.tsv":
        "bab626a1c62db44794735a40018178b0c27eb43a9a2d292460a99f545300bf6c",
    "runs/CFOnly/7/history_actions.tsv":
        "47cb3fd4877065fdb85b0ab5101552a89b415896d6cb8897518d41a33826400d",
    "runs/CFOnly/7/history_events.tsv":
        "1dc465cb20d95325ac0568db9bcb3f9269bab90d670f67e7d589877468893aa4",
    "runs/CFOnly/7/preferences.tsv":
        "4e998b87518cfff5aab069fe07d49cb69ced84ac4968997edca84191d7e49462",
    "runs/EpsilonGreedyQ/7/history_actions.tsv":
        "f9d7743c666a0bd0aef0bc98faf42d57efa25f3094864d0884cb49e5402fef57",
    "runs/EpsilonGreedyQ/7/history_events.tsv":
        "1dc465cb20d95325ac0568db9bcb3f9269bab90d670f67e7d589877468893aa4",
    "runs/EpsilonGreedyQ/7/preferences.tsv":
        "bab626a1c62db44794735a40018178b0c27eb43a9a2d292460a99f545300bf6c",
    "runs/GreedyQ/7/history_actions.tsv":
        "4f294cfa85a69fd32b7b4191e57929a9ae62fd88ceda4bf94789299179c45b91",
    "runs/GreedyQ/7/history_events.tsv":
        "1dc465cb20d95325ac0568db9bcb3f9269bab90d670f67e7d589877468893aa4",
    "runs/GreedyQ/7/preferences.tsv":
        "99a94a29a2d3919c2d9ada0efba0bcf2e6f3c6984b29930a0e2a602c2b26c725",
    "runs/HyQL/7/history_actions.tsv":
        "83b0835e6b77ce3745579b616b3d316951a6736603d87fc9f3fe24307e6649b7",
    "runs/HyQL/7/history_events.tsv":
        "1dc465cb20d95325ac0568db9bcb3f9269bab90d670f67e7d589877468893aa4",
    "runs/HyQL/7/preferences.tsv":
        "c7f34378eff98e9d05bcc30bcfb4c3ea67f12ff58d911ff909f51cb24919bb8d",
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
    traces = {variant: read_run_trace(out / "runs" / variant / str(TINY_SEED), 300)
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
