"""Tests for the benchmark's own helpers, on tiny runs."""

import json
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from layers import PER_LAYER, REQUIRED_BINDINGS, Tracer, layer_metrics, self_times  # noqa: E402
from run import END_TO_END, Trials  # noqa: E402
from worker import check_output  # noqa: E402

TINY = {"scenario": {}, "variants": [{"name": "HyQL", "variant": "HyQL"},
                                     {"name": "GreedyQ", "variant": "GreedyQ"}],
        "trials": 1, "steps": 60}


# -- percentile -----------------------------------------------------------------

def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90


def test_percentile_needs_ten_samples_beyond():
    assert measure.percentile(list(range(1000)), 99) == 989  # rank 990, 10 beyond
    with pytest.raises(ValueError, match="beyond"):
        measure.percentile(list(range(999)), 99)  # rank 990, 9 beyond
    assert measure.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(list(range(19)), 50)


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
    start = array("q", [0, 10, 15, 50])
    end = array("q", [100, 40, 25, 90])
    parent = array("q", [-1, 0, 1, 0])
    assert list(self_times(start, end, parent)) == [30, 20, 10, 40]


def test_self_time_of_a_leaf_is_its_duration():
    assert list(self_times(array("q", [5]), array("q", [12]), array("q", [-1]))) == [7]


# -- correctness gate -------------------------------------------------------------

def _tiny_run(tmp_path, seed=1000):
    import hyql.cli
    spec = measure.write_spec(ROOT, TINY, seed, tmp_path)
    out = tmp_path / "out"
    assert hyql.cli.main(["run", str(spec), "--out", str(out)]) == 0
    return hyql.cli, out, measure.trial_names(TINY, seed)


def test_tampered_reward_fails_that_trial(tmp_path):
    cli, out, trials = _tiny_run(tmp_path)
    clean = check_output(cli, out, trials)
    assert clean["failed_trials"] == [] and clean["errors"] == []

    path = out / "runs" / "HyQL" / "1000" / "history_actions.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[4] = "0" if float(fields[4]) else "1"
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    tampered = check_output(cli, out, trials)
    assert tampered["failed_trials"] == ["HyQL,1000"]
    counter = Trials(trials)
    counter.add(clean)
    counter.add(tampered)
    assert (counter.attempted, counter.failed) == (4, 1)


def test_digest_mismatch_between_repeats_fails_the_trial():
    counter = Trials(["A,1", "B,1"])
    counter.add({"failed_trials": [], "trial_digests": {"A,1": "x", "B,1": "y"}})
    counter.add({"failed_trials": [], "trial_digests": {"A,1": "x", "B,1": "z"}})
    assert (counter.attempted, counter.failed) == (4, 1)
    assert counter.errors == ["trial B,1: output digest differs between repeats"]


def test_verify_report_without_trial_names_charges_every_trial():
    assert measure.trials_named_in("line 3: recorded '<missing>'", ["A,1", "B,1"]) == {
        "A,1", "B,1"}


# -- tracer ---------------------------------------------------------------------

def test_tracer_patches_every_binding_restores_and_keeps_outputs(tmp_path):
    import hyql.agent
    import hyql.qlearn
    _, plain_out, trials = _tiny_run(tmp_path / "plain")
    original = hyql.agent.greedy_action
    tracer = Tracer()
    tracer.install()
    try:
        for module, name in REQUIRED_BINDINGS:
            assert getattr(sys.modules[module], name).__perfbench__
        _, traced_out, _ = _tiny_run(tmp_path / "traced")
    finally:
        tracer.restore()
    assert hyql.agent.greedy_action is original is hyql.qlearn.greedy_action
    assert (measure.output_digests(plain_out, trials)
            == measure.output_digests(traced_out, trials))

    metrics, calls = layer_metrics(tracer)
    assert calls["agent.step"] == 120 and calls["bench.verify_dir"] == 0
    assert metrics["context.aggregate.calls_per_step"] == 3.0
    assert metrics["collab.record_implicit.calls_per_step"] == 3.0  # 1 + background_rate
    assert metrics["simenv.event_log_at_end"] == 61
    shares = sum(metrics[f"agent.branch.{b}.share"]
                 for b in ("Exploit", "Advise", "RandomFallback"))
    assert shares == pytest.approx(1.0)


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(measure.WORKLOADS)
