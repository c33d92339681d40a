import json
import shutil

import pytest

from hyql.bench import NEVER, load_scenario, parse_csv
from hyql.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main

BASE_SPEC = {"scenario": "canonical", "trials": 1, "steps": 60,
             "variants": [{"name": "HyQL", "variant": "HyQL"}]}


def write_spec(directory, **changes):
    """A spec file; a dict "scenario" holds overrides of the canonical one."""
    spec = dict(BASE_SPEC, **changes)
    if isinstance(spec["scenario"], dict):
        scenario = dict(load_scenario("canonical"), **spec["scenario"])
        (directory / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        spec["scenario"] = "scenario.json"
    path = directory / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    out = root / "out"
    assert main(["run", str(write_spec(root)), "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def run_copy(finished_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    return out


class TestVerify:
    def test_truncated_trace_line_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:{len(lines)}:" in capsys.readouterr().err

    def test_stripped_header_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:1: missing or wrong schema header" in capsys.readouterr().err


class TestReport:
    def test_one_line_per_variant_and_metric(self, finished_run, capsys):
        assert main(["report", str(finished_run)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["variant", "metric", "mean", "min", "max", "n"]
        recorded = sorted(parse_csv(finished_run / "metrics.csv"),
                          key=lambda row: (row.variant, row.metric))
        expected = []
        for row in recorded:
            value = f"{row.value:.4f}"
            expected.append([row.variant, row.metric, value, value, value, "1"])
            if row.value == NEVER:
                expected.append(["(1", "of", "1", "runs", "never", "triggered)"])
        assert [line.split() for line in lines[1:]] == expected
        # the 60-step run ends before the scenario's drift
        assert [row.metric for row in recorded if row.value == NEVER] == \
            ["DriftRecoverySteps"]

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_missing_directory_exits_2(self, tmp_path, command):
        assert main([command, str(tmp_path / "missing")]) == EXIT_CONFIG


HYQL = {"name": "HyQL", "variant": "HyQL"}


def routines_with(**changes):
    """The canonical routines, with its first habit changed."""
    routines = load_scenario("canonical")["routines"]
    routines["g0"][0].update(changes)
    return routines


@pytest.mark.parametrize("changes", [
    {"variants": [dict(HYQL, alhpa=0.5)]},
    {"variants": [dict(HYQL, p=1.5)]},
    {"variants": [dict(HYQL, alpha=-0.1)]},
    {"variants": [dict(HYQL, gamma=1.0)]},
    {"variants": "HyQL"},
    {"variants": {"name": "HyQL"}},
    {"metrics": "CumulativeReward"},
    {"threshold": {"window": 0}},
    {"recovery": {"window": 0}, "steps": 1200},
    {"variants": [dict(HYQL, feature_weights=[1, 1, 0, 0])]},
    {"variants": [dict(HYQL, retrieval_threshold=1.5)]},
    {"scenario": {"agent_user": "u11"}},
    {"variants": [dict(HYQL, cf_k=1)]},
    {"scenario": {"routines": routines_with(place="Atlantis")}},
    {"scenario": {"drift": [{"step": 1000, "op": "Nope", "target": "g0"}]}},
    {"scenario": {"groups": 2}},
    {"scenario": {"routines": routines_with(weight=0.9)}},
    {"scenario": {"routines": routines_with(part_of_day="Dawn")}},
], ids=["unknown-override", "p", "alpha", "gamma", "variants-string",
        "variants-object", "metrics-string", "threshold-window", "recovery-window",
        "feature-weights-sum", "retrieval-threshold", "agent-user-not-in-population",
        "cf-k", "routine-place", "drift-op", "group-without-routine",
        "routine-weights-sum", "part-of-day"])
def test_bad_spec_exits_2_before_writing(tmp_path, changes):
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, **changes)), "--out", str(out)]) \
        == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


def test_trials_override_is_validated(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path)), "--out", str(out),
                 "--trials", "0"]) == EXIT_CONFIG
    assert not out.exists()
