import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import read_run_trace
import hyql
import hyql.bench
import hyql.context
from hyql.bench import NEVER, SPEC_KEYS, load_experiment_spec, load_scenario, parse_csv
from hyql.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main
from hyql.context import CONTEXT
from hyql.store import fmt_float, read_event_history

BASE_SPEC = {"scenario": "canonical", "trials": 1, "steps": 60,
             "variants": [{"name": "HyQL", "variant": "HyQL"}]}
FOCAL = load_scenario("canonical")["agent_user"]

HUGE_INT = "9" * 5000  # a JSON integer Python's int() refuses to parse
# A JSON integer int() parses but float() cannot hold. It goes only where a
# float belongs: as a count it is valid, and a world that large never builds.
FLOAT_RANGE_INT = 10 ** 400


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

    def test_at_most_20_mismatches_are_printed_before_the_count(self, run_copy, capsys):
        path = run_copy / "metrics.csv"
        kept = len(path.read_text(encoding="utf-8").splitlines())
        with path.open("a", encoding="utf-8") as f:
            f.writelines(f"extra,{i}\n" for i in range(25))
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert capsys.readouterr().err.splitlines() == [
            f"line {kept + 1 + i}: recorded 'extra,{i}\\n' != recomputed '<missing>'"
            for i in range(20)] + ["verification FAILED: 25 mismatched lines"]

    def test_stripped_header_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:1: missing or wrong schema header" in capsys.readouterr().err

    def test_header_only_trace_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        header = path.read_text(encoding="utf-8").splitlines()[0]
        path.write_text(header + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:2: trace ends after 0 of 60 steps" in capsys.readouterr().err

    def test_trace_cut_before_the_drift_is_a_mismatch(self, tmp_path, capsys):
        drift = [{"step": 30, "op": "SwapTopItems", "target": "g0"}]
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path, scenario={"drift": drift})),
                     "--out", str(out)]) == EXIT_OK
        path = out / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()[:21]  # steps 0..19
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(out)]) == EXIT_MISMATCH
        assert f"{path}:22: trace ends after 20 of 60 steps" in capsys.readouterr().err

    def test_hand_edited_preference_table_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "preferences.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split("\t")
        fields[3] = "0" if fields[3] == "1" else "1"  # the last reward
        edited = "\t".join(fields)
        path.write_text("".join(lines[:2] + [edited] + lines[3:]), encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:3: file has {edited!r}, its trace gives {lines[2]!r}" \
            in capsys.readouterr().err

    def test_per_step_preference_table_is_a_mismatch(self, run_copy, capsys):
        """The table as runs wrote it before it kept one line per key."""
        run_dir = run_copy / "runs" / "HyQL" / "1000"
        trace = read_run_trace(run_dir, 60)
        path = run_dir / "preferences.tsv"
        path.write_text("".join(
            ["# hyql-store v1 preferences: user_id\tsituation_key\taction\treward\tstep\n"]
            + [f"{FOCAL}\t{r.s.canonical()}\t{r.a}\t{fmt_float(r.r)}\t{r.step}\n"
               for r in trace]),
            encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:1: file has '# hyql-store v1 preferences: user_id" \
            in capsys.readouterr().err

    def test_reward_outside_the_unit_interval_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        fields[4] = "2"
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:2: reward 2.0 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["metrics.csv", "runs/HyQL/1000/preferences.tsv"])
    def test_crlf_line_endings_are_a_mismatch(self, run_copy, capsys, name):
        path = run_copy / name
        first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        crlf = first.replace("\n", "\r\n")
        assert (f"line 1: recorded {crlf!r} != recomputed {first!r}" if name == "metrics.csv"
                else f"{path}:1: file has {crlf!r}, its trace gives {first!r}") \
            in capsys.readouterr().err

    def test_a_run_written_under_schema_v1_exits_3(self, run_copy, capsys):
        """The three files as the v1 writer wrote them: each header at v1, the
        trace with its next situation and each event with its user. The event
        log, which the trace is read against, is read first."""
        run_dir = run_copy / "runs" / "HyQL" / "1000"
        trace, events = read_run_trace(run_dir, 60), read_event_history(run_dir, 60)
        following = [r.s for r in trace[1:]] + [CONTEXT.aggregate(events[-1], "g0")]
        actions = run_dir / "history_actions.tsv"
        lines = actions.read_text(encoding="utf-8").splitlines()
        actions.write_text("".join(
            ["# hyql-store v1 actions: step\tsituation_key\taction\tbranch\treward"
             "\tnext_situation_key\n"]
            + [f"{line}\t{s.canonical()}\n" for line, s in zip(lines[1:], following)]),
            encoding="utf-8")
        event_log = run_dir / "history_events.tsv"
        header, *lines = event_log.read_text(encoding="utf-8").splitlines()
        event_log.write_text("".join(
            [header.replace("v2 events: step\t", "v1 events: step\tuser_id\t") + "\n"]
            + [line.replace("\t", f"\t{FOCAL}\t", 1) + "\n" for line in lines]),
            encoding="utf-8")
        path = run_dir / "preferences.tsv"
        path.write_text(path.read_text(encoding="utf-8").replace("v2", "v1", 1),
                        encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{event_log}:1: missing or wrong schema header" in capsys.readouterr().err

    def test_a_trace_situation_swapped_for_another_valid_key_is_a_mismatch(
            self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        first = lines[1].split("\t")
        place = first[1].split("|")[1]
        # a key at the same place, so a check of the place alone passes it
        other = next(line.split("\t")[1] for line in lines[2:]
                     if line.split("\t")[1] != first[1]
                     and line.split("\t")[1].split("|")[1] == place)
        written = lines[1]
        lines[1] = "\t".join([first[0], other] + first[2:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:2: {lines[1]!r} is not spelt as hyql writes it: {written!r}" \
            in capsys.readouterr().err

    def test_an_event_moved_to_another_place_is_a_mismatch(self, run_copy, capsys):
        run_dir = run_copy / "runs" / "HyQL" / "1000"
        path = run_dir / "history_events.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")  # step 0
        here = CONTEXT.abstract_location(float(fields[2]), float(fields[3])).name
        elsewhere = CONTEXT.nodes["Home" if here != "Home" else "Office"]
        fields[2:4] = (fmt_float((elsewhere.lat_min + elsewhere.lat_max) / 2),
                       fmt_float((elsewhere.lon_min + elsewhere.lon_max) / 2))
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        actions = run_dir / "history_actions.tsv"
        step_0 = actions.read_text(encoding="utf-8").splitlines()[1]
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{actions}:2: {step_0!r} is not spelt as hyql writes it: " \
            in capsys.readouterr().err

    def test_an_event_log_missing_its_last_line_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_events.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()[:-1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:{len(lines) + 1}: event log ends after 60 of 61 events" \
            in capsys.readouterr().err

    def test_a_trace_naming_a_place_the_gazetteer_lacks_exits_3(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        key = fields[1].split("|")
        key[1] = "Mars"
        fields[1] = "|".join(key)
        written = lines[1]
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:2: {lines[1]!r} is not spelt as hyql writes it: {written!r}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("part, value", [
        (2, "g9"), (4, "2"),
        # spellings no key can take: verify rejects them by the same rule
        (0, "Dawn-Weekday-Free"), (3, "Dance"), (4, "x"),
    ], ids=["group", "granularity", "time-bucket", "cognitive-kind", "not-a-level"])
    def test_a_situation_no_event_gives_exits_3_and_interns_no_key(
            self, run_copy, capsys, part, value):
        """A situation that no event of the run gives, well-formed or not:
        verify renders the situation column and compares it, never building
        a key from the file's text."""
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        key = fields[1].split("|")
        key[part] = value
        fields[1] = "|".join(key)
        written = lines[1]
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        interned = len(hyql.context._KEYS)
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert len(hyql.context._KEYS) == interned
        assert f"{path}:2: {lines[1]!r} is not spelt as hyql writes it: {written!r}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("name, lineno, field, respell", [
        ("history_actions.tsv", 2, 0, lambda step: f"{step}_0"),  # 0_0: int() reads 0
        ("history_actions.tsv", 2, 4, lambda reward: f" +{float(reward):.3f} "),
        ("history_events.tsv", 2, 1, lambda timestamp: f"+{timestamp}"),
        ("history_events.tsv", 2, 2, lambda lat: f"{lat}0000"),
    ], ids=["step", "reward", "timestamp", "latitude"])
    def test_a_value_spelt_otherwise_than_hyql_writes_it_is_a_mismatch(
            self, run_copy, capsys, name, lineno, field, respell):
        """The same value in another spelling, which int() and float() read."""
        path = run_copy / "runs" / "HyQL" / "1000" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[lineno - 1].split("\t")
        written = lines[lineno - 1]
        fields[field] = respell(fields[field])
        lines[lineno - 1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert (f"{path}:{lineno}: {lines[lineno - 1]!r} is not spelt as hyql writes it: "
                f"{written!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["history_actions.tsv", "history_events.tsv"])
    @pytest.mark.parametrize("edit", ["crlf", "blank line", "no last newline"])
    def test_a_history_file_in_other_bytes_is_a_mismatch(self, run_copy, capsys, name, edit):
        path = run_copy / "runs" / "HyQL" / "1000" / name
        text = path.read_text(encoding="utf-8")
        n_lines = text.count("\n")
        path.write_bytes({"crlf": text.replace("\n", "\r\n"),
                          "blank line": text + "\n",
                          "no last newline": text[:-1]}[edit].encode("utf-8"))
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert {"crlf": f"{path}:1: missing or wrong schema header",
                "blank line": f"{path}:{n_lines + 1}: expected ",
                "no last newline": f"{path}:{n_lines}: last line has no newline"}[edit] \
            in capsys.readouterr().err

    def test_a_branch_outside_the_four_tags_is_a_mismatch(self, run_copy, capsys):
        path = run_copy / "runs" / "HyQL" / "1000" / "history_actions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines) if i and "\tExploit\t" not in line)
        lines[lineno] = re.sub(r"\t(Advise|RandomFallback)\t", "\tNonsense\t", lines[lineno])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:{lineno + 1}: branch 'Nonsense' is none of Exploit, Advise, " \
            in capsys.readouterr().err

    def test_an_action_outside_the_catalog_is_a_mismatch(self, run_copy, capsys):
        """Every doc00 renamed in the trace and in the preference table, so
        the table still follows from the trace."""
        run_dir = run_copy / "runs" / "HyQL" / "1000"
        for name in ("history_actions.tsv", "preferences.tsv"):
            path = run_dir / name
            path.write_text(path.read_text(encoding="utf-8").replace("\tdoc00\t",
                                                                     "\tnot-an-item\t"),
                            encoding="utf-8")
        lineno = next(i for i, line in enumerate(
            (run_dir / "history_actions.tsv").read_text(encoding="utf-8").splitlines(), 1)
            if "\tnot-an-item\t" in line)
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert (f"{run_dir / 'history_actions.tsv'}:{lineno}: action 'not-an-item' "
                f"is not in the scenario's catalog") in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [(6, "lunch"), (5, "doc01")],
                             ids=["calendar label", "item"])
    def test_an_event_its_seed_does_not_give_is_a_mismatch(
            self, run_copy, capsys, field, value):
        """An edit that keeps the event's situation, so the trace still reads against it."""
        path = run_copy / "runs" / "HyQL" / "1000" / "history_events.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines)
                      if i and line.split("\t")[field] not in ("", value))
        fields = lines[lineno].split("\t")
        fields[field] = value
        lines[lineno] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:{lineno + 1}: event {lineno - 1} is not the one seed 1000 gives" \
            in capsys.readouterr().err

    def test_spec_with_an_extra_key_exits_2(self, run_copy):
        path = run_copy / "spec.json"
        spec = dict(json.loads(path.read_text(encoding="utf-8")), metrics=["CumulativeReward"])
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["verify", str(run_copy)]) == EXIT_CONFIG


def test_written_spec_loads_back_equal(finished_run, tmp_path):
    written = finished_run / "spec.json"
    assert set(json.loads(written.read_text(encoding="utf-8"))) == SPEC_KEYS
    assert load_experiment_spec(written) == load_experiment_spec(write_spec(tmp_path))


def test_a_canonical_run_writes_at_most_145_bytes_per_step(tmp_path):
    """Each fact once: a trace line states no next situation and an event
    line no user. Schema v1 wrote 192 B per step on this 200-step run of all
    five variants, v2 writes 143.3 (the configs, metrics and preference
    tables included, which weigh more on a short run)."""
    variants = [{"name": v, "variant": v} for v in hyql.agent.VARIANTS]
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, steps=200, variants=variants)),
                 "--out", str(out)]) == EXIT_OK
    written = sum(path.stat().st_size for path in out.rglob("*") if path.is_file())
    assert written / (200 * len(variants)) <= 145


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

    def test_short_metrics_row_exits_3(self, run_copy, capsys):
        path = run_copy / "metrics.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:3: not enough values to unpack" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_missing_directory_exits_2(self, tmp_path, command):
        assert main([command, str(tmp_path / "missing")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_missing_metrics_file_exits_3(self, run_copy, capsys, command):
        path = run_copy / "metrics.csv"
        path.unlink()
        assert main([command, str(run_copy)]) == EXIT_MISMATCH
        assert f"{path}:0: missing store file" in capsys.readouterr().err


def test_the_documented_exit_codes_are_2_and_3():
    """The codes the module docstring documents, as literals: a constant
    changed with its tests would otherwise go unseen."""
    assert (EXIT_OK, EXIT_CONFIG, EXIT_MISMATCH) == (0, 2, 3)


def test_run_creates_the_missing_parents_of_out(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    assert main(["run", str(write_spec(tmp_path, steps=5)), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert (out / "metrics.csv").is_file()


def make_unreadable(path, kind):
    """Append a byte that is not UTF-8 to the file, or put a directory in its place."""
    if kind == "non-utf8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    else:
        path.unlink()
        path.mkdir()


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
@pytest.mark.parametrize("command, name", [
    ("report", "metrics.csv"), ("verify", "metrics.csv"),
    ("verify", "runs/HyQL/1000/history_actions.tsv")])
def test_unreadable_run_file_exits_3(run_copy, capsys, command, name, kind):
    path = run_copy / name
    make_unreadable(path, kind)
    assert main([command, str(run_copy)]) == EXIT_MISMATCH
    assert f"{path}:0: unreadable store file" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
@pytest.mark.parametrize("name", ["spec", "scenario"])
def test_unreadable_spec_or_scenario_exits_2_before_writing(tmp_path, capsys, name, kind):
    spec = write_spec(tmp_path, scenario={})
    make_unreadable(tmp_path / f"{name}.json", kind)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"cannot read {name} file {tmp_path / name}.json" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["spec", "scenario"])
def test_deeply_nested_json_exits_2_before_writing(tmp_path, capsys, name):
    # valid JSON, but past the decoder's recursion limit
    spec = write_spec(tmp_path, scenario={})
    (tmp_path / f"{name}.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"{name} is not valid JSON: maximum recursion depth" in capsys.readouterr().err


@pytest.mark.parametrize("name, key", [("spec", "base_seed"), ("scenario", "users")])
def test_an_integer_past_the_digit_limit_exits_2_before_writing(tmp_path, capsys, name, key):
    # valid JSON, but past the interpreter's 4,300-digit limit on int("...")
    spec = write_spec(tmp_path, scenario={})
    path = tmp_path / f"{name}.json"
    document = dict(json.loads(path.read_text(encoding="utf-8")), **{key: "huge"})
    path.write_text(json.dumps(document).replace('"huge"', HUGE_INT), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"{name} is not valid JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err


def routines_with_first_weight(value):
    """The canonical routines with the first g0 habit's weight replaced."""
    routines = load_scenario("canonical")["routines"]
    routines["g0"][0]["weight"] = value
    return routines


@pytest.mark.parametrize("key", ["affinity", "weight"])
def test_a_number_past_the_float_range_exits_2_before_writing(tmp_path, capsys, key):
    override = ({"affinity": FLOAT_RANGE_INT} if key == "affinity"
                else {"routines": routines_with_first_weight(FLOAT_RANGE_INT)})
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, scenario=override)), "--out", str(out)]) \
        == EXIT_CONFIG
    assert not out.exists()
    assert "got an integer too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["affinity", "weight"])
def test_verify_of_a_number_past_the_float_range_exits_2(run_copy, capsys, key):
    path = run_copy / "scenario.json"
    scenario = json.loads(path.read_text(encoding="utf-8"))
    if key == "affinity":
        scenario["affinity"] = FLOAT_RANGE_INT
    else:
        scenario["routines"]["g0"][0]["weight"] = FLOAT_RANGE_INT
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["verify", str(run_copy)]) == EXIT_CONFIG
    assert "got an integer too large for a float" in capsys.readouterr().err


# Past the world-size bound: too many items, too many relevance values (the
# canonical routine has 6 habits: 20,000 x 100 x 6 is 12,000,000), and too
# many relevance rows (33,334 x 6 is 200,004 rows, of one value each).
PAST_THE_SIZE_BOUND = [{"items": 10_001}, {"users": 10 ** 30},
                       {"users": 20_000, "items": 100}, {"users": 33_334, "items": 1}]


@pytest.mark.parametrize("sizes", PAST_THE_SIZE_BOUND)
def test_a_world_past_the_size_bound_exits_2_before_writing(tmp_path, capsys, sizes):
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, scenario=sizes)), "--out", str(out)]) \
        == EXIT_CONFIG
    assert not out.exists()
    assert "must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", PAST_THE_SIZE_BOUND)
def test_verify_of_a_world_past_the_size_bound_exits_2(run_copy, capsys, sizes):
    path = run_copy / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text(encoding="utf-8")), **sizes)),
                    encoding="utf-8")
    assert main(["verify", str(run_copy)]) == EXIT_CONFIG
    assert "must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_out_at_or_under_a_file_exits_2_before_writing(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "out" if under else blocker
    assert main(["run", str(write_spec(tmp_path)), "--out", str(out)]) == EXIT_CONFIG
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "spec.json"]
    assert f"cannot create output directory {out}" in capsys.readouterr().err


HYQL = {"name": "HyQL", "variant": "HyQL"}


def routines_with(**changes):
    """The canonical routines, with its first habit changed."""
    routines = load_scenario("canonical")["routines"]
    routines["g0"][0].update(changes)
    return routines


def routines_with_unjoined_group():
    """Canonical g0, and a g1 that no user joins whose weights sum to 0.5."""
    routines = load_scenario("canonical")["routines"]
    routines["g1"] = [dict(habit, weight=habit["weight"] / 2) for habit in routines["g0"]]
    return routines


def routines_with_repeated_situation():
    """The canonical routines, their first habit split into two of half its weight."""
    routines = load_scenario("canonical")["routines"]
    first = routines["g0"][0]
    first["weight"] /= 2  # 0.3 -> 0.15
    routines["g0"].insert(0, dict(first))
    return routines


def routines_with_negative_weight():
    """The canonical routines, still summing to 1, one habit weighted -0.1."""
    routines = load_scenario("canonical")["routines"]
    routines["g0"][0]["weight"] += 0.3  # 0.3 -> 0.6
    routines["g0"][1]["weight"] -= 0.3  # 0.2 -> -0.1
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
    {"scenario": {"routines": routines_with(place="Unknown")}},
    {"scenario": {"routines": routines_with(place="Paris")}},
    {"scenario": {"routines": routines_with(place="Anywhere")}},
    {"scenario": {"drift": [{"step": 1000, "op": "Nope", "target": "g0"}]}},
    {"scenario": {"groups": 2}},
    {"scenario": {"routines": routines_with(weight=0.9)}},
    {"scenario": {"routines": routines_with(part_of_day="Dawn")}},
    {"scenario": {"routines": routines_with(day_class="Weekly")}},
    {"scenario": {"routines": routines_with(calendar="Busy")}},
    {"scenario": {"drift": [{"step": 10, "op": "SwapTopItems", "target": "g7"}]}},
    {"scenario": {"drift": [{"step": 10, "op": "SwapTopItems", "target": "g0",
                             "scope": "nonsense"}]}},
    {"scenario": {"drift": [{"step": -1, "op": "SwapTopItems", "target": "g0"}]}},
    {"variants": [dict(HYQL, name="../../escaped")]},
    {"scenario": {"warm_start_events": -5}},
    {"scenario": {"background_rate": -3}},
    {"scenario": {"routines": routines_with_negative_weight()}},
    {"variants": [dict(HYQL, alpha_schedule="inverse-visits")]},
    {"variants": [dict(HYQL, default_q=0.5)]},
    {"scenario": {"cf_same_group_only": False}},
    {"scenario": {"seed": 7}},
    {"scenario": {"backgroud_rate": 2}},
    {"scenario": {"routines": routines_with(cognitive="Dance")}},
    {"scenario": {"routines": dict(routines_with(), g7=routines_with()["g0"])}},
    {"scenario": {"routines": routines_with(wieght=0.3)}},
    {"scenario": {"drift": [{"step": 1000, "op": "SwapTopItems", "target": "g0",
                             "scoep": "all"}]}},
    {"scenario": {"users": 11.7}},
    {"scenario": {"groups": True}},
    {"scenario": {"items": "20"}},
    {"scenario": {"day_length": 50.0}},
    {"scenario": {"warm_start_events": 1000.5}},
    {"scenario": {"background_rate": "2"}},
    {"scenario": {"drift": [{"step": 1000.0, "op": "SwapTopItems", "target": "g0"}]}},
    {"scenario": {"drift": {}}},
    {"scenario": {"drift": ""}},
    {"scenario": {"name": ["canonical"]}},
    {"scenario": {"name": 7}},
    {"scenario": {"users": 1, "groups": 2, "agent_user": "u00",
                  "routines": routines_with_unjoined_group()}},
    {"trials": 1.9},
    {"steps": "60"},
    {"base_seed": True},
    {"trials": 0},
    {"trails": 5},
    {"threshold": {"windw": 3}},
    {"variants": [dict(HYQL, case_max_size=-3)]},
    {"scenario": {"routines": routines_with_repeated_situation()}},
    {"scenario": {"drift": [{"step": 1000, "op": "ResampleRow", "target": "g0"}]}},
    {"scenario": {"affinity": 1.5}},
    {"scenario": {"affinity": -0.1}},
], ids=["unknown-override", "p", "alpha", "gamma", "variants-string",
        "variants-object", "metrics-string", "threshold-window", "recovery-window",
        "feature-weights-sum", "retrieval-threshold", "agent-user-not-in-population",
        "cf-k", "routine-place", "routine-place-unknown", "routine-place-city",
        "routine-place-root", "drift-op", "group-without-routine",
        "routine-weights-sum", "part-of-day", "day-class", "calendar", "drift-target",
        "drift-scope", "drift-step-negative", "variant-name-path", "warm-start-negative",
        "background-rate-negative", "routine-weight-negative", "alpha-schedule",
        "default-q", "scenario-cf-same-group-only", "scenario-seed",
        "scenario-misspelt-key", "routine-cognitive", "routine-unknown-group",
        "habit-misspelt-key", "drift-misspelt-key", "users-float", "groups-bool",
        "items-string", "day-length-float", "warm-start-float",
        "background-rate-string", "drift-step-float", "drift-object",
        "drift-empty-string", "name-array", "name-number",
        "unjoined-group-weights-sum", "trials-float", "steps-string", "base-seed-bool",
        "trials-zero", "spec-misspelt-key", "threshold-misspelt-key",
        "case-max-size-negative", "routine-repeated-situation", "drift-op-resample",
        "affinity-above-one", "affinity-negative"])
def test_bad_spec_exits_2_before_writing(tmp_path, changes):
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, **changes)), "--out", str(out)]) \
        == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("parallel, trials, cpus, workers", [
    (10_000, 1, 2, None),  # one trial: no pool at all
    (10_000, 3, 2, 2),
    (10_000, 3, 8, 3),
    (2, 3, 8, 2),
    (4, 3, None, None),  # CPU count unknown: serial
])
def test_parallel_starts_at_most_one_worker_per_trial_and_cpu(
        tmp_path, monkeypatch, parallel, trials, cpus, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "max_workers", [])
    monkeypatch.setattr(hyql.bench.os, "cpu_count", lambda: cpus)
    out = tmp_path / "out"
    assert main(["run", str(write_spec(tmp_path, trials=trials, steps=5)), "--out", str(out),
                 "--parallel", str(parallel)]) == EXIT_OK
    assert InProcessPool.max_workers == ([] if workers is None else [workers])
    assert main(["verify", str(out)]) == EXIT_OK


def test_serial_run_never_loads_the_process_pool(tmp_path):
    """A fresh interpreter's serial run leaves `multiprocessing` unimported."""
    script = ("import sys\n"
              "from hyql.cli import main\n"
              "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
              "print(code, 'concurrent.futures.process' in sys.modules,"
              " 'multiprocessing' in sys.modules)\n")
    src = str(Path(hyql.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(write_spec(tmp_path)),
                           str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False False"


# Values of a wrong type or out of range, JSON's NaN and infinities among them.
ODD_VALUES = [None, True, "x", 1.5, -1, [], {}, float("nan"), float("inf"), float("-inf")]


def json_object_at(document, path):
    """The JSON object reached by `path`, or None once a mutation has removed it."""
    for step in path:
        try:
            document = document[step]
        except (KeyError, IndexError, TypeError):
            return None
    return document if isinstance(document, dict) else None


@st.composite
def mutated_scenarios(draw):
    """The canonical scenario at small sizes with up to three mutations, each
    at the top level, in a habit or in the drift entry: a key dropped, a value
    replaced by one of ODD_VALUES (or by FLOAT_RANGE_INT, where the value is
    a float), or an unknown key added.

    `users` and `items` stay at 50 or below, or are 10**30, past the
    world-size bound. The other counts stay at 50 or below: a huge
    `warm_start_events` or `background_rate` is valid, and would only run
    long.
    """
    scenario = load_scenario("canonical")
    huge = st.just(10 ** 30)
    scenario.update(users=draw(st.integers(1, 50) | huge),
                    items=draw(st.integers(1, 50) | huge),
                    warm_start_events=draw(st.integers(0, 50)),
                    background_rate=draw(st.integers(0, 50)), agent_user="u00")
    scenario["drift"][0]["step"] = draw(st.integers(0, 10))
    paths = ([()] + [("routines", "g0", i) for i in range(len(scenario["routines"]["g0"]))]
             + [("drift", 0)])
    for _ in range(draw(st.integers(0, 3))):
        entry = json_object_at(scenario, draw(st.sampled_from(paths)))
        kind = draw(st.sampled_from(["drop", "retype", "add"]))
        if entry is None:
            continue
        if kind == "add" or not entry:
            entry["extra"] = 1
        elif kind == "drop":
            del entry[draw(st.sampled_from(sorted(entry)))]
        else:
            key = draw(st.sampled_from(sorted(entry)))
            floats = [FLOAT_RANGE_INT] if isinstance(entry[key], float) else []
            entry[key] = draw(st.sampled_from(ODD_VALUES + floats))
    return scenario


@settings(derandomize=True, deadline=None, max_examples=150)
@given(scenario=mutated_scenarios(), steps=st.integers(1, 10))
# the derandomized draws rarely bring FLOAT_RANGE_INT to a float key
@example(scenario=dict(load_scenario("canonical"), affinity=FLOAT_RANGE_INT), steps=1)
def test_a_mutated_scenario_runs_and_verifies_or_exits_2_before_writing(scenario, steps):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        spec = directory / "spec.json"
        spec.write_text(json.dumps(dict(BASE_SPEC, scenario="scenario.json", steps=steps)),
                        encoding="utf-8")
        out = directory / "out"
        code = main(["run", str(spec), "--out", str(out)])
        if code == EXIT_OK:
            assert main(["verify", str(out)]) == EXIT_OK
        else:
            assert code == EXIT_CONFIG
            assert not out.exists()


# A few steps on three users and four items, with a swap after step 4.
TINY_SCENARIO = dict(load_scenario("canonical"), users=3, items=4, agent_user="u00",
                     warm_start_events=10, background_rate=1,
                     drift=[{"step": 5, "op": "SwapTopItems", "target": "g0"}])


@st.composite
def mutated_specs(draw):
    """A spec of 1-3 trials, 1-10 steps and 1-2 variants on the tiny scenario,
    with up to three mutations, each at the top level or in a variant: a key
    dropped, a value replaced by one of ODD_VALUES or nested in [] or {}, or
    an unknown key added.

    Counts stay at 10 or below: a valid count such as 2**70 would run forever.
    """
    spec = {"scenario": "scenario.json", "trials": draw(st.integers(1, 3)),
            "steps": draw(st.integers(1, 10)), "base_seed": draw(st.integers(-3, 3000)),
            "variants": [{"name": v, "variant": v} for v in draw(st.lists(
                st.sampled_from(hyql.agent.VARIANTS), min_size=1, max_size=2, unique=True))]}
    paths = [()] + [("variants", i) for i in range(len(spec["variants"]))]
    for _ in range(draw(st.integers(0, 3))):
        entry = json_object_at(spec, draw(st.sampled_from(paths)))
        kind = draw(st.sampled_from(["drop", "retype", "nest", "add"]))
        if entry is None:
            continue
        if kind == "add" or not entry:
            entry["extra"] = 1
            continue
        key = draw(st.sampled_from(sorted(entry)))
        if kind == "drop":
            del entry[key]
        elif kind == "retype":
            entry[key] = draw(st.sampled_from(ODD_VALUES))
        else:
            entry[key] = draw(st.sampled_from([[entry[key]], {"x": entry[key]}]))
    return spec


@settings(derandomize=True, deadline=None, max_examples=100)
@given(spec=mutated_specs(), out_kind=st.sampled_from(["fresh", "a-file", "under-a-file"]))
def test_a_mutated_spec_runs_and_verifies_or_exits_2_before_writing(spec, out_kind):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "scenario.json").write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
        (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        blocker = directory / "blocker"
        blocker.write_text("kept\n", encoding="utf-8")
        out = {"fresh": directory / "out", "a-file": blocker,
               "under-a-file": blocker / "out"}[out_kind]
        code = main(["run", str(directory / "spec.json"), "--out", str(out)])
        if code == EXIT_OK:
            assert out_kind == "fresh"
            assert main(["verify", str(out)]) == EXIT_OK
        else:
            assert code == EXIT_CONFIG
            assert blocker.read_text(encoding="utf-8") == "kept\n"
            assert sorted(p.name for p in directory.iterdir()) == \
                ["blocker", "scenario.json", "spec.json"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished two-trial, two-variant run on the tiny scenario."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "scenario.json").write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    spec = write_spec(root, scenario="scenario.json", trials=2, steps=10, variants=[
        HYQL, {"name": "CFOnly", "variant": "CFOnly"}])
    assert main(["run", str(spec), "--out", str(root / "out")]) == EXIT_OK
    return root / "out"


# one trace, one event log and one preference table stand for all four: they
# share a format and a reader or a checker
RUN_FILES = ["metrics.csv", "spec.json", "scenario.json",
             "runs/HyQL/1001/history_actions.tsv", "runs/HyQL/1001/history_events.tsv",
             "runs/HyQL/1001/preferences.tsv"]

# a JSON token: a string, a number, true, false or null
JSON_TOKEN = re.compile(r'"[^"]*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null')
# a number with a fraction or an exponent: a float, not a count
FLOAT_LITERAL = re.compile(r'-?\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)')


def replace_field(line, suffix, index, value):
    """The line with one field replaced: a tab- or comma-separated field, or
    a JSON value in a JSON file, whose NaN, infinity and empty string are
    spelt as JSON spells them. FLOAT_RANGE_INT replaces only a float; a line
    without one stays as it is."""
    only_floats = value == str(FLOAT_RANGE_INT)
    if suffix == ".json":
        value = {"nan": "NaN", "inf": "Infinity", "": '""'}.get(value, value)
        tokens = [token for token in JSON_TOKEN.finditer(line)
                  if not line[token.end():].lstrip().startswith(":")  # not a key
                  and (not only_floats or FLOAT_LITERAL.fullmatch(token.group()))]
        if not tokens:
            return line
        token = tokens[index % len(tokens)]
        return line[:token.start()] + value + line[token.end():]
    fields = line.split("\t" if suffix == ".tsv" else ",")
    if only_floats and not FLOAT_LITERAL.fullmatch(fields[index % len(fields)]):
        return line
    fields[index % len(fields)] = value
    return ("\t" if suffix == ".tsv" else ",").join(fields)


TINY_ACTIONS, TINY_EVENTS = RUN_FILES[3], RUN_FILES[4]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(RUN_FILES), line=st.integers(0, 10**6),
       kind=st.sampled_from(["drop", "duplicate", "truncate", "append", "replace"]),
       field=st.integers(0, 20), text=st.sampled_from(["0", "9", "x", "\t", ",", "-"]),
       value=st.sampled_from(["nan", "inf", "1e999", "", HUGE_INT, str(FLOAT_RANGE_INT)]))
# values respelt as int() and float() still read them: the first step and
# the first event's timestamp and latitude, and a reward of 0 at step 1
@example(name=TINY_ACTIONS, line=1, kind="replace", field=0, text="0", value="0_0")
@example(name=TINY_ACTIONS, line=2, kind="replace", field=4, text="0", value=" +0.000 ")
@example(name=TINY_EVENTS, line=1, kind="replace", field=1, text="0", value="+85620")
@example(name=TINY_EVENTS, line=1, kind="replace", field=2, text="0",
         value="48.8834579606370310000")
# a branch and an item no run writes
@example(name=TINY_ACTIONS, line=1, kind="replace", field=3, text="0", value="Nonsense")
@example(name=TINY_ACTIONS, line=1, kind="replace", field=2, text="0", value="not-an-item")
def test_a_mutated_run_file_verifies_and_reports_with_exit_0_2_or_3(
        tiny_run, name, line, kind, field, text, value):
    """`verify` accepts a history file, a preference table or metrics.csv
    only in the bytes `run` wrote; a spec or scenario file may be respelt."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(tiny_run, out)
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        i = line % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][: len(lines[i]) // 2]
        elif kind == "append":
            lines[i] += text
        else:
            lines[i] = replace_field(lines[i], path.suffix, field, value)
        written = path.read_bytes()
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["verify", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MISMATCH)
        if path.suffix != ".json" and path.read_bytes() != written:
            assert code == EXIT_MISMATCH
        assert main(["report", str(out)]) in (EXIT_OK, EXIT_CONFIG, EXIT_MISMATCH)
