"""tools/pairs.py: reading run.py's output and summarizing alternating pairs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402

RUN_OUTPUT = """\
# repeats: 41
# set-ups: 41
# digest: bc1dfca9
steps_per_s                                          11650 steps/s
{"correct": true, "attempted": 123, "failed": 0, "metrics": {"steps_per_s": \
{"value": 11650.0, "unit": "steps/s"}, "setup_s": {"value": 0.134, "unit": "s"}}}
"""


def run(pair, side, setup, rate, repeats=40):
    return {"pair": pair, "side": side, "correct": True, "info": {"repeats": str(repeats)},
            "metrics": {"setup_s": setup, "steps_per_s": rate, "peak_rss_mb": 30.0 + pair}}


def test_parse_run_reads_the_info_lines_and_the_json_line():
    parsed = pairs.parse_run(RUN_OUTPUT)
    assert parsed == {"correct": True, "info": {"repeats": "41", "set-ups": "41",
                                                "digest": "bc1dfca9"},
                      "metrics": {"steps_per_s": 11650.0, "setup_s": 0.134}}
    assert pairs.parse_run(RUN_OUTPUT.replace("true", "false"))["correct"] is False


def test_summary_gives_quartiles_relative_change_spread_and_wins():
    # the change lowers setup_s in 3 of 4 pairs and ties steps_per_s twice
    runs = [run(0, "parent", 0.10, 100.0), run(0, "change", 0.08, 110.0),
            run(1, "change", 0.09, 100.0, repeats=45), run(1, "parent", 0.12, 100.0),
            run(2, "parent", 0.11, 100.0), run(2, "change", 0.12, 100.0),
            run(3, "parent", 0.13, 90.0), run(3, "change", 0.07, 120.0),
            run(4, "parent", 0.5, 1.0)]  # an incomplete pair is left out
    lines = pairs.summarize(runs, {"setup_s": ("lower", 0.25), "steps_per_s": ("higher", 0.25),
                                   "step_us_p99": ("lower", 0.25)})
    assert lines[0] == "4 complete pairs"
    setup = next(line for line in lines if line.startswith("setup_s")).split()
    # parent 0.10, 0.11, 0.12, 0.13; change 0.07, 0.08, 0.09, 0.12
    assert setup[1:] == ["0.1075/0.115/0.1225", "0.0775/0.085/0.0975", "-26.1%",
                         "13.0%", "3/4", "within", "bound"]
    rate = next(line for line in lines if line.startswith("steps_per_s")).split()
    assert rate[-3:] == ["2/4", "within", "bound"]
    assert not any(line.startswith("step_us_p99") for line in lines)  # no values
    assert "   1 change repeats   45 peak_rss_mb 31.00" in lines
    assert len([line for line in lines if " repeats " in line]) == 8


def test_a_single_pair_has_its_values_as_quartiles():
    lines = pairs.summarize([run(0, "parent", 0.1, 1.0), run(0, "change", 0.2, 1.0)],
                            {"setup_s": ("lower", 0.25)})
    assert lines[2].split()[1:3] == ["0.1/0.1/0.1", "0.2/0.2/0.2"]
    assert lines[2].split()[-2:] == ["0/1", "worse"]


TIGHT = [1.0 + 0.01 * i for i in range(10)]  # quartile spread 4.5% of the median
WIDE = [0.6 + 0.1 * i for i in range(10)]  # quartile spread 43% of the median


@pytest.mark.parametrize("direction, parent, change, want", [
    ("lower", TIGHT, [1.3 * v for v in TIGHT], "worse"),
    ("higher", TIGHT, [0.7 * v for v in TIGHT], "worse"),
    ("lower", WIDE, WIDE[::-1], "unresolved"),
    ("lower", WIDE, [0.9 * v for v in WIDE], "unresolved"),  # wins 10/10, overlaps
    ("lower", WIDE, [0.1 + 0.04 * i for i in range(10)], "better"),  # below every parent
    ("lower", TIGHT, [v - 0.1 for v in TIGHT], "better"),
    ("higher", TIGHT, [v + 0.1 for v in TIGHT], "better"),
    ("lower", TIGHT, [v - 0.1 for v in TIGHT[:9]] + [2.0], "better"),  # wins 9/10
    ("lower", TIGHT, [v - 0.1 for v in TIGHT[:8]] + [2.0, 2.0], "within bound"),  # 8/10
    ("lower", TIGHT, [v - 0.01 for v in TIGHT], "within bound"),  # gap inside the spread
    ("lower", TIGHT, [1.2 * v for v in TIGHT], "within bound"),  # 20% worse, bound 25%
])
def test_verdict(direction, parent, change, want):
    assert pairs.verdict(parent, change, direction, 0.25) == want


def test_main_stops_at_a_run_that_is_not_correct(tmp_path, monkeypatch, capsys):
    outputs = iter([RUN_OUTPUT, RUN_OUTPUT.replace('"correct": true', '"correct": false')])
    monkeypatch.setattr(pairs, "run_once", lambda *args: pairs.parse_run(next(outputs)))
    out = tmp_path / "runs.json"
    assert pairs.main([str(ROOT), str(ROOT), "--workload", "cf-wide", "--pairs", "3",
                       "--json", str(out)]) == 1
    runs = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["pair"], r["side"], r["correct"]) for r in runs] == \
        [(0, "parent", True), (0, "change", False)]
    assert "stopping: the change run was not correct" in capsys.readouterr().err


def test_a_run_that_is_not_correct_stops_with_run_pys_reasons(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text('{"end_to_end": []}', encoding="utf-8")
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('error: plain worker exited 1', file=sys.stderr)\n"
        "print('# repeats: 0')\n"
        "print('{\"correct\": false, \"metrics\": {}}')\n", encoding="utf-8")
    out = tmp_path / "runs.json"
    assert pairs.main([str(checkout), str(checkout), "--workload", "canonical",
                       "--json", str(out)]) == 1
    assert ("stopping: the parent run was not correct: error: plain worker exited 1"
            in capsys.readouterr().err)
    [parent] = json.loads(out.read_text(encoding="utf-8"))
    assert parent["error"] == "error: plain worker exited 1"
