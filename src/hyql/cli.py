"""Command-line experiment runner.

    hyql run <spec.json> [--out DIR] [--parallel K]
    hyql report <DIR>
    hyql verify <DIR>

Exit codes: 0 success, 2 configuration error, 3 verification mismatch or a
bad run file; no input ends in a traceback. Each rule names the test in
tests/test_cli.py that pins it.

Exit 2, and `run` writes nothing under --out:
- a spec or scenario file that is a directory or not UTF-8, is not JSON,
  nests past the decoder's recursion limit or holds an integer of more
  than 4,300 digits (test_unreadable_spec_or_scenario_exits_2_before_writing,
  test_deeply_nested_json_exits_2_before_writing,
  test_an_integer_past_the_digit_limit_exits_2_before_writing);
- in the spec, a variant, the scenario, a habit or a drift entry: a missing
  or unknown key; a count that is not a JSON integer or is below its
  minimum; variants not uniquely and safely named, or unknown; an
  agent_user outside the users; routines not one per group; a routine,
  joined or not, whose weights are negative or do not sum to 1, or that
  repeats a situation; a place that is not a gazetteer leaf; an unknown
  part of day or cognitive kind; an affinity outside [0, 1]; a drift op
  other than SwapTopItems, or whose target or scope names nothing; a name
  that is not a string (test_bad_spec_exits_2_before_writing, a case each);
- an affinity or a routine weight that is a JSON integer too large for a
  float, such as 1 followed by 400 zeros
  (test_a_number_past_the_float_range_exits_2_before_writing);
- more than 10,000 items, more than 200,000 relevance rows (users x the
  longest routine) or more than 10,000,000 relevance values (users x items x
  the longest routine), checked before the world is built
  (test_a_world_past_the_size_bound_exits_2_before_writing);
- --out at a file or under one (test_out_at_or_under_a_file_exits_2_before_writing);
- `report` or `verify` of a missing directory, and `verify` of a spec.json
  that breaks a spec rule (TestReport, TestVerify) or of a scenario.json
  whose affinity or routine weight is too large for a float, or whose world
  is past the size bound (test_verify_of_a_number_past_the_float_range_exits_2,
  test_verify_of_a_world_past_the_size_bound_exits_2).
Every other scenario or spec runs and verifies; a huge `steps`,
`warm_start_events` or `background_rate` is a valid long run
(test_a_mutated_scenario_runs_and_verifies_or_exits_2_before_writing,
test_a_mutated_spec_runs_and_verifies_or_exits_2_before_writing).

Exit 3, naming the bad run file's path and line: a run file that is
missing, a directory or not UTF-8 (TestReport,
test_unreadable_run_file_exits_3); a trace with a wrong header, a short
line, a reward outside [0, 1] or too few lines (TestVerify); a run written
under another schema version, such as v1
(test_a_run_written_under_schema_v1_exits_3); a history
line other than the one hyql writes at its position, whose step and
situation follow from the line's place and its step's logged event: a
trace situation swapped for another valid key, one whose event was moved
elsewhere, one naming a place the gazetteer lacks and one no event gives
(test_a_trace_situation_swapped_for_another_valid_key_is_a_mismatch,
test_an_event_moved_to_another_place_is_a_mismatch,
test_a_trace_naming_a_place_the_gazetteer_lacks_exits_3,
test_a_situation_no_event_gives_exits_3_and_interns_no_key), or a value
spelt otherwise than `run` writes it, such as a step `0_0`, a reward
` +0.000 `, a timestamp `+22500` or a latitude with trailing zeros
(test_a_value_spelt_otherwise_than_hyql_writes_it_is_a_mismatch); a history
file with `\r\n` endings, a blank line or no newline after its last line
(test_a_history_file_in_other_bytes_is_a_mismatch); an event log that is
not one event per step and one more, the last step's next event
(test_an_event_log_missing_its_last_line_is_a_mismatch); a metrics.csv
row short of a field (TestReport); metrics that differ from those
recomputed from the traces (perfbench's
test_tampered_reward_fails_that_trial); a metrics.csv or a preferences.tsv
that differs, byte for byte and line endings included, from the text its
traces give (test_crlf_line_endings_are_a_mismatch), a hand-edited
preference table and one with the old per-step header included (TestVerify's
test_hand_edited_preference_table_is_a_mismatch and
test_per_step_preference_table_is_a_mismatch); a trace
branch outside the four tags
(test_a_branch_outside_the_four_tags_is_a_mismatch); a trace action
outside the scenario's catalog
(test_an_action_outside_the_catalog_is_a_mismatch); an event other than
the one the run's seed gives, even where its situation is unchanged
(test_an_event_its_seed_does_not_give_is_a_mismatch). Any mutated run file
makes `verify` and `report` exit 0, 2 or 3, and `verify` exits 0 on a
mutated history file, preferences.tsv or metrics.csv only if its bytes are
unchanged (test_a_mutated_run_file_verifies_and_reports_with_exit_0_2_or_3).
The codes themselves are pinned as literals
(test_the_documented_exit_codes_are_2_and_3).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (ConfigError, load_experiment_spec, report_dir,
                    run_experiment, verify_dir)
from .store import StoreParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyql",
                                     description="Seeded recommender benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment spec")
    run.add_argument("spec", help="experiment spec JSON file")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--parallel", type=int, default=1,
                     help="worker processes (outputs are identical for any K)")

    report = sub.add_parser("report", help="summarize a finished experiment")
    report.add_argument("dir", help="experiment output directory")

    verify = sub.add_parser("verify", help="recompute metrics and preference tables "
                                           "from traces read against their event "
                                           "logs, and diff")
    verify.add_argument("dir", help="experiment output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = load_experiment_spec(args.spec)
            rows = run_experiment(spec, args.out, parallel=max(1, args.parallel))
            print(f"wrote {len(rows)} metric rows to {Path(args.out) / 'metrics.csv'}")
            return EXIT_OK
        if args.command == "report":
            print(report_dir(args.dir))
            return EXIT_OK
        if args.command == "verify":
            mismatches = verify_dir(args.dir)
            if mismatches:
                for line in mismatches[:20]:
                    print(line, file=sys.stderr)
                print(f"verification FAILED: {len(mismatches)} mismatched lines",
                      file=sys.stderr)
                return EXIT_MISMATCH
            print("verification OK: metrics and preference tables match the traces, "
                  "and the traces their event logs")
            return EXIT_OK
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StoreParseError as exc:
        print(f"{args.command} FAILED: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
