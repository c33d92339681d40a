"""Command-line experiment runner.

    hyql run <spec.json> [--out DIR] [--parallel K]
    hyql report <DIR>
    hyql verify <DIR>

Exit codes: 0 success, 2 configuration error (an unreadable spec or scenario,
an output directory that is missing or cannot be made), 3 verification
mismatch or a run file (a trace, metrics.csv) missing, unreadable or malformed.
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

    verify = sub.add_parser("verify", help="recompute metrics from traces and diff")
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
            print("verification OK: metrics match the persisted traces")
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
