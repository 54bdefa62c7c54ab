"""Command-line entry point.

Exit codes: 0 all assertions passed, 1 assertion failure (a run's broken
trace rule is one), 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .trace import TraceInvariantViolation, verify_trace

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idplane",
        description="Cross-network identity plane simulator: run scenarios, "
        "verify traces, list bundled scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario YAML file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--trace", default=None, help="write the run trace (JSONL) here")
    run.add_argument("--ticks", type=int, default=None, help="override the tick ceiling")
    run.add_argument("--report", default=None, help="write the JSON run report here")

    demo = sub.add_parser("demo", help="run a bundled scenario by name")
    demo.add_argument("name", help="bundled scenario name (see list-scenarios)")
    demo.add_argument("--seed", type=int, default=None)
    demo.add_argument("--trace", default=None)

    verify = sub.add_parser("verify-trace", help="replay a trace file against invariants")
    verify.add_argument("trace_file")

    sub.add_parser("list-scenarios", help="list bundled scenarios")
    return parser


def _load_and_run(path, seed, trace_path, ticks=None, report_path=None) -> int:
    try:
        config = harness.load_scenario(path)
    except FileNotFoundError:
        print(f"no such scenario file: {path}", file=sys.stderr)
        return EXIT_CONFIG
    except harness.ScenarioValidationError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except harness.ScenarioError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if ticks is not None:
        config.tick_ceiling = ticks
    report = harness.run_scenario(config, seed=seed, trace_path=trace_path)
    for line in report.summary_lines():
        print(line)
    if report_path:
        Path(report_path).write_text(report.to_json(), encoding="utf-8")
    if report.errors:
        return EXIT_RUNTIME
    return EXIT_OK if report.ok else EXIT_ASSERTION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name, path in harness.bundled_scenarios().items():
            print(f"{name}\t{path}")
        return EXIT_OK

    if args.command == "verify-trace":
        try:
            violations = verify_trace(args.trace_file)
        except FileNotFoundError:
            print(f"no such trace file: {args.trace_file}", file=sys.stderr)
            return EXIT_CONFIG
        except TraceInvariantViolation as e:
            print(f"trace invariant violation: {e}", file=sys.stderr)
            return EXIT_ASSERTION
        if violations:
            for rule, line, message in violations:
                print(f"violation [{rule}] line {line}: {message}", file=sys.stderr)
            return EXIT_ASSERTION
        print("trace ok")
        return EXIT_OK

    if args.command == "demo":
        scenarios = harness.bundled_scenarios()
        if args.name not in scenarios:
            print(
                f"unknown scenario {args.name!r}; available: {', '.join(scenarios)}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        return _load_and_run(scenarios[args.name], args.seed, args.trace)

    return _load_and_run(args.scenario, args.seed, args.trace, args.ticks, args.report)


if __name__ == "__main__":
    sys.exit(main())
