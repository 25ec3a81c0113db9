"""Command-line front end.

Runs a scenario file under one scheme (or all four), optionally writing
the trace, checking the scenario's expect lines, verifying cross-scheme
equivalence, and printing the overhead comparison report.

Exit status: 0 on success, 1 when a requested check failed, 2 for usage,
parse, or simulation errors.
"""

import argparse
import sys
from pathlib import Path

from .errors import SimulationError
from .scenario import ScenarioError, parse_scenario
from .schemes import (
    ALL_SCHEMES,
    OverheadReport,
    Scheme,
    check_expectations,
    simulate,
    totals_of,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def _file_name(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagersim",
        description="Deterministic page-fault dispatch simulator.",
    )
    parser.add_argument(
        "--scenario", required=True, metavar="FILE",
        help="scenario file to run",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in ALL_SCHEMES] + ["all"],
        default="all",
        help="dispatch scheme to simulate (default: all)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", type=_file_name,
        help="write the event trace here; with --scheme all the scheme "
        "name is inserted before the file extension",
    )
    parser.add_argument(
        "--report", choices=["table", "kv"],
        help="print the cross-scheme overhead report (runs every scheme)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify the scenario's expect lines; failures exit 1",
    )
    parser.add_argument(
        "--verify-equivalence", action="store_true",
        help="run all schemes and check that they agree on verdicts and "
        "final page tables, with costs ordered; failures exit 1",
    )
    return parser


def _trace_path(base: str, scheme: Scheme, multi: bool) -> Path:
    path = Path(base)
    if not multi:
        return path
    if path.suffix:
        return path.with_name(f"{path.stem}.{scheme.value}{path.suffix}")
    return path.with_name(f"{path.name}.{scheme.value}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.scheme == "all" or args.verify_equivalence or args.report:
        schemes = list(ALL_SCHEMES)
    else:
        schemes = [Scheme(args.scheme)]
    multi = len(schemes) > 1

    # Only --trace reads events; every other output reads counter rows,
    # verdicts and page tables, so without it the runs keep no events.
    keep_events = bool(args.trace)
    results = {}
    try:
        for scheme in schemes:
            results[scheme.value] = simulate(scheme, scenario, keep_events)
    except (SimulationError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    for token, res in results.items():
        print(
            f"{token}: faults={len(res.cycles)} events={len(res.trace)} "
            f"warnings={len(res.warnings)}"
        )
        for warning in res.warnings:
            print(f"{token}: warning: {warning}")
        if args.trace:
            path = _trace_path(args.trace, res.scheme, multi)
            try:
                path.write_text(res.trace.to_text())
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                return EXIT_ERROR
            print(f"{token}: trace written to {path}")

    failed = False

    if args.check:
        failures = check_expectations(results, scenario)
        for msg in failures:
            print(f"check: {msg}")
        n = len(scenario.expectations)
        print(f"check: {n} expectation line(s), {len(failures)} failure(s)")
        if not multi:  # lines for the schemes that did not run are skipped
            unrun = [
                e.scheme for e in scenario.expectations
                if e.scheme is not None and e.scheme not in results
            ]
            if unrun:
                print(
                    f"check: {len(unrun)} expectation line(s) not checked: "
                    f"scheme did not run ({', '.join(sorted(set(unrun)))})"
                )
        failed = failed or bool(failures)

    if args.verify_equivalence:
        problems = verify_equivalence(results)
        for msg in problems:
            print(f"equivalence: {msg}")
        verdict = "ok" if not problems else f"{len(problems)} problem(s)"
        print(f"equivalence: {verdict}")
        failed = failed or bool(problems)

    if args.report:
        report = OverheadReport([totals_of(r) for r in results.values()])
        rendered = report.as_table() if args.report == "table" else report.as_kv()
        print(rendered, end="")

    return EXIT_CHECK_FAILED if failed else EXIT_OK


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
