"""Print the call figures that the run-loop and accounting budgets of
``tests/test_fast_path.py`` bound, as a Markdown table: Python-level calls
per fault of workload50 under the four schemes, and under each scheme
alone, per translate hit under each scheme, and per fault cycle of
``check_expectations`` plus
``verify_equivalence`` over the four runs of the expect-heavy stream.  The
figures come from the helpers those tests use, so they are the ones the
tests compare with ``CALLS_PER_FAULT_BUDGET``, ``CALLS_PER_HIT_BUDGET``
and ``EXPECT_HEAVY_CHECK_CALLS_PER_CYCLE_BUDGET``.  It checks nothing
against them.  It also prints the protocol steps recorded per fault of
workload50 under each scheme (``Trace.record`` calls), which no budget
bounds::

    PYTHONPATH=src python tests/call_counts.py
"""

import platform

from pagersim import ALL_SCHEMES, Simulator, parse_scenario
from pagersim.trace import Trace
from support import (
    calls_per_hit,
    check_verify_calls,
    expect_heavy,
    fixture_scn,
    python_calls,
    run_loop_calls,
)


def main() -> None:
    calls, faults = run_loop_calls(fixture_scn("workload50"))
    rows = [("calls per fault, workload50, four schemes", f"{calls / faults:.2f}")]
    for scheme in ALL_SCHEMES:
        calls, faults = run_loop_calls(fixture_scn("workload50"), (scheme,))
        rows.append(
            (f"calls per fault, workload50, {scheme.value}", f"{calls / faults:.2f}")
        )
    rows += [
        (f"calls per translate hit, {scheme.value}", f"{calls_per_hit(scheme):.2f}")
        for scheme in ALL_SCHEMES
    ]
    workload50 = parse_scenario(fixture_scn("workload50"))
    for scheme in ALL_SCHEMES:
        sim = Simulator(workload50, scheme)
        result, _, [records] = python_calls(sim.run, Trace.record.__code__)
        rows.append((
            f"protocol records per fault, workload50, {scheme.value}",
            f"{records / len(result.cycles):.2f}",
        ))
    _, calls, cycles = check_verify_calls(expect_heavy(800))
    rows.append(
        ("check + verify calls per cycle, expect-heavy 800", f"{calls / cycles:.4f}")
    )
    print(f"Run-loop and accounting calls, Python {platform.python_version()}:\n")
    print("| figure | calls |\n|---|---:|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    print()


if __name__ == "__main__":
    main()
