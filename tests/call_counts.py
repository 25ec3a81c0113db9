"""Print the call figures that the run-loop budgets of
``tests/test_fast_path.py`` bound, as a Markdown table: Python-level calls
per fault of workload50 under the four schemes, and per translate hit
under each scheme.  The figures come from the helpers those tests use, so
they are the ones the tests compare with ``CALLS_PER_FAULT_BUDGET`` and
``CALLS_PER_HIT_BUDGET``.  It checks nothing against them::

    PYTHONPATH=src python tests/call_counts.py
"""

import platform

from pagersim import ALL_SCHEMES
from support import calls_per_hit, fixture_scn, run_loop_calls


def main() -> None:
    calls, faults = run_loop_calls(fixture_scn("workload50"))
    rows = [("calls per fault, workload50, four schemes", calls / faults)]
    rows += [
        (f"calls per translate hit, {scheme.value}", calls_per_hit(scheme))
        for scheme in ALL_SCHEMES
    ]
    print(f"Run-loop calls, Python {platform.python_version()}:\n")
    print("| figure | calls |\n|---|---:|")
    for name, value in rows:
        print(f"| {name} | {value:.2f} |")
    print()


if __name__ == "__main__":
    main()
