"""``check_expectations`` and ``verify_equivalence`` in their plainest
form, kept as a test oracle: every expect line's counter row is unpacked
and judged afresh, every dispatched cycle's rows are judged in cycle
order, and page tables are compared as ``page_snapshot`` copies.  The
library's versions judge each distinct row or row triple once and compare
the live tables; they must return the same lists, in the same order."""

from operator import ge, gt

from pagersim import CycleMetrics, VerdictCode
from pagersim.schemes import _costs, _resolved, _verdict
from pagersim.trace import unpack_row


def check_expectations(results, scenario) -> list[str]:
    failures: list[str] = []

    def fail(token: str, fault: int, what: str) -> None:
        failures.append(f"[{token}] fault {fault}: {what}")

    runs = {
        token: (res.cycles, res.trace.cycle_counts)
        for token, res in results.items()
    }
    every = sorted(results)
    for fault, expected, scheme, mode, ctx, ipc, invocations in (
        scenario.expectations
    ):
        wanted = (mode, ctx, ipc, invocations)
        for token in (scheme,) if scheme else every:
            run = runs.get(token)
            if run is None:
                continue
            cycles, rows = run
            if fault >= len(cycles):
                fail(token, fault, f"only {len(cycles)} fault(s) occurred")
                continue
            verdict = cycles[fault].verdict
            if verdict is not expected:
                got = "none (fault held, never dispatched)"
                if verdict is not None:
                    got = verdict.value
                fail(token, fault, f"verdict {got}, expected {expected.value}")
                continue
            if mode is None and ctx is None and ipc is None and invocations is None:
                continue
            row = unpack_row(rows[fault])
            if not _resolved(row):
                fail(token, fault, "cycle never completed")
                continue
            costs = _costs(row)
            if costs == wanted:
                continue
            for attr, got, want in zip(CycleMetrics._fields, costs, wanted):
                if want is not None and got != want:
                    fail(token, fault, f"{attr}={got}, expected {want}")
    return failures


def verify_equivalence(results) -> list[str]:
    problems: list[str] = []
    if len(results) < 2:
        return problems
    tokens = sorted(results)
    base_token = tokens[0]
    base = results[base_token]
    base_snap = base.page_snapshot()
    base_verdicts = list(map(_verdict, base.cycles))
    for token in tokens[1:]:
        res = results[token]
        if res.page_snapshot() != base_snap:
            problems.append(
                f"final page tables differ between {base_token} and {token}"
            )
        if list(map(_verdict, res.cycles)) != base_verdicts:
            problems.append(
                f"fault verdicts differ between {base_token} and {token}"
            )
    ordered = ("monolithic", "proposed", "l4re")
    if all(t in results for t in ordered):
        rows = zip(*[results[t].trace.cycle_counts for t in ordered])
        for cycle, verdict, triple in zip(base.cycles, base_verdicts, rows):
            if verdict is not VerdictCode.DISPATCHED:
                continue
            for problem in _misordered(*triple):
                problems.append(f"cycle {cycle.index}: {problem}")
    return problems


def _misordered(r0, r1, r2) -> list[str]:
    found: list[str] = []
    r0, r1, r2 = unpack_row(r0), unpack_row(r1), unpack_row(r2)
    if not (_resolved(r0) and _resolved(r1) and _resolved(r2)):
        return found
    m0, m1, m2 = _costs(r0), _costs(r1), _costs(r2)
    if not all(map(gt, m2, m1)):
        found.append(f"l4re {m2} not strictly above proposed {m1}")
    if not all(map(ge, m1, m0)):
        found.append(f"proposed {m1} below monolithic {m0}")
    return found
