"""``check_expectations`` and ``verify_equivalence`` judge each distinct
counter row, or row triple, once per call and compare the live page
tables.  These tests pin what that must not change: the exact messages
and their order, against ``check_oracle`` on every fixture, on the seeded
schedules and on the benchmark's generated workloads, with and without
tampered runs."""

import pytest

from pagersim import (
    ALL_SCHEMES,
    EventKind,
    SimulationError,
    VerdictCode,
    check_expectations,
    parse_scenario,
    simulate,
    verify_equivalence,
)
from pagersim.reproduce import FIXTURES
from pagersim.trace import SLOT, step, unpack_row

import check_oracle
from schedules import SCENARIOS, scenario as schedule
from support import (
    expect_heavy,
    fault_stream,
    fixture_scn,
    load_bench_module,
    python_calls,
)


def fitting(text: str):
    """The parsed scenario and its runs under every scheme it fits."""
    sf = parse_scenario(text)
    results = {}
    for scheme in ALL_SCHEMES:
        try:
            results[scheme.value] = simulate(scheme, sf)
        except SimulationError:
            continue
    return sf, results


def bump(res, cycle: int, kind: EventKind, by: int) -> None:
    """Change one count of one cycle's packed counter row by ``by``."""
    res.trace.cycle_counts[cycle] += by * step(kind)[1]


def tamper(results) -> None:
    """Break runs the way a faulty scheme would: counts in every few
    cycles, so that several cycles share each broken row, one page-table
    entry and one verdict."""
    for token, kind, by, every in (
        ("l4re", EventKind.CONTEXT_SWITCH, -1, 5),
        ("monolithic", EventKind.IPC_RECEIVE, 3, 7),
        ("proposed", EventKind.RESUME, -1, 11),
        ("l4-single", EventKind.MODE_SWITCH_K2U, 1, 13),
    ):
        res = results.get(token)
        if res is None:
            continue
        rows = res.trace.cycle_counts
        for i in range(0, len(rows), every):
            if by > 0 or unpack_row(rows[i])[SLOT[kind.value]] >= -by:
                bump(res, i, kind, by)
    last = results[max(results)]
    mapped = [sp.pages for sp in last.spaces.values() if sp.pages]
    if mapped:
        page, (present, frame, marker) = next(iter(mapped[-1].items()))
        mapped[-1][page] = (present, frame, marker + 1)
    if last.cycles:
        last.cycles[-1].verdict = VerdictCode.NOT_ACCEPTED


def assert_as_oracle(sf, results) -> tuple[list[str], list[str]]:
    got = check_expectations(results, sf), verify_equivalence(results)
    assert got == (
        check_oracle.check_expectations(results, sf),
        check_oracle.verify_equivalence(results),
    )
    return got


def assert_as_oracle_before_and_after_tampering(text: str) -> None:
    sf, results = fitting(text)
    assert_as_oracle(sf, results)
    if results:
        tamper(results)
        assert_as_oracle(sf, results)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_outputs_match_the_oracle(name):
    assert_as_oracle_before_and_after_tampering(fixture_scn(name))


def with_expects(text: str, faults: int) -> str:
    """``text`` with expect lines for its first ``faults`` fault cycles and
    one beyond: verdicts right and wrong, costs right and wrong, under
    every scheme and under one."""
    lines = []
    for i in range(faults + 1):
        lines += [
            f"expect fault={i} verdict=DISPATCHED mode=4 ctx=2 ipc=2 invocations=1",
            f"expect scheme=l4re fault={i} verdict=DISPATCHED mode=6 ctx=3",
            f"expect scheme=monolithic fault={i} verdict=NO_PAGER",
            f"expect fault={i} verdict=RESUMED_PRESENT mode=2 ctx=1",
        ]
    return text + "\n".join(lines) + "\n"


def test_seeded_schedule_outputs_match_the_oracle():
    for seed in range(SCENARIOS):
        assert_as_oracle_before_and_after_tampering(with_expects(schedule(seed), 12))


@pytest.mark.parametrize("name", ["fault-stream", "wide-spaces", "hot-mix"])
def test_bench_workload_outputs_match_the_oracle(name):
    workloads = load_bench_module("workloads")
    for seed in range(5):
        assert_as_oracle_before_and_after_tampering(workloads.generate(name, seed).text)


# ---- exact messages when checks fail -------------------------------------


def test_failing_expect_lines_that_share_a_row_are_each_reported():
    # Faults 0 to 5 share one packed row per scheme; the pager of faults
    # 6 and 7 never replies, so their cycles share another; fault 8 is a
    # protection fault.
    text = fault_stream(6).replace("regions=16", "regions=17") + (
        "thread U tid=5 asid=1 role=applicant pager=R\n"
        "thread V tid=6 asid=1 role=applicant pager=R\n"
        "thread W tid=7 asid=3 role=applicant pager=R\n"
        "thread R tid=8 asid=2 role=pager\n"
        "pager R policy=rejecting\n"
        "assign asid=1 rid=16 pager=R\n"
        "access U 0x400000 read\n"
        "access V 0x401000 read\n"
        "access W 0x0 read\n"
    ) + "".join(
        f"expect scheme=proposed fault={i} verdict=DISPATCHED mode=5 ctx=2\n"
        for i in range(3)
    ) + (
        "expect fault=4 verdict=DISPATCHED ipc=0\n"
        "expect scheme=l4re fault=6 verdict=DISPATCHED mode=6\n"
        "expect scheme=proposed fault=7 verdict=DISPATCHED ctx=2\n"
        "expect scheme=proposed fault=5 verdict=NO_PAGER mode=4\n"
        "expect scheme=proposed fault=8 verdict=DISPATCHED\n"
        "expect scheme=proposed fault=9 verdict=DISPATCHED\n"
    )
    sf, results = fitting(text)
    failures, problems = assert_as_oracle(sf, results)
    assert problems == []
    assert failures == [
        "[proposed] fault 0: mode_switches=4, expected 5",
        "[proposed] fault 1: mode_switches=4, expected 5",
        "[proposed] fault 2: mode_switches=4, expected 5",
        "[l4-single] fault 4: ipc_messages=2, expected 0",
        "[l4re] fault 4: ipc_messages=3, expected 0",
        "[proposed] fault 4: ipc_messages=2, expected 0",
        "[l4re] fault 6: cycle never completed",
        "[proposed] fault 7: cycle never completed",
        "[proposed] fault 5: verdict DISPATCHED, expected NO_PAGER",
        "[proposed] fault 8: verdict NO_PAGER, expected DISPATCHED",
        "[proposed] fault 9: only 9 fault(s) occurred",
    ]


def test_differing_tables_and_misordered_triples_are_reported_in_order():
    # A page table differs under two runs; the cycles of two broken row
    # triples, each shared by several cycles, are reported in cycle order.
    sf, results = fitting(fault_stream(12))
    for cycle in (2, 5, 9):
        bump(results["l4re"], cycle, EventKind.CONTEXT_SWITCH, -1)
    for cycle in (3, 9):
        bump(results["monolithic"], cycle, EventKind.IPC_SEND, 5)
    for token in ("l4re", "proposed"):
        pages = results[token].spaces[1].pages
        page, (present, frame, marker) = next(iter(pages.items()))
        pages[page] = (present, frame, marker + 1)
    failures, problems = assert_as_oracle(sf, results)
    assert failures == []
    l4re = "l4re (6, 2, 3, 2) not strictly above proposed (4, 2, 2, 1)"
    below = "proposed (4, 2, 2, 1) below monolithic (2, 0, 5, 0)"
    assert problems == [
        "final page tables differ between l4-single and l4re",
        "final page tables differ between l4-single and proposed",
        f"cycle 2: {l4re}",
        f"cycle 3: {below}",
        f"cycle 5: {l4re}",
        f"cycle 9: {l4re}",
        f"cycle 9: {below}",
    ]


# ---- what a call costs ---------------------------------------------------


def test_unpack_row_runs_once_per_distinct_row_judged():
    sf, results = fitting(expect_heavy(800))
    judged = {
        results[e.scheme].trace.cycle_counts[e.fault] for e in sf.expectations
    }
    triples = set(zip(*[
        results[t].trace.cycle_counts for t in ("monolithic", "proposed", "l4re")
    ]))
    assert len(judged) < 5 and len(triples) == 1
    for _ in range(2):  # a second call costs what the first did
        failures, _calls, (unpacked,) = python_calls(
            lambda: check_expectations(results, sf), unpack_row.__code__
        )
        assert failures == [] and unpacked == len(judged)
        problems, _calls, (unpacked,) = python_calls(
            lambda: verify_equivalence(results), unpack_row.__code__
        )
        assert problems == [] and unpacked == 3 * len(triples)
