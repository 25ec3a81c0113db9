import hashlib
import sys
import tracemalloc

import pytest

from pagersim import (
    ALL_SCHEMES,
    AddressSpace,
    EventKind,
    OverheadReport,
    Scheme,
    SimResult,
    Simulator,
    ThreadRole,
    VerdictCode,
    check_expectations,
    cycle_metrics,
    overhead_report,
    parse_scenario,
    simulate,
    totals_of,
    verify_equivalence,
)
from pagersim.errors import (
    IncompleteCycleError,
    NoDatabaseEntryError,
    SchemeMismatchError,
    SimulationError,
)
from pagersim.reproduce import FIXTURES
from pagersim.trace import SLOT, Trace
from support import fitting_results, fixture_scn, golden, golden_digests


def run_fixture(name: str, scheme: Scheme) -> SimResult:
    return simulate(scheme, parse_scenario(fixture_scn(name)))


# ---- golden traces, byte for byte ----------------------------------------


def test_monolithic_cycle_matches_golden():
    trace = run_fixture("table1", Scheme.MONOLITHIC).trace
    assert trace.to_text() == golden("table1.monolithic.trace")


def test_region_dispatch_cycle_matches_golden():
    trace = run_fixture("table1", Scheme.REGION_DISPATCH).trace
    assert trace.to_text() == golden("table1.proposed.trace")


def test_single_pager_cycle_equals_region_dispatch_here():
    # With one pager serving everything the two schemes are the same
    # machine word for word.
    trace = run_fixture("table1", Scheme.L4_SINGLE).trace
    assert trace.to_text() == golden("table1.proposed.trace")


def test_l4re_cycle_matches_golden():
    trace = run_fixture("table1", Scheme.L4RE).trace
    assert trace.to_text() == golden("table1.l4re.trace")


def test_concurrent_fault_race_matches_golden():
    trace = run_fixture("fig6", Scheme.REGION_DISPATCH).trace
    assert trace.to_text() == golden("fig6.proposed.trace")


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fitting_trace_matches_its_golden_digest(name):
    got = {
        f"{name}.{token}": hashlib.sha256(res.trace.to_text().encode()).hexdigest()
        for token, res in fitting_results(name).items()
    }
    want = {k: v for k, v in golden_digests().items() if k.startswith(f"{name}.")}
    assert got == want


# ---- per-cycle metrics ---------------------------------------------------


def test_cycle_metrics_per_scheme():
    shapes = {
        Scheme.MONOLITHIC: (2, 0, 0, 0),
        Scheme.L4_SINGLE: (4, 2, 2, 1),
        Scheme.REGION_DISPATCH: (4, 2, 2, 1),
        Scheme.L4RE: (6, 3, 3, 2),
    }
    for scheme, want in shapes.items():
        res = run_fixture("table1", scheme)
        assert cycle_metrics(res.trace, 0) == want, scheme


def test_cycle_metrics_missing_index():
    res = run_fixture("table1", Scheme.REGION_DISPATCH)
    with pytest.raises(ValueError):
        cycle_metrics(res.trace, 5)


def test_unanswered_fault_is_an_incomplete_cycle():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant pager=P\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=rejecting\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
    )
    res = simulate(Scheme.REGION_DISPATCH, sf)
    assert not res.cycles[0].closed
    with pytest.raises(IncompleteCycleError):
        cycle_metrics(res.trace, 0)


def test_protection_fault_cycle_is_incomplete():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "access T 0x0 read\n"
    )
    res = simulate(Scheme.MONOLITHIC, sf)
    assert res.cycles[0].verdict.value == "NO_PAGER"
    with pytest.raises(IncompleteCycleError):
        cycle_metrics(res.trace, 0)


# Cycle 0 resolves, cycle 1 is a protection fault (region 2 has no pager)
# and cycle 2 is held and never dispatched.  Fits every scheme.
THREE_CYCLES = (
    "layout regions=8 pages_per_region=4 page_size=4096\n"
    "thread T tid=1 asid=1 role=applicant\n"
    "thread U tid=2 asid=1 role=applicant\n"
    "thread V tid=3 asid=1 role=applicant\n"
    "thread P tid=4 asid=2 role=pager\n"
    "pager P policy=anonymous\n"
    "assign asid=1 rid=0 pager=P\n"
    "access T 0x1000 read\n"
    "access U 0x8000 read\n"
    "access V 0x2000 read hold\n"
)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_cycle_metrics_bounds_and_incomplete_cycles(scheme):
    res = simulate(scheme, parse_scenario(THREE_CYCLES))
    assert [c.verdict for c in res.cycles] == [
        VerdictCode.DISPATCHED, VerdictCode.NO_PAGER, None
    ]
    assert cycle_metrics(res.trace, 0).mode_switches > 0
    # -3 would read cycle 0's counters, -1 the held cycle's.
    for index in (-1, -3, 3, 4):
        with pytest.raises(ValueError):
            cycle_metrics(res.trace, index)
    for index in (1, 2):
        with pytest.raises(IncompleteCycleError):
            cycle_metrics(res.trace, index)


def test_totals_scale_linearly_with_fault_count():
    sf = parse_scenario(fixture_scn("workload50"))
    per_fault = {
        "monolithic": (2, 0, 0, 0),
        "l4-single": (4, 2, 2, 1),
        "proposed": (4, 2, 2, 1),
        "l4re": (6, 3, 3, 2),
    }
    for scheme in Scheme:
        totals = totals_of(simulate(scheme, sf))
        m, c, i, p = per_fault[scheme.value]
        assert totals.faults == 50
        assert (
            totals.mode_switches,
            totals.context_switches,
            totals.ipc_messages,
            totals.pager_invocations,
        ) == (50 * m, 50 * c, 50 * i, 50 * p)


def test_attributed_events_stay_inside_their_cycle_window():
    # Attribution never leaks outside the trap..close span of a cycle.
    for name, scheme in (
        ("workload50", Scheme.REGION_DISPATCH),
        ("workload50", Scheme.L4RE),
        ("fig6", Scheme.REGION_DISPATCH),
        ("classify", Scheme.REGION_DISPATCH),
    ):
        res = run_fixture(name, scheme)
        traps = []
        for cycle in res.cycles:
            events = res.trace.of_cycle(cycle.index)
            assert events, cycle
            assert events[0].kind is EventKind.MODE_SWITCH_U2K
            traps.append(events[0].seq)
            seqs = [ev.seq for ev in events]
            assert seqs == sorted(seqs)
        # Cycles are numbered in trap order.
        assert traps == sorted(traps)


# ---- cross-scheme checks -------------------------------------------------


def all_results(name: str) -> dict[str, SimResult]:
    sf = parse_scenario(fixture_scn(name))
    return {s.value: simulate(s, sf) for s in Scheme}


def test_workload_page_tables_identical_across_schemes():
    results = all_results("workload50")
    snapshots = [res.page_snapshot() for res in results.values()]
    assert all(s == snapshots[0] for s in snapshots[1:])
    assert verify_equivalence(results) == []


def test_a_single_result_has_nothing_to_compare():
    results = all_results("table1")
    assert verify_equivalence({"l4re": results["l4re"]}) == []


def test_verdicts_identical_across_schemes_on_classify():
    results = all_results("classify")
    verdict_rows = [
        [c.verdict for c in res.cycles] for res in results.values()
    ]
    assert all(row == verdict_rows[0] for row in verdict_rows[1:])
    assert verify_equivalence(results) == []


def test_expectations_of_shipped_fixtures_hold():
    for name in ("table1", "classify", "revoke", "workload50"):
        sf = parse_scenario(fixture_scn(name))
        results = {s.value: simulate(s, sf) for s in Scheme}
        assert check_expectations(results, sf) == [], name
    fig6 = parse_scenario(fixture_scn("fig6"))
    results = {"proposed": simulate(Scheme.REGION_DISPATCH, fig6)}
    assert check_expectations(results, fig6) == []


def test_check_expectations_reports_mismatches():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
        "expect fault=0 verdict=DISPATCHED mode=999\n"
        "expect fault=1 verdict=DISPATCHED\n"
    )
    results = {"proposed": simulate(Scheme.REGION_DISPATCH, sf)}
    assert check_expectations(results, sf) == [
        "[proposed] fault 0: mode_switches=4, expected 999",
        "[proposed] fault 1: only 1 fault(s) occurred",
    ]


# Fault 0 is dispatched to a pager that never replies, fault 1 is a
# protection fault (region 1 has no pager) and fault 2 is held.
UNSETTLED = (
    "layout regions=8 pages_per_region=4 page_size=4096\n"
    "thread T tid=1 asid=1 role=applicant\n"
    "thread U tid=2 asid=1 role=applicant\n"
    "thread V tid=3 asid=1 role=applicant\n"
    "thread P tid=4 asid=2 role=pager\n"
    "pager P policy=rejecting\n"
    "assign asid=1 rid=0 pager=P\n"
    "access T 0x0 read\n"
    "access U 0x4000 read\n"
    "access V 0x1000 read hold\n"
    "expect fault=0 verdict=DISPATCHED mode=4\n"
    "expect fault=0 verdict=NO_PAGER\n"
    "expect fault=1 verdict=NO_PAGER ctx=0\n"
    "expect fault=1 verdict=DISPATCHED\n"
    "expect fault=2 verdict=DISPATCHED\n"
)


def test_check_expectations_failure_lines_are_exact():
    sf = parse_scenario(UNSETTLED)
    results = {"proposed": simulate(Scheme.REGION_DISPATCH, sf)}
    assert check_expectations(results, sf) == [
        "[proposed] fault 0: cycle never completed",
        "[proposed] fault 0: verdict DISPATCHED, expected NO_PAGER",
        "[proposed] fault 1: cycle never completed",
        "[proposed] fault 1: verdict NO_PAGER, expected DISPATCHED",
        "[proposed] fault 2: verdict none (fault held, never dispatched), "
        "expected DISPATCHED",
    ]


def test_check_expectations_cost_lines_are_exact():
    sf = parse_scenario(
        fixture_scn("table1")
        + "expect fault=0 verdict=DISPATCHED mode=5 ctx=2 ipc=0 invocations=9\n"
    )
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    assert check_expectations(results, sf) == [
        "[l4-single] fault 0: mode_switches=4, expected 5",
        "[l4-single] fault 0: ipc_messages=2, expected 0",
        "[l4-single] fault 0: pager_invocations=1, expected 9",
        "[l4re] fault 0: mode_switches=6, expected 5",
        "[l4re] fault 0: context_switches=3, expected 2",
        "[l4re] fault 0: ipc_messages=3, expected 0",
        "[l4re] fault 0: pager_invocations=2, expected 9",
        "[monolithic] fault 0: mode_switches=2, expected 5",
        "[monolithic] fault 0: context_switches=0, expected 2",
        "[monolithic] fault 0: pager_invocations=0, expected 9",
        "[proposed] fault 0: mode_switches=4, expected 5",
        "[proposed] fault 0: ipc_messages=2, expected 0",
        "[proposed] fault 0: pager_invocations=1, expected 9",
    ]


def _bump(res: SimResult, cycle: int, kind: EventKind, by: int) -> None:
    """Tamper with one count in one cycle's counter row."""
    res.trace.cycle_counts[cycle][SLOT[kind.value]] += by


def test_verify_reports_l4re_not_above_proposed():
    results = all_results("table1")
    _bump(results["l4re"], 0, EventKind.CONTEXT_SWITCH, -1)
    assert verify_equivalence(results) == [
        "cycle 0: l4re (6, 2, 3, 2) not strictly above proposed (4, 2, 2, 1)",
    ]


def test_verify_reports_proposed_below_monolithic():
    results = all_results("table1")
    _bump(results["monolithic"], 0, EventKind.IPC_RECEIVE, 3)
    assert verify_equivalence(results) == [
        "cycle 0: proposed (4, 2, 2, 1) below monolithic (2, 0, 0, 3)",
    ]


def test_verify_skips_cycles_that_never_resumed():
    results = all_results("table1")
    _bump(results["l4re"], 0, EventKind.CONTEXT_SWITCH, -3)
    _bump(results["l4re"], 0, EventKind.RESUME, -1)
    assert verify_equivalence(results) == []


def test_verify_reports_differing_page_tables_and_verdicts():
    results = all_results("table1")
    pages = results["proposed"].spaces[1].pages
    page, (present, frame, marker) = next(iter(pages.items()))
    pages[page] = (present, frame, marker + 1)
    results["l4re"].cycles[0].verdict = VerdictCode.NO_PAGER
    assert verify_equivalence(results) == [
        "fault verdicts differ between l4-single and l4re",
        "final page tables differ between l4-single and proposed",
    ]


def test_verify_reports_every_cycle_of_a_shared_bad_row_pattern():
    # All 50 dispatched cycles of workload50 share one row pattern.  Two
    # cycles tampered alike share a new one, judged once, and each is
    # reported under its own index; the untouched cycles between them,
    # whose rows are the original pattern, are not.
    results = all_results("workload50")
    for cycle in (7, 31):
        _bump(results["l4re"], cycle, EventKind.CONTEXT_SWITCH, -1)
    rows = [results[t].trace.cycle_counts for t in ("monolithic", "proposed", "l4re")]
    assert [r[8] for r in rows] == [r[6] for r in rows]
    assert verify_equivalence(results) == [
        f"cycle {cycle}: l4re (6, 2, 3, 2) not strictly above proposed "
        "(4, 2, 2, 1)"
        for cycle in (7, 31)
    ]


@pytest.mark.parametrize("emptied", ["l4-single", "proposed"])
def test_verify_reports_a_space_mapped_under_one_scheme_only(emptied):
    # An empty table is left out of the snapshot, so a space that is empty
    # under one scheme and mapped under the others is still a difference,
    # whether the empty one is the base of the comparison or not.
    results = all_results("table1")
    results[emptied].spaces[1].pages.clear()
    assert results[emptied].page_snapshot() == {}
    others = [t for t in sorted(results)[1:] if t != emptied]
    differing = others if emptied == "l4-single" else [emptied]
    assert verify_equivalence(results) == [
        f"final page tables differ between l4-single and {token}"
        for token in differing
    ]


def test_overhead_report_reductions_are_exact():
    from fractions import Fraction

    report = overhead_report(parse_scenario(fixture_scn("table1")))
    assert report.reduction_mode == Fraction(1, 3)
    assert report.reduction_ctx == Fraction(1, 3)
    table = report.as_table()
    assert "33.3%" in table and "(1/3)" in table
    kv = report.as_kv()
    assert "reduction_mode_switches=1/3" in kv
    assert "scheme=proposed" in kv


def test_report_from_a_subset_of_schemes_has_no_reduction():
    sf = parse_scenario(fixture_scn("table1"))
    report = OverheadReport([totals_of(simulate(Scheme.REGION_DISPATCH, sf))])
    assert report.reduction_mode is None and report.reduction_ctx is None
    assert report.as_table() == (
        "scheme    faults  mode_switches  context_switches  ipc_messages"
        "  pager_invocations\n"
        "proposed       1              4                 2             2"
        "                  1\n"
    )
    assert report.as_kv() == (
        "scheme=proposed faults=1 mode_switches=4 context_switches=2"
        " ipc_messages=2 pager_invocations=1\n"
    )
    # l4re without proposed: the rows in the order given, still no line.
    rows = [totals_of(simulate(s, sf)) for s in (Scheme.L4RE, Scheme.MONOLITHIC)]
    report = OverheadReport(rows)
    assert report.reduction_mode is None
    assert [line.split()[0] for line in report.as_table().splitlines()] == [
        "scheme", "l4re", "monolithic"
    ]


# ---- scheme wiring and mismatches ----------------------------------------


def test_l4re_auto_creates_region_mapper_thread():
    res = run_fixture("table1", Scheme.L4RE)
    rm_sends = [
        ev for ev in res.trace
        if ev.kind is EventKind.IPC_SEND and ev.args[2] == "REFLECTION"
    ]
    assert len(rm_sends) == 1
    assert rm_sends[0].args[0] == 3  # first free tid after the declared two


def test_l4re_uses_declared_mapper_and_database():
    res = simulate(Scheme.L4RE, parse_scenario(fixture_scn("l4re-reflect")))
    reflections = [
        ev.args for ev in res.trace
        if ev.kind is EventKind.IPC_SEND and ev.args[2] == "REFLECTION"
    ]
    # Declared mapper tid 2 forwards to P1 (tid 3) then P2 (tid 4).
    assert [args[0] for args in reflections] == [2, 2]
    assert [args[1] for args in reflections] == [3, 4]


# A reflecting pager that is itself a reflection target: the space's
# mapper reflects to R, whose own database reflects on to P2.
CHAINED_REFLECTION = """\
layout regions=8 pages_per_region=4 page_size=4096
thread T tid=1 asid=1 role=applicant
thread R tid=2 asid=2 role=pager
thread P2 tid=3 asid=2 role=pager
pager R policy=reflecting
pager P2 policy=anonymous
dbrange pager=R start=0x0 end=0x10000 target=P2
dbrange asid=1 start=0x0 end=0x10000 target=R
assign asid=1 rid=0 pager=P2
access T 0x1000 read
access T 0x1000 read
"""


def test_chained_reflection_goes_through_every_reflecting_pager():
    res = simulate(Scheme.L4RE, parse_scenario(CHAINED_REFLECTION))
    assert [c.verdict for c in res.cycles] == [VerdictCode.DISPATCHED]
    assert cycle_metrics(res.trace, 0) == (8, 4, 4, 3)
    reflections = [
        ev.args[:2] for ev in res.trace
        if ev.kind is EventKind.IPC_SEND and ev.args[2] == "REFLECTION"
    ]
    assert reflections == [(4, 2), (2, 3)]  # mapper -> R -> P2
    assert hashlib.sha256(res.trace.to_text().encode()).hexdigest() == (
        "f07154751e83dea93cbea63811a07a08570d9d6fd9b3796016e69bd42a248fdf"
    )


def test_reflecting_pager_without_a_database_covers_nothing():
    # No dbrange lines on R: its reflection finds no range, an error the
    # command line reports, rather than a missing database.
    sf = parse_scenario(
        CHAINED_REFLECTION.replace(
            "dbrange pager=R start=0x0 end=0x10000 target=P2\n", ""
        )
    )
    with pytest.raises(NoDatabaseEntryError, match="no range covers 0x1000"):
        simulate(Scheme.L4RE, sf)


def test_pager_step_is_rejected_under_monolithic():
    sf = parse_scenario(fixture_scn("fig6"))
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.MONOLITHIC, sf)


def test_manual_step_under_l4re_names_the_waiting_region_mapper():
    # fig6 steps its pager by hand; under l4re the fault waits at the
    # implicit region mapper rm1 (tid 4), which pager-step cannot name.
    sf = parse_scenario(fixture_scn("fig6"))
    with pytest.raises(SimulationError) as info:
        simulate(Scheme.L4RE, sf)
    assert str(info.value) == (
        "pager 'P' has no pending action: the fault waits at region mapper "
        "'rm1' (tid 4), and mode=manual cannot step a region mapper"
    )


def test_mapping_database_requires_l4re():
    sf = parse_scenario(fixture_scn("l4re-reflect"))
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.REGION_DISPATCH, sf)


def test_reflecting_pager_requires_l4re():
    sf = parse_scenario(
        "thread P tid=1 asid=1 role=pager\n"
        "pager P policy=reflecting\n"
    )
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.MONOLITHIC, sf)


def test_single_pager_scheme_needs_unambiguous_pager():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "thread Q tid=3 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "pager Q policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
    )
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.L4_SINGLE, sf)
    # The same file is fine where the region table does the routing.
    assert simulate(Scheme.REGION_DISPATCH, sf).cycles[0].closed


def test_region_mapper_must_not_fault_under_l4re():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread RM tid=1 asid=1 role=region_mapper\n"
        "access RM 0x0 read\n"
    )
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.L4RE, sf)


def test_two_region_mappers_for_one_space_rejected():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread A tid=1 asid=1 role=applicant\n"
        "thread R1 tid=2 asid=1 role=region_mapper\n"
        "thread R2 tid=3 asid=1 role=region_mapper\n"
        "access A 0x0 read\n"
    )
    with pytest.raises(SchemeMismatchError):
        simulate(Scheme.L4RE, sf)


def test_dispatch_without_held_fault_is_an_error():
    sf = parse_scenario(
        "thread T tid=1 asid=1 role=applicant\n"
        "dispatch T\n"
    )
    with pytest.raises(SimulationError):
        simulate(Scheme.MONOLITHIC, sf)


# ---- scheduling options --------------------------------------------------


def test_round_robin_same_seed_same_trace():
    text = (
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "option schedule=round-robin seed=3\n"
        "thread A tid=1 asid=1 role=applicant\n"
        "thread B tid=2 asid=1 role=applicant\n"
        "thread C tid=3 asid=1 role=applicant\n"
        "yield\nyield\nyield\nyield\n"
    )
    first = simulate(Scheme.MONOLITHIC, parse_scenario(text)).trace
    second = simulate(Scheme.MONOLITHIC, parse_scenario(text)).trace
    assert first.to_text() == second.to_text()
    reseeded_text = text.replace("seed=3", "seed=4")
    reseeded = simulate(Scheme.MONOLITHIC, parse_scenario(reseeded_text)).trace
    assert reseeded.to_text() != first.to_text()


def test_out_of_frames_surfaces():
    from pagersim.errors import OutOfFramesError

    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "option frames=1\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
        "access T 0x1000 read\n"
    )
    with pytest.raises(OutOfFramesError):
        simulate(Scheme.REGION_DISPATCH, sf)


def test_fixed_pager_without_backing_leaves_fault_open_with_warning():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=fixed\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
    )
    res = simulate(Scheme.REGION_DISPATCH, sf)
    assert not res.cycles[0].closed
    assert any("no frame" in w for w in res.warnings)


# ---- accounting against a whole-trace reference --------------------------


def reference_costs(events) -> tuple[int, int, int, int]:
    kinds = [ev.kind for ev in events]
    return (
        kinds.count(EventKind.MODE_SWITCH_U2K)
        + kinds.count(EventKind.MODE_SWITCH_K2U),
        kinds.count(EventKind.CONTEXT_SWITCH),
        kinds.count(EventKind.IPC_SEND),
        kinds.count(EventKind.IPC_RECEIVE),
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_of_cycle_equals_a_whole_trace_scan(name):
    results = fitting_results(name)
    assert results
    for res in results.values():
        for i in range(-1, len(res.cycles) + 1):
            assert res.trace.of_cycle(i) == [
                ev for ev in res.trace if ev.cycle == i
            ], (res.scheme, i)


@pytest.mark.parametrize("name", FIXTURES)
def test_costs_equal_per_kind_counts(name):
    for res in fitting_results(name).values():
        totals = totals_of(res)
        assert (
            totals.mode_switches,
            totals.context_switches,
            totals.ipc_messages,
            totals.pager_invocations,
        ) == reference_costs(ev for ev in res.trace if ev.cycle is not None)
        for cycle in res.cycles:
            try:
                got = cycle_metrics(res.trace, cycle.index)
            except IncompleteCycleError:
                continue
            want = reference_costs(
                ev for ev in res.trace if ev.cycle == cycle.index
            )
            assert got == want, (res.scheme, cycle.index)


# ---- one owner for the fault protocol ------------------------------------

# Modules that only record what their callers ask for.
_RECORDERS = ("pagersim.engine", "pagersim.trace")


@pytest.mark.parametrize("name", FIXTURES)
def test_every_attributed_event_is_emitted_by_the_dispatcher(name, monkeypatch):
    append = Trace.append
    emitters = set()

    def recording_append(trace, kind, args=(), cycle=None):
        if cycle is not None:
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] in _RECORDERS:
                frame = frame.f_back
            # The method's class and name: co_qualname is 3.11+ only.
            owner = frame.f_locals.get("self")
            function = frame.f_code.co_name
            if owner is not None:
                function = f"{type(owner).__name__}.{function}"
            emitters.add((frame.f_globals["__name__"], function, kind.name))
        return append(trace, kind, args, cycle)

    monkeypatch.setattr(Trace, "append", recording_append)
    assert fitting_results(name)
    assert emitters
    assert {
        (function, kind)
        for module, function, kind in emitters
        if module != "pagersim.fault_dispatch"
    } == set()


# ---- allocation follows what the scenario uses ---------------------------

# 65536 regions of 64 KiB each cover the whole 32-bit space; each of the two
# spaces has one assigned region.
WIDE_LAYOUT = (
    "layout regions=65536 pages_per_region=16\n"
    "thread A tid=1 asid=1 role=applicant\n"
    "thread P tid=2 asid=2 role=pager\n"
    "pager P policy=anonymous\n"
    "assign asid=1 rid=5 pager=P\n"
    "assign asid=2 rid=65535 pager=P\n"
    "access A 0x50000 read\n"
)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_memory_follows_assigned_regions_not_declared_ones(scheme):
    sf = parse_scenario(WIDE_LAYOUT)
    tracemalloc.start()
    try:
        result = Simulator(sf, scheme).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.verdict for c in result.cycles] == [VerdictCode.DISPATCHED]
    assert peak < 1 << 20


# Four applicant spaces and the pager's: A faults in an assigned region, D
# faults in a space with no assign line, and B and C never access memory
# although their spaces have assigned regions.  Regions span 0x4000.
IDLE_SPACES = """\
layout regions=8 pages_per_region=4 page_size=4096
thread A tid=1 asid=1 role=applicant
thread B tid=2 asid=2 role=applicant
thread C tid=3 asid=3 role=applicant
thread D tid=4 asid=4 role=applicant
thread P tid=5 asid=5 role=pager
pager P policy=anonymous
assign asid=1 rid=0 pager=P
assign asid=1 rid=3 pager=P
assign asid=2 rid=0 pager=P
assign asid=2 rid=1 pager=P
assign asid=3 rid=2 pager=P
access A 0x1000 read
access D 0x1000 read
"""


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_set_up_builds_only_the_faulters_spaces(scheme, monkeypatch):
    built = []
    init = AddressSpace.__init__

    def recording_init(self, asid, layout):
        built.append(asid)
        init(self, asid, layout)

    monkeypatch.setattr(AddressSpace, "__init__", recording_init)
    result = simulate(scheme, parse_scenario(IDLE_SPACES))
    assert built == [1, 4]
    assert list(result.spaces) == [1, 4]
    assert result.page_snapshot() == {1: {1: (True, 0, 0)}}


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_a_faulter_in_a_space_without_assign_lines_gets_no_pager(scheme):
    result = simulate(scheme, parse_scenario(IDLE_SPACES))
    assert [c.verdict for c in result.cycles] == [
        VerdictCode.DISPATCHED, VerdictCode.NO_PAGER,
    ]
    assert result.cycles[1].faulter == 4


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_a_faulting_space_gets_exactly_its_assigned_regions(scheme):
    sim = Simulator(parse_scenario(IDLE_SPACES), scheme)
    assert sim.spaces[1].regions.managers() == [(0, 5), (3, 5)]
    assert sim.spaces[4].regions.managers() == []
    mappers = {
        t.asid: sim.behaviors[t.tid].db for t in sim.machine.threads.values()
        if t.role is ThreadRole.REGION_MAPPER
    }
    if scheme is not Scheme.L4RE:
        assert mappers == {}
        return
    # Each region mapper's database lists its own space's regions, no
    # other space's: rids 1 and 2 are assigned only in the idle spaces.
    assert sorted(mappers) == [1, 4]
    db = mappers[1]
    assert len(db) == 2
    assert [db.lookup(a) for a in (0x0, 0x3FFF, 0xC000, 0xFFFF)] == [5] * 4
    for vaddr in (0x4000, 0x8000, 0xBFFF, 0x10000):
        with pytest.raises(NoDatabaseEntryError):
            db.lookup(vaddr)
    assert len(mappers[4]) == 0


# Region 0 of the faulting space is assigned twice, first to Q and then to
# P, and region 1 the other way round.  Regions span 0x4000.
REASSIGNED = """\
layout regions=8 pages_per_region=4 page_size=4096
thread A tid=1 asid=1 role=applicant pager=P
thread P tid=2 asid=2 role=pager
thread Q tid=3 asid=3 role=pager
pager P policy=anonymous
pager Q policy=anonymous
assign asid=1 rid=0 pager=Q
assign asid=1 rid=1 pager=P
assign asid=1 rid=0 pager=P
assign asid=1 rid=1 pager=Q
access A 0x1000 read
"""


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_a_region_assigned_twice_keeps_its_last_manager(scheme):
    sim = Simulator(parse_scenario(REASSIGNED), scheme)
    assert sim.spaces[1].regions.managers() == [(0, 2), (1, 3)]
    if scheme is Scheme.L4RE:
        [rm] = [
            t.tid for t in sim.machine.threads.values()
            if t.role is ThreadRole.REGION_MAPPER
        ]
        db = sim.behaviors[rm].db
        assert [db.lookup(a) for a in (0x0, 0x3FFF, 0x4000, 0x7FFF)] == [
            2, 2, 3, 3,
        ]
    result = sim.run()
    assert [c.manager for c in result.cycles] == [2]


class _Unwalkable(list):
    """A list that refuses iteration: set-up may not walk it."""

    def __iter__(self):
        raise AssertionError("set-up walked a script or assign list")


@pytest.mark.parametrize("name", FIXTURES)
def test_set_up_walks_no_script_line_and_no_assign_line(name):
    sf = parse_scenario(fixture_scn(name))
    sf.script = _Unwalkable(sf.script)
    sf.assigns = _Unwalkable(sf.assigns)
    built = []
    for scheme in ALL_SCHEMES:
        try:
            Simulator(sf, scheme)
        except SchemeMismatchError:  # l4re-reflect fits only l4re
            continue
        built.append(scheme)
    assert built
