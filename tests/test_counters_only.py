"""Counters-only runs against kept runs.

A run built with ``keep_events=False`` appends through
``CountingTrace.append``, a second body beside ``Trace.append``.  Every
figure the accounting reads must come out the same from both: the counter
rows, the event count, the whole-run totals, the expectation checks and
the cross-scheme verification, along with the verdicts and page tables.
"""

import pytest

from pagersim import (
    ALL_SCHEMES,
    CountingTrace,
    OverheadReport,
    ScenarioError,
    SimulationError,
    Trace,
    check_expectations,
    overhead_report,
    parse_scenario,
    simulate,
    totals_of,
    verify_equivalence,
)
from pagersim import schemes
from pagersim.reproduce import FIXTURES
from schedules import SCENARIOS, scenario
from support import fitting_results, fixture_scn, load_bench_module


def assert_counted_alike(kept: dict, counted: dict, sf) -> None:
    assert list(counted) == list(kept)
    for token, res in kept.items():
        other = counted[token]
        assert type(res.trace) is Trace, token
        assert type(other.trace) is CountingTrace, token
        assert other.trace.cycle_counts == res.trace.cycle_counts, token
        assert len(other.trace) == len(res.trace), token
        assert totals_of(other) == totals_of(res), token
        assert [c.verdict for c in other.cycles] == [c.verdict for c in res.cycles]
        assert other.page_snapshot() == res.page_snapshot(), token
    assert check_expectations(counted, sf) == check_expectations(kept, sf)
    assert verify_equivalence(counted) == verify_equivalence(kept)


def run_both(text: str) -> tuple[dict, dict]:
    """Kept and counted runs of one scenario under every scheme that runs
    it to the end; a scheme that stops must stop alike both ways."""
    sf = parse_scenario(text)
    kept, counted = {}, {}
    for scheme in ALL_SCHEMES:
        errors = []
        for keep, into in ((True, kept), (False, counted)):
            try:
                into[scheme.value] = simulate(scheme, sf, keep)
            except (ScenarioError, SimulationError) as exc:
                errors.append((type(exc), str(exc)))
        if errors:
            assert len(errors) == 2 and errors[0] == errors[1], (scheme, errors)
    return kept, counted


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_count_alike(name):
    sf = parse_scenario(fixture_scn(name))
    kept = fitting_results(name)
    counted = fitting_results(name, keep_events=False)
    assert kept
    assert_counted_alike(kept, counted, sf)


def test_seeded_schedules_count_alike():
    ran = 0
    for seed in range(SCENARIOS):
        text = scenario(seed)
        kept, counted = run_both(text)
        assert_counted_alike(kept, counted, parse_scenario(text))
        ran += len(kept)
    # Every scenario runs to the end under l4-single and proposed.
    assert ran >= 2 * SCENARIOS


@pytest.mark.parametrize("name", ["fault-stream", "wide-spaces", "hot-mix"])
def test_bench_workloads_count_alike(name):
    w = load_bench_module("workloads").generate(name, 5, 0.1)
    kept, counted = run_both(w.text)
    assert len(kept) == len(ALL_SCHEMES)
    assert all(len(res.cycles) == w.faults for res in counted.values())
    assert_counted_alike(kept, counted, parse_scenario(w.text))


def test_overhead_report_runs_counters_only(monkeypatch):
    traces = []

    def spy(scheme, scenario, keep_events=True):
        result = simulate(scheme, scenario, keep_events)
        traces.append(type(result.trace))
        return result

    monkeypatch.setattr(schemes, "simulate", spy)
    sf = parse_scenario(fixture_scn("workload50"))
    report = overhead_report(sf)
    assert traces == [CountingTrace] * len(ALL_SCHEMES)
    assert report == OverheadReport([totals_of(simulate(s, sf)) for s in ALL_SCHEMES])
