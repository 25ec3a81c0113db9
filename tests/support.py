"""Shared helpers for the test suite."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

from pagersim import (
    ALL_SCHEMES,
    Scheme,
    SimResult,
    Simulator,
    check_expectations,
    parse_scenario,
    simulate,
    verify_equivalence,
)
from pagersim.errors import SimulationError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def fixture_scn(name: str) -> str:
    """Text of a shipped scenario fixture."""
    return (resources.files("pagersim") / "fixtures" / f"{name}.scn").read_text()


def golden(name: str) -> str:
    """Text of a hand-written golden trace."""
    return (GOLDEN_DIR / name).read_text()


def golden_digests() -> dict[str, str]:
    """``<fixture>.<scheme>`` -> SHA-256 of its trace text, one line each."""
    lines = (GOLDEN_DIR / "traces.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def load_bench_module(name: str):
    """A module of the benchmark, ``bench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def opened(trace, cycles: int):
    """``trace`` with its first ``cycles`` fault cycles opened, as the
    traps of that many faults open them; an attributed event needs its
    cycle open."""
    for _ in range(cycles):
        trace.open_cycle()
    return trace


def fitting_results(name: str, keep_events: bool = True) -> dict[str, SimResult]:
    """Runs of one fixture under every scheme it fits."""
    sf = parse_scenario(fixture_scn(name))
    results = {}
    for scheme in Scheme:
        try:
            results[scheme.value] = simulate(scheme, sf, keep_events)
        except SimulationError:  # fig6's pager steps do not fit l4re
            continue
    return results


def python_calls(fn, *codes):
    """Run ``fn``; return its result, the Python-level function calls it
    made, and how many of those ran each of ``codes``, in order."""
    calls = 0
    matched = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if frame.f_code in matched:
                matched[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, list(matched.values())


def run_loop_calls(text: str, schemes=ALL_SCHEMES) -> tuple[int, int]:
    """The Python-level calls that one run of ``text`` under each of
    ``schemes`` makes, set-up left out, and the faults those runs take."""
    sf = parse_scenario(text)
    sims = [Simulator(sf, s) for s in schemes]
    results, calls, _ = python_calls(lambda: [sim.run() for sim in sims])
    return calls, sum(len(res.cycles) for res in results)


def fault_stream(faults: int, pages: int = 64) -> str:
    """Distinct demand-zero faults from two threads, each served by its own
    pager, over 16 regions of ``pages`` pages."""
    lines = [
        f"layout regions=16 pages_per_region={pages} page_size=4096",
        "thread T1 tid=1 asid=1 role=applicant pager=P1",
        "thread T2 tid=2 asid=1 role=applicant pager=P2",
        "thread P1 tid=3 asid=2 role=pager",
        "thread P2 tid=4 asid=2 role=pager",
        "pager P1 policy=anonymous marker=page",
        "pager P2 policy=anonymous marker=page",
    ]
    lines += [f"assign asid=1 rid={r} pager=P{r % 2 + 1}" for r in range(16)]
    for i in range(faults):
        rid, page = i % 16, i // 16
        kind = "write" if i % 3 else "read"
        lines.append(f"access T{rid % 2 + 1} {(rid * pages + page) * 4096:#x} {kind}")
    return "\n".join(lines) + "\n"


def expect_heavy(faults: int) -> str:
    """``fault_stream(faults)`` with one cost-bearing expect line per fault,
    for each scheme in turn, that holds: the benchmark's uncontended cost
    of a dispatched fault."""
    cost = load_bench_module("workloads").DISPATCHED_COST
    lines = []
    for i in range(faults):
        scheme = ALL_SCHEMES[i % len(ALL_SCHEMES)].value
        mode, ctx, ipc, invocations = cost[scheme]
        lines.append(
            f"expect scheme={scheme} fault={i} verdict=DISPATCHED "
            f"mode={mode} ctx={ctx} ipc={ipc} invocations={invocations}"
        )
    return fault_stream(faults) + "\n".join(lines) + "\n"


def check_verify_calls(text: str):
    """Run ``text`` under every scheme; return what ``check_expectations``
    and ``verify_equivalence`` return for the four runs, the Python-level
    calls the two make together, and the fault cycles of the runs."""
    sf = parse_scenario(text)
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    outputs, calls, _ = python_calls(
        lambda: (check_expectations(results, sf), verify_equivalence(results))
    )
    return outputs, calls, sum(len(res.cycles) for res in results.values())


def reread_stream(rereads: int) -> str:
    """One demand-zero fault, then ``rereads`` hits on the same page."""
    lines = [
        "thread T tid=1 asid=1 role=applicant pager=P",
        "thread P tid=2 asid=2 role=pager",
        "pager P policy=anonymous",
        "assign asid=1 rid=0 pager=P",
    ]
    lines += ["access T 0x1000 read"] * (1 + rereads)
    return "\n".join(lines) + "\n"


def calls_per_hit(scheme: Scheme, rereads: int = 200) -> float:
    """Python-level calls per translate hit under ``scheme``: the
    difference between ``rereads`` re-reads of a faulted page and none."""
    fault_only = Simulator(parse_scenario(reread_stream(0)), scheme)
    with_hits = Simulator(parse_scenario(reread_stream(rereads)), scheme)
    _, base, _ = python_calls(fault_only.run)
    result, calls, _ = python_calls(with_hits.run)
    assert len(result.cycles) == 1
    return (calls - base) / rereads
