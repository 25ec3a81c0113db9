"""Shared helpers for the test suite."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

from pagersim import ALL_SCHEMES, Simulator, SimResult, Scheme, parse_scenario, simulate
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


def run_loop_calls(text: str) -> tuple[int, int]:
    """The Python-level calls that one run of ``text`` under each of the
    four schemes makes, set-up left out, and the faults those runs take."""
    sf = parse_scenario(text)
    sims = [Simulator(sf, s) for s in ALL_SCHEMES]
    results, calls, _ = python_calls(lambda: [sim.run() for sim in sims])
    return calls, sum(len(res.cycles) for res in results)


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
