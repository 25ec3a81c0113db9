"""Shared helpers for the test suite."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

from pagersim import SimResult, Scheme, parse_scenario, simulate
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
