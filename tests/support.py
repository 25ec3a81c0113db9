"""Shared helpers for the test suite."""

from importlib import resources
from pathlib import Path

from pagersim import SimResult, Scheme, parse_scenario, simulate
from pagersim.errors import SimulationError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def fixture_scn(name: str) -> str:
    """Text of a shipped scenario fixture."""
    return (resources.files("pagersim") / "fixtures" / f"{name}.scn").read_text()


def golden(name: str) -> str:
    """Text of a hand-written golden trace."""
    return (GOLDEN_DIR / name).read_text()


def fitting_results(name: str) -> dict[str, SimResult]:
    """Runs of one fixture under every scheme it fits."""
    sf = parse_scenario(fixture_scn(name))
    results = {}
    for scheme in Scheme:
        try:
            results[scheme.value] = simulate(scheme, sf)
        except SimulationError:  # fig6's pager steps do not fit l4re
            continue
    return results
