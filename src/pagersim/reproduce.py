"""One-command reproduction of the package's headline results.

``python -m pagersim.reproduce`` replays every claim the package makes
about itself: the per-scheme fault-cycle costs, the exact cost reduction
of region dispatch over the reflective baseline, agreement of the two
region-number forms, the verdict taxonomy, race attribution, contract
revocation, the region-table footprint, cross-scheme equivalence on a
50-fault workload, and byte-identical replay.  Each claim prints one
status line; any failure makes the process exit nonzero.

Every claim is a check function.  Fixture-backed ones run the command
line exactly as a user would; numeric identities are checked in process.
The command takes no arguments: any argument is a usage error (exit 2).
"""

import argparse
import contextlib
import io
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import cli
from .address_space import (
    KERNEL_RANGE,
    LayoutConfig,
    RegionTable,
    region_id_div,
    region_id_shift,
)
from .errors import SimulationError
from .scenario import parse_scenario
from .schemes import ALL_SCHEMES, overhead_report, simulate


class MissingFixtureError(SimulationError):
    pass


FIXTURES = ("table1", "fig6", "classify", "revoke", "workload50", "l4re-reflect")


def fixture_path(name: str) -> Path:
    path = Path(str(resources.files("pagersim") / "fixtures" / f"{name}.scn"))
    if not path.is_file():
        raise MissingFixtureError(f"fixture {name}.scn is not installed")
    return path


# ---- in-process claims ---------------------------------------------------


def claim_reduction_exact() -> str | None:
    sf = parse_scenario(fixture_path("table1").read_text())
    report = overhead_report(sf)
    rows = {r.scheme: r for r in report.rows}
    want = {
        "monolithic": (2, 0, 0, 0),
        "l4-single": (4, 2, 2, 1),
        "proposed": (4, 2, 2, 1),
        "l4re": (6, 3, 3, 2),
    }
    for token, (m, c, i, p) in want.items():
        row = rows[token]
        got = (
            row.mode_switches,
            row.context_switches,
            row.ipc_messages,
            row.pager_invocations,
        )
        if got != (m, c, i, p):
            return f"{token} totals {got}, wanted {(m, c, i, p)}"
    if report.reduction_mode != Fraction(1, 3):
        return f"mode reduction {report.reduction_mode}, wanted 1/3"
    if report.reduction_ctx != Fraction(1, 3):
        return f"context reduction {report.reduction_ctx}, wanted 1/3"
    return None


def _boundaries(layout: LayoutConfig) -> list[int]:
    return [
        layout.user_base + rid * layout.region_size
        for rid in range(layout.region_count + 1)
    ]


def _region_by_bisect(layout: LayoutConfig, bounds: list[int], vaddr: int):
    import bisect

    idx = bisect.bisect_right(bounds, vaddr) - 1
    if 0 <= idx < layout.region_count:
        return idx
    return KERNEL_RANGE


def claim_region_forms_agree() -> str | None:
    layouts = (
        LayoutConfig(),  # 1020 regions of 4 MiB
        LayoutConfig(region_count=8, pages_per_region=4, page_size=4096),
    )
    rng = random.Random(1020)
    started = time.perf_counter()
    for layout in layouts:
        bounds = _boundaries(layout)
        probes = [rng.randrange(layout.user_limit) for _ in range(10_000)]
        probes += [layout.user_limit, (1 << 32) - 1]
        for vaddr in probes:
            div = region_id_div(layout, vaddr)
            shift = region_id_shift(layout, vaddr)
            ref = _region_by_bisect(layout, bounds, vaddr)
            if not (div == shift == ref):
                return (
                    f"layout {layout.region_count}x{layout.pages_per_region}: "
                    f"vaddr {vaddr:#x} gives {div}/{shift}/{ref}"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        return f"agreement sweep took {elapsed:.2f}s, budget is 1s"
    return None


def claim_table_footprint() -> str | None:
    table = RegionTable(region_count=1020)
    blob = table.serialize_manager_ids()
    if len(blob) != 4080:
        return f"serialized table is {len(blob)} bytes, wanted 4080"
    if len(blob) > 4096:
        return "serialized table does not fit one 4 KiB page"
    return None


# Some fixtures only make sense under particular schemes: fig6 scripts
# pager steps (no pager runs under monolithic dispatch, and the l4re
# route inserts a mapper the script does not drive), and l4re-reflect
# declares a mapping database.
_FIXTURE_SCHEMES = {
    "fig6": ("l4-single", "proposed"),
    "l4re-reflect": ("l4re",),
}


def claim_replay_identical() -> str | None:
    for name in FIXTURES:
        sf_text = fixture_path(name).read_text()
        tokens = _FIXTURE_SCHEMES.get(name, tuple(s.value for s in ALL_SCHEMES))
        for scheme in (s for s in ALL_SCHEMES if s.value in tokens):
            first = simulate(scheme, parse_scenario(sf_text)).trace.to_text()
            second = simulate(scheme, parse_scenario(sf_text)).trace.to_text()
            if first != second:
                return f"{name} under {scheme.value} is not replay-stable"
    return None


# ---- claim registry ------------------------------------------------------


def _cli_claim(name: str, *extra: str) -> Callable[[], str | None]:
    """A check that runs the command line on fixture ``name`` with the
    arguments ``extra``, exactly as a user would, and wants exit 0."""

    def check() -> str | None:
        args = ["--scenario", str(fixture_path(name)), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        return None if code == 0 else f"exit {code} (wanted 0)"

    return check


@dataclass(frozen=True)
class ClaimEntry:
    claim_id: str
    description: str
    check: Callable[[], str | None]  # None, or what failed


def build_claims() -> list[ClaimEntry]:
    return [
        ClaimEntry(
            "cycle-costs",
            "per-scheme cost of one dispatched fault (2/0, 4/2, 4/2, 6/3)",
            _cli_claim("table1", "--check"),
        ),
        ClaimEntry(
            "reduction-exact",
            "region dispatch saves exactly 1/3 of crossings and switches",
            claim_reduction_exact,
        ),
        ClaimEntry(
            "region-forms",
            "division and shift region numbers agree with a reference",
            claim_region_forms_agree,
        ),
        ClaimEntry(
            "verdict-classes",
            "all five fault verdicts reachable, identically in all schemes",
            _cli_claim("classify", "--check", "--verify-equivalence"),
        ),
        ClaimEntry(
            "race-attribution",
            "concurrent fault costs only its trap and return",
            _cli_claim("fig6", "--scheme", "proposed", "--check"),
        ),
        ClaimEntry(
            "contract-revocation",
            "a manager can walk away; later faults are protection faults",
            _cli_claim("revoke", "--check"),
        ),
        ClaimEntry(
            "table-footprint",
            "region table of manager ids fits one 4 KiB page",
            claim_table_footprint,
        ),
        ClaimEntry(
            "scheme-equivalence",
            "50-fault workload: same page tables, costs strictly ordered",
            _cli_claim("workload50", "--check", "--verify-equivalence"),
        ),
        ClaimEntry(
            "replay-identical",
            "every fixture trace is byte-identical across runs",
            claim_replay_identical,
        ),
    ]


def reproduce_all() -> int:
    claims = build_claims()
    width = max(len(c.claim_id) for c in claims)
    failures = 0
    for claim in claims:
        detail = claim.check()
        status = "PASS" if detail is None else "FAIL"
        line = f"{status}  {claim.claim_id.ljust(width)}  {claim.description}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        failures += detail is not None
    print(
        f"{len(claims) - failures}/{len(claims)} claims reproduced"
        + (f", {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    # The parser defines no argument, not even -h: any argument is a usage
    # error.
    argparse.ArgumentParser(
        prog="python -m pagersim.reproduce", add_help=False
    ).parse_args(argv)
    return reproduce_all()


if __name__ == "__main__":
    sys.exit(main())
