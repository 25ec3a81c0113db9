"""End-to-end acceptance checks, one per headline property.

Each test prints a single ``PASS criterion N: ...`` or ``FAIL criterion
N: ...`` line; run ``pytest tests/test_acceptance.py -v -s`` to see them
alongside the usual pytest verdicts.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from pagersim import (
    AddressSpace,
    ContractState,
    EventKind,
    KernelMemory,
    KERNEL_RANGE,
    LayoutConfig,
    Machine,
    RegionTable,
    Scheme,
    ThreadRole,
    VerdictCode,
    classify,
    cycle_metrics,
    overhead_report,
    parse_scenario,
    region_id_div,
    region_id_shift,
    simulate,
)
from pagersim.errors import NotRegionManagerError, RevokedRegionError
from support import fixture_scn


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return run

    return wrap


SMALL = LayoutConfig(region_count=8, pages_per_region=4, page_size=4096)


@criterion(1, "per-scheme fault-cycle costs match the published comparison")
def test_cycle_cost_table():
    sf_text = fixture_scn("table1")
    want = {
        Scheme.MONOLITHIC: (2, 0, 0, 0),
        Scheme.L4_SINGLE: (4, 2, 2, 1),
        Scheme.REGION_DISPATCH: (4, 2, 2, 1),
        Scheme.L4RE: (6, 3, 3, 2),
    }
    started = time.perf_counter()
    for scheme, shape in want.items():
        res = simulate(scheme, parse_scenario(sf_text))
        assert res.cycles[0].verdict is VerdictCode.DISPATCHED
        assert cycle_metrics(res.trace, 0).as_tuple() == shape, scheme
    assert time.perf_counter() - started < 1.0


@criterion(2, "region dispatch removes exactly one third of crossings and switches")
def test_exact_reduction():
    for name in ("table1", "workload50"):
        report = overhead_report(parse_scenario(fixture_scn(name)))
        assert report.reduction_mode == Fraction(1, 3), name
        assert report.reduction_ctx == Fraction(1, 3), name


@criterion(3, "division and shift region-number forms agree with a reference")
def test_region_number_forms():
    def reference(layout, uppers, vaddr):
        # Linear scan of region upper bounds: slow, obviously correct.
        if vaddr >= layout.user_base:
            for rid, upper in enumerate(uppers):
                if vaddr < upper:
                    return rid
        return KERNEL_RANGE

    started = time.perf_counter()
    rng = random.Random(22)
    for layout in (LayoutConfig(), SMALL):
        uppers = [
            layout.user_base + (rid + 1) * layout.region_size
            for rid in range(layout.region_count)
        ]
        probes = [rng.randrange(layout.user_limit) for _ in range(10_000)]
        probes += [0, layout.user_limit - 1, layout.user_limit, (1 << 32) - 1]
        for vaddr in probes:
            div = region_id_div(layout, vaddr)
            shift = region_id_shift(layout, vaddr)
            assert div == shift == reference(layout, uppers, vaddr), hex(vaddr)
    assert time.perf_counter() - started < 5.0


@criterion(4, "the classification truth table reaches all five verdicts")
def test_verdict_truth_table():
    PAGER = 9

    def space(contract=None, present=False):
        sp = AddressSpace(asid=1, layout=SMALL)
        if contract is not None:
            sp.regions.assign(0, manager=PAGER)
            sp.regions.set_contract(0, contract)
        if present:
            sp.pages.set_mapping(page=1, frame=4, marker=0)
        return sp

    cases = [
        (space(), SMALL.user_limit, (), VerdictCode.KERNEL_RANGE),
        (space(), 0x1000, (), VerdictCode.NO_PAGER),
        (space(ContractState.REVOKED), 0x1000, (), VerdictCode.NOT_ACCEPTED),
        (space(ContractState.ASSIGNED), 0x1000, (PAGER,), VerdictCode.NOT_ACCEPTED),
        (space(ContractState.ASSIGNED), 0x1000, (), VerdictCode.DISPATCHED),
        (space(ContractState.ACCEPTED, present=True), 0x1000, (), VerdictCode.RESUMED_PRESENT),
    ]
    got = [classify(sp, vaddr, refusing).code for sp, vaddr, refusing, _ in cases]
    assert got == [want for *_, want in cases]
    assert set(got) == set(VerdictCode)


@criterion(5, "a concurrent fault on the same page costs only its trap and return")
def test_race_attribution():
    res = simulate(Scheme.REGION_DISPATCH, parse_scenario(fixture_scn("fig6")))
    first, second = res.cycles
    assert first.verdict is VerdictCode.DISPATCHED
    assert cycle_metrics(res.trace, 0).as_tuple() == (4, 2, 2, 1)
    assert second.verdict is VerdictCode.RESUMED_PRESENT
    assert cycle_metrics(res.trace, 1).as_tuple() == (2, 0, 0, 0)
    # No message of any kind goes out while the second fault is in the
    # kernel: its window of the trace is free of sends.
    close = next(
        ev.seq
        for ev in res.trace.of_cycle(1)
        if ev.kind is EventKind.MODE_SWITCH_K2U
    )
    trap = res.trace.of_cycle(1)[0].seq
    window = [ev for ev in res.trace if trap <= ev.seq <= close]
    assert not any(ev.kind is EventKind.IPC_SEND for ev in window)
    assert not any(ev.kind is EventKind.SUSPEND for ev in res.trace.of_cycle(1))


@criterion(6, "the management-contract lifecycle follows the reference state machine")
def test_contract_lifecycle_walk():
    PAGER = 9
    machine = Machine()
    machine.register_thread(PAGER, 2, role=ThreadRole.PAGER, name="p")
    space = AddressSpace(asid=1, layout=SMALL)
    memory = KernelMemory(machine, {1: space})

    rng = random.Random(606)
    ref = "unassigned"
    present: set[int] = set()
    visited = {ref}
    revocations = 0
    steps = 300

    for step in range(steps):
        op = rng.choice(("assign", "map", "unmap", "revoke"))
        page = rng.randrange(4)
        vaddr = page * SMALL.page_size
        if op == "assign":
            space.regions.assign(0, manager=PAGER)
            ref = "assigned"
        elif op == "map":
            if ref == "unassigned":
                with pytest.raises(NotRegionManagerError):
                    memory.map_page(PAGER, 1, vaddr, frame=step, marker=0)
            elif ref == "revoked":
                with pytest.raises(RevokedRegionError):
                    memory.map_page(PAGER, 1, vaddr, frame=step, marker=0)
            else:
                memory.map_page(PAGER, 1, vaddr, frame=step, marker=0)
                present.add(page)
                ref = "accepted"
        elif ref == "unassigned":
            with pytest.raises(NotRegionManagerError):
                memory.unmap_page(PAGER, 1, vaddr, revoke=(op == "revoke"))
        elif page in present:
            memory.unmap_page(PAGER, 1, vaddr, revoke=(op == "revoke"))
            present.discard(page)
            if op == "revoke" and not present and ref == "accepted":
                ref = "revoked"
                revocations += 1
        visited.add(ref)
        assert space.regions.lookup(0).contract.value == ref, f"step {step}"
        # Ascending: a revoke sets its flag on the last page of this list.
        assert space.present_pages_in_region(0) == sorted(present)

    assert visited == {"unassigned", "assigned", "accepted", "revoked"}
    assert revocations >= 1

    # A revoked region refuses every fault until someone assigns it again.
    space.regions.assign(0, manager=PAGER)
    memory.map_page(PAGER, 1, 0x0, frame=0, marker=0)
    memory.unmap_page(PAGER, 1, 0x0, revoke=True)
    for vaddr in (0x0, 0x1000, 0x2000, 0x3000):
        assert classify(space, vaddr).code is VerdictCode.NOT_ACCEPTED
    space.regions.assign(0, manager=PAGER)
    assert classify(space, 0x1000).code is VerdictCode.DISPATCHED


@criterion(7, "the serialized region table fits one 4 KiB page")
def test_region_table_footprint():
    import struct

    table = RegionTable(region_count=1020)
    for rid in range(0, 1020, 3):
        table.assign(rid, manager=rid + 1)
    blob = table.serialize_manager_ids()
    assert len(blob) == 1020 * 4 == 4080
    assert len(blob) <= 4096
    ids = struct.unpack("<1020I", blob)
    assert all(
        ids[rid] == (rid + 1 if rid % 3 == 0 else 0) for rid in range(1020)
    )


@criterion(8, "all schemes produce identical memory state at strictly ordered cost")
def test_scheme_equivalence_on_workload():
    sf_text = fixture_scn("workload50")
    started = time.perf_counter()
    results = {s: simulate(s, parse_scenario(sf_text)) for s in Scheme}
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0

    snapshots = {s: r.page_snapshot() for s, r in results.items()}
    base = snapshots[Scheme.MONOLITHIC]
    assert base  # the workload actually mapped something
    assert all(snap == base for snap in snapshots.values())

    for i in range(50):
        mono = cycle_metrics(results[Scheme.MONOLITHIC].trace, i).as_tuple()
        single = cycle_metrics(results[Scheme.L4_SINGLE].trace, i).as_tuple()
        prop = cycle_metrics(results[Scheme.REGION_DISPATCH].trace, i).as_tuple()
        l4re = cycle_metrics(results[Scheme.L4RE].trace, i).as_tuple()
        assert single == prop, i
        assert all(a > b for a, b in zip(l4re, prop)), i
        assert all(a >= b for a, b in zip(prop, mono)), i


@criterion(9, "every shipped scenario replays byte-identically")
def test_deterministic_replay():
    applicable = {
        "fig6": (Scheme.L4_SINGLE, Scheme.REGION_DISPATCH),
        "l4re-reflect": (Scheme.L4RE,),
    }
    for name in ("table1", "fig6", "classify", "revoke", "workload50", "l4re-reflect"):
        text = fixture_scn(name)
        for scheme in applicable.get(name, tuple(Scheme)):
            first = simulate(scheme, parse_scenario(text)).trace.to_text()
            second = simulate(scheme, parse_scenario(text)).trace.to_text()
            assert first, (name, scheme)
            assert first == second, (name, scheme)
