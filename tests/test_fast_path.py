"""Guards on the fault path's cost, counted in operations, not seconds.

Wall-clock bounds are flaky on a shared host; the number of Python-level
function calls a run makes is exact and repeatable, so it is what these
tests bound.
"""

import sys
from enum import Enum

import pytest

from pagersim import (
    ALL_SCHEMES,
    AccessType,
    EventKind,
    FaultEvent,
    MemoryAccess,
    Simulator,
    VerdictCode,
    check_expectations,
    parse_scenario,
    simulate,
    verify_equivalence,
)
from pagersim.engine import FaultPayload, Message, MessageKind
from pagersim.fault_dispatch import Classification
from pagersim.pagers import MapAction, ReflectAction, ReplyAction, RevokeRegionAction
from pagersim.trace import TraceEvent
from support import fixture_scn

# Python-level calls per fault of one run of workload50 under every scheme:
# 10% above the 102.4 measured when the budget was set (Python 3.11).
CALLS_PER_FAULT_BUDGET = 113

_MESSAGE = Message(0, 2, MessageKind.PAGE_FAULT)


@pytest.mark.parametrize(
    "record, field",
    [
        (TraceEvent(0, EventKind.SUSPEND, (1,), 0), "seq"),
        (MemoryAccess(1, 0x1000, AccessType.READ), "vaddr"),
        (FaultEvent(1, 0x1000, AccessType.READ), "vaddr"),
        (Classification(VerdictCode.DISPATCHED, rid=0, manager=2), "manager"),
        (FaultPayload(1, 0x1000, AccessType.READ, 0), "marker"),
        (_MESSAGE, "payload"),
        (MapAction(1, 0x1000, 0, 0), "frame"),
        (ReplyAction(1), "faulter"),
        (ReflectAction(_MESSAGE), "message"),
        (RevokeRegionAction(1, 0), "rid"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 99)
    with pytest.raises(AttributeError):
        record.extra = 1


def python_calls(fn, code=None):
    """Run ``fn``; return its result, the Python-level function calls it
    made, and how many of those ran ``code``."""
    calls = matched = 0

    def profile(frame, event, _arg):
        nonlocal calls, matched
        if event == "call":
            calls += 1
            matched += frame.f_code is code

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, matched


def test_accounting_never_hashes_an_enum():
    enum_hash = Enum.__hash__.__code__
    # The counter does see the hash when it runs.
    assert python_calls(lambda: hash(EventKind.SUSPEND), enum_hash)[2] == 1

    sf = parse_scenario(fixture_scn("workload50"))
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    (failures, problems), _, hashes = python_calls(
        lambda: (check_expectations(results, sf), verify_equivalence(results)),
        enum_hash,
    )
    assert failures == [] and problems == []
    assert hashes == 0


def test_run_loop_calls_per_fault_stay_within_budget():
    sf = parse_scenario(fixture_scn("workload50"))
    sims = [Simulator(sf, s) for s in ALL_SCHEMES]
    results, calls, _ = python_calls(lambda: [sim.run() for sim in sims])
    faults = sum(len(res.cycles) for res in results)
    assert faults == 4 * 50
    assert calls / faults <= CALLS_PER_FAULT_BUDGET
