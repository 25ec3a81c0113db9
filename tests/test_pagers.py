import random

import pytest

from pagersim import (
    AccessType,
    FaultCycle,
    FrameAllocator,
    MappingDatabase,
    MarkerKind,
    MarkerRule,
    PagerBehavior,
    PagerPolicy,
)
from pagersim.errors import (
    NoDatabaseEntryError,
    OutOfFramesError,
    OverlappingRangeError,
)
from pagersim.pagers import MapAction, REFLECT, REPLY, REVOKE


def test_marker_rules():
    assert MarkerRule(MarkerKind.ZERO).marker_for(17) == 0
    assert MarkerRule(MarkerKind.PAGE).marker_for(17) == 17
    assert MarkerRule(MarkerKind.FIXED, 99).marker_for(17) == 99


def test_frame_allocator_is_sequential_and_bounded():
    alloc = FrameAllocator(limit=3)
    assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]
    with pytest.raises(OutOfFramesError):
        alloc.allocate()


def test_mapping_database_lookup_and_boundaries():
    db = MappingDatabase()
    db.insert(0x0, 0x4000, target=2)
    db.insert(0x8000, 0xC000, target=3)
    assert db.lookup(0x0) == 2
    assert db.lookup(0x3FFF) == 2
    assert db.lookup(0x8000) == 3
    with pytest.raises(NoDatabaseEntryError):
        db.lookup(0x4000)  # end is exclusive
    with pytest.raises(NoDatabaseEntryError):
        db.lookup(0x7FFF)  # gap between ranges
    assert len(db) == 2


def test_mapping_database_rejects_bad_ranges():
    db = MappingDatabase()
    db.insert(0x0, 0x4000, target=2)
    with pytest.raises(OverlappingRangeError):
        db.insert(0x3000, 0x5000, target=3)
    with pytest.raises(OverlappingRangeError):
        db.insert(0x0, 0x4000, target=3)
    with pytest.raises(ValueError):
        db.insert(0x5000, 0x5000, target=3)


def test_mapping_database_agrees_with_linear_scan():
    rng = random.Random(303)
    ranges = []
    cursor = 0
    for _ in range(20):
        cursor += rng.randrange(1, 5) * 0x1000
        size = rng.randrange(1, 4) * 0x1000
        ranges.append((cursor, cursor + size, rng.randrange(2, 9)))
        cursor += size
    db = MappingDatabase()
    shuffled = ranges[:]
    rng.shuffle(shuffled)
    for start, end, target in shuffled:
        db.insert(start, end, target)

    def linear(vaddr):
        for start, end, target in ranges:
            if start <= vaddr < end:
                return target
        return None

    for _ in range(500):
        vaddr = rng.randrange(cursor + 0x4000)
        want = linear(vaddr)
        if want is None:
            with pytest.raises(NoDatabaseEntryError):
                db.lookup(vaddr)
        else:
            assert db.lookup(vaddr) == want


def fault(vaddr=0x1000, faulter=1, marker=0, rid=0):
    return FaultCycle(
        0, faulter=faulter, asid=1, vaddr=vaddr, access=AccessType.READ,
        rid=rid, marker=marker,
    )


def serve(behavior, cycle, allocator=None, warnings=None):
    return behavior.on_page_fault(
        cycle,
        page_size=4096,
        allocator=allocator if allocator is not None else FrameAllocator(),
        warnings=warnings if warnings is not None else [],
    )


def test_anonymous_pager_maps_and_replies():
    behavior = PagerBehavior(policy=PagerPolicy.ANONYMOUS,
                             marker_rule=MarkerRule(MarkerKind.PAGE))
    cycle = fault(vaddr=0x2A10)
    actions = serve(behavior, cycle)
    assert actions == [MapAction(frame=0, marker=2), REPLY]
    # The list answers this fault alone, so no action names it: the map
    # lands at the fault's space and address, and the reply settles it.
    assert (cycle.asid, cycle.vaddr) == (1, 0x2A10)


def test_fixed_pager_uses_backing_store():
    behavior = PagerBehavior(policy=PagerPolicy.FIXED, backing={2: 55})
    cycle = fault(vaddr=0x2000)
    assert serve(behavior, cycle) == [MapAction(frame=55, marker=0), REPLY]


def test_fixed_pager_without_backing_warns_and_does_nothing():
    behavior = PagerBehavior(policy=PagerPolicy.FIXED, backing={})
    warnings = []
    assert serve(behavior, fault(), warnings=warnings) == []
    assert len(warnings) == 1 and "no frame" in warnings[0]


def test_rejecting_pager_stays_silent():
    assert serve(PagerBehavior(policy=PagerPolicy.REJECTING), fault()) == []


def test_reflecting_pager_forwards_the_message():
    cycle = fault()
    actions = serve(PagerBehavior(policy=PagerPolicy.REFLECTING), cycle)
    assert actions == [REFLECT]


def test_revoke_after_counts_per_region_and_resets():
    behavior = PagerBehavior(policy=PagerPolicy.ANONYMOUS, revoke_after=2)
    first = serve(behavior, fault(vaddr=0x0, rid=0))
    assert REVOKE not in first
    # The revoke follows the map and the reply of the fault that completes
    # the pair; the region it empties is that fault's.
    second = serve(behavior, fault(vaddr=0x1000, rid=0))
    assert second == [MapAction(frame=0, marker=0), REPLY, REVOKE]
    # Counter reset: the next fault in the region starts a fresh pair.
    third = serve(behavior, fault(vaddr=0x2000, rid=0))
    assert REVOKE not in third
    # Other regions count independently.
    other = serve(behavior, fault(vaddr=0x4000, rid=1))
    assert REVOKE not in other
