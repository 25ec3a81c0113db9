import random
import struct

import pytest

from pagersim import (
    AddressSpace,
    ContractState,
    KernelMemory,
    KERNEL_RANGE,
    LayoutConfig,
    Machine,
    RegionTable,
    region_id_div,
    region_id_of,
    region_id_shift,
)
from pagersim.address_space import RegionSlot
from pagersim.errors import BadRegionError

SMALL = LayoutConfig(region_count=8, pages_per_region=4, page_size=4096)


def test_default_layout_geometry():
    lay = LayoutConfig()
    assert lay.region_size == 4 * 1024 * 1024
    assert lay.region_shift == 22
    assert lay.user_limit == 0xFF000000
    assert lay.region_page_range(1) == range(1024, 2048)


def test_layout_validation():
    with pytest.raises(ValueError):
        LayoutConfig(page_size=3000)
    with pytest.raises(ValueError):
        LayoutConfig(pages_per_region=6)
    with pytest.raises(ValueError):
        LayoutConfig(region_count=0)
    with pytest.raises(ValueError):
        LayoutConfig(user_base=4096)  # not region aligned
    with pytest.raises(ValueError):
        LayoutConfig(region_count=1025)  # user part would pass 2^32


def test_region_id_examples_default_layout():
    lay = LayoutConfig()
    assert region_id_of(lay, 0) == 0
    assert region_id_of(lay, 0x3FFFFF) == 0
    assert region_id_of(lay, 0x400000) == 1
    assert region_id_of(lay, 0xFEFFFFFF) == 1019
    assert region_id_of(lay, 0xFF000000) is KERNEL_RANGE
    assert region_id_of(lay, 0xFFFFFFFF) is KERNEL_RANGE
    assert region_id_div(lay, 0xFF000000) is KERNEL_RANGE
    assert region_id_shift(lay, 0xFF000000) is KERNEL_RANGE
    # reproduce's region-forms failure message prints the sentinel.
    assert repr(KERNEL_RANGE) == str(KERNEL_RANGE) == "KERNEL_RANGE"
    # The fault path's form agrees with both forms around every boundary.
    for rid in range(lay.region_count + 1):
        start = lay.user_base + rid * lay.region_size
        for vaddr in (max(start - 1, 0), start, start + 1):
            want = region_id_div(lay, vaddr)
            assert region_id_of(lay, vaddr) == want == region_id_shift(lay, vaddr)


def test_region_id_rejects_out_of_space_addresses():
    for bad in (-1, 1 << 32):
        with pytest.raises(ValueError):
            region_id_div(SMALL, bad)
        with pytest.raises(ValueError):
            region_id_shift(SMALL, bad)


def test_forms_agree_exhaustively_on_small_layout():
    # All 2^17 addresses of the small profile plus a kernel-side strip.
    for vaddr in range(SMALL.user_limit + 3 * SMALL.page_size):
        want = region_id_div(SMALL, vaddr)
        assert region_id_shift(SMALL, vaddr) == want == region_id_of(SMALL, vaddr)


def test_forms_agree_with_linear_reference_on_sampled_addresses():
    def reference(lay, vaddr):
        # Walk straight down the boundary list; independent of both forms.
        for rid in range(lay.region_count):
            start = lay.user_base + rid * lay.region_size
            if start <= vaddr < start + lay.region_size:
                return rid
        return KERNEL_RANGE

    rng = random.Random(4242)
    lay = LayoutConfig(region_count=32, pages_per_region=16, page_size=4096)
    for _ in range(2000):
        vaddr = rng.randrange(1 << 32)
        assert region_id_div(lay, vaddr) == region_id_shift(lay, vaddr) == reference(lay, vaddr)
        assert region_id_of(lay, vaddr) == reference(lay, vaddr)


def test_user_part_partitions_into_regions():
    pages_seen = []
    for rid in range(SMALL.region_count):
        pages_seen.extend(SMALL.region_page_range(rid))
    assert pages_seen == list(range(SMALL.user_limit // SMALL.page_size))


def test_region_table_assignment_and_lookup():
    table = RegionTable(8)
    table.assign(2, manager=7)
    slot = table.lookup(2)
    assert (slot.manager, slot.contract) == (7, ContractState.ASSIGNED)
    assert table.lookup(0).manager is None


def test_region_table_bounds():
    table = RegionTable(8)
    with pytest.raises(BadRegionError):
        table.lookup(8)
    with pytest.raises(BadRegionError):
        table.assign(-1, manager=1)


def test_reassignment_is_last_writer_wins_and_revives_revoked():
    table = RegionTable(4)
    table.assign(1, manager=5)
    table.lookup(1).contract = ContractState.REVOKED
    table.assign(1, manager=6)
    slot = table.lookup(1)
    assert (slot.manager, slot.contract) == (6, ContractState.ASSIGNED)


def test_serialized_manager_column_fits_one_page():
    table = RegionTable(1020)
    table.assign(0, manager=9)
    table.assign(1019, manager=3)
    blob = table.serialize_manager_ids()
    assert len(blob) == 4080
    assert len(blob) <= 4096
    ids = struct.unpack("<1020I", blob)
    assert ids[0] == 9
    assert ids[1019] == 3
    assert set(ids[1:1019]) == {0}


@pytest.mark.parametrize("seed", range(20))
def test_sparse_table_matches_a_dense_reference(seed):
    # A dense list of slots is the reference: assign replaces a slot (last
    # writer wins), and a contract written to a looked-up slot edits it in
    # place if the region was ever assigned; an absent region reads as a
    # fresh slot, so a write to it leaves the table as it was.
    rng = random.Random(seed)
    count = rng.choice((1, 5, 16, 64))
    table = RegionTable(count)
    dense = [RegionSlot() for _ in range(count)]
    assert table.managers() == []
    for _ in range(rng.randrange(1, 40)):
        rid = rng.randrange(count)
        if rng.random() < 0.5:
            manager = rng.randrange(1, 6)
            table.assign(rid, manager=manager)
            dense[rid] = RegionSlot(manager, ContractState.ASSIGNED)
        else:
            state = rng.choice(list(ContractState))
            table.lookup(rid).contract = state
            if dense[rid].manager is not None:
                dense[rid].contract = state
    walk = [table.lookup(rid) for rid in range(count)]
    assert walk == dense
    assert table.managers() == [
        (rid, slot.manager) for rid, slot in enumerate(walk)
        if slot.manager is not None
    ]
    assert table.serialize_manager_ids() == struct.pack(
        f"<{count}I", *(slot.manager or 0 for slot in walk)
    )


@pytest.mark.parametrize("entries", [5, 40, 300])
def test_present_pages_of_a_region_match_a_filter_of_the_whole_table(entries):
    # Regions of 64 pages from page 128: the index the kernel keeps where it
    # maps and unmaps agrees with a walk of every page-table entry, also
    # across a reassignment of the region.
    layout = LayoutConfig(
        region_count=8, pages_per_region=64, page_size=4096,
        user_base=2 * 64 * 4096,
    )
    space = AddressSpace(1, layout)
    memory = KernelMemory(Machine(), {1: space})
    for rid in range(layout.region_count):
        space.regions.assign(rid, 9)
    rng = random.Random(entries)
    for page in rng.sample(range(128, 640), entries):
        memory.map_page(9, 1, page * 4096, page, 0)
        if rng.random() < 0.1:
            space.regions.assign((page - 128) // 64, 9)
        if rng.random() < 0.3:
            memory.unmap_page(9, 1, page * 4096)
    for rid in range(layout.region_count):
        within = layout.region_page_range(rid)
        assert space.present_pages_in_region(rid) == sorted(
            p for p, (present, _, _) in space.pages.items()
            if present and p in within
        )
