import pytest

from pagersim import AddressSpace, KernelMemory, LayoutConfig, Machine, translate
from pagersim.errors import MarkerOverflowError, NotMappedError

PAGER = 9


def managed_space():
    """A space of 8 regions of 4 pages, all managed by PAGER, and the
    kernel service that writes its page table."""
    space = AddressSpace(1, LayoutConfig(8, 4, 4096))
    for rid in range(8):
        space.regions.assign(rid, PAGER)
    return space, KernelMemory(Machine(), {1: space})


def test_translate_miss_returns_none():
    # A miss is a fault: no frame, and the caller opens the fault's cycle.
    pages = {}
    assert translate(pages, 4096, 0x1234) is None
    pages[1] = (False, 0, 0)
    assert translate(pages, 4096, 0x1234) is None  # a ghost entry misses too


def test_translate_hit_returns_frame():
    pages = {1: (True, 77, 9)}
    assert translate(pages, 4096, 0x1FFF) == 77
    pages[0] = (True, 0, 0)
    assert translate(pages, 4096, 0x10) == 0  # frame 0 is a hit, not a fault


def test_mapping_roundtrip_and_present_pages():
    space, memory = managed_space()
    memory.map_page(PAGER, 1, 3 * 4096, 5, 1)
    memory.map_page(PAGER, 1, 8 * 4096, 6, 2)
    assert sorted(p for p, (present, _, _) in space.pages.items() if present) == [3, 8]
    assert space.pages[3] == (True, 5, 1)


def test_marker_survives_unmap():
    # The stored word is the pager's breadcrumb: it must still be there
    # when the next fault on the page is classified.
    space, memory = managed_space()
    memory.map_page(PAGER, 1, 4 * 4096, 1, 1234)
    memory.unmap_page(PAGER, 1, 4 * 4096)
    present, _, marker = space.pages[4]
    assert not present
    assert marker == 1234
    assert [p for p, (present, _, _) in space.pages.items() if present] == []
    assert list(space.pages) == [4]


def test_clear_unmapped_page_raises():
    space, memory = managed_space()
    with pytest.raises(NotMappedError, match="^page 0 has no present mapping$"):
        memory.unmap_page(PAGER, 1, 0)
    memory.map_page(PAGER, 1, 0, 1, 0)
    memory.unmap_page(PAGER, 1, 0)
    with pytest.raises(NotMappedError):  # a ghost entry is not present either
        memory.unmap_page(PAGER, 1, 0)


def test_marker_width_boundary():
    space, memory = managed_space()
    memory.map_page(PAGER, 1, 0, 0, (1 << 31) - 1)  # widest legal
    with pytest.raises(
        MarkerOverflowError, match=r"^marker 2147483648 does not fit in 31 bits$"
    ):
        memory.map_page(PAGER, 1, 4096, 0, 1 << 31)
    with pytest.raises(MarkerOverflowError):
        memory.map_page(PAGER, 1, 2 * 4096, 0, -1)
    # A refused map writes nothing.
    assert space.pages == {0: (True, 0, (1 << 31) - 1)}


def test_snapshot_shows_present_and_ghost_entries():
    space, memory = managed_space()
    memory.map_page(PAGER, 1, 0, 3, 7)
    memory.map_page(PAGER, 1, 4096, 4, 8)
    memory.unmap_page(PAGER, 1, 4096)
    assert space.pages == {0: (True, 3, 7), 1: (False, 0, 8)}
