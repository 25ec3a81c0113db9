import pytest

from pagersim import PageTable, translate
from pagersim.errors import MarkerOverflowError, NotMappedError


def test_translate_miss_returns_none():
    # A miss is a fault: no frame, and the caller opens the fault's cycle.
    table = PageTable()
    assert translate(table, 4096, 0x1234) is None
    table.set_mapping(page=1, frame=0, marker=0)
    table.clear_mapping(page=1)
    assert translate(table, 4096, 0x1234) is None  # a ghost entry misses too


def test_translate_hit_returns_frame():
    table = PageTable()
    table.set_mapping(page=1, frame=77, marker=9)
    assert translate(table, 4096, 0x1FFF) == 77
    table.set_mapping(page=0, frame=0, marker=0)
    assert translate(table, 4096, 0x10) == 0  # frame 0 is a hit, not a fault


def test_mapping_roundtrip_and_present_pages():
    table = PageTable()
    table.set_mapping(page=3, frame=5, marker=1)
    table.set_mapping(page=8, frame=6, marker=2)
    assert sorted(p for p, e in table.entries.items() if e.present) == [3, 8]
    ent = table.entries[3]
    assert (ent.present, ent.frame, ent.marker) == (True, 5, 1)


def test_marker_survives_unmap():
    # The stored word is the pager's breadcrumb: it must still be there
    # when the next fault on the page is classified.
    table = PageTable()
    table.set_mapping(page=4, frame=1, marker=1234)
    table.clear_mapping(page=4)
    ent = table.entries[4]
    assert not ent.present
    assert ent.marker == 1234
    assert [p for p, e in table.entries.items() if e.present] == []
    assert list(table.entries) == [4]


def test_clear_unmapped_page_raises():
    with pytest.raises(NotMappedError):
        PageTable().clear_mapping(page=0)


def test_marker_width_boundary():
    table = PageTable()
    table.set_mapping(page=0, frame=0, marker=(1 << 31) - 1)  # widest legal
    with pytest.raises(MarkerOverflowError):
        table.set_mapping(page=1, frame=0, marker=1 << 31)
    with pytest.raises(MarkerOverflowError):
        table.set_mapping(page=2, frame=0, marker=-1)


def test_snapshot_shows_present_and_ghost_entries():
    table = PageTable()
    table.set_mapping(page=0, frame=3, marker=7)
    table.set_mapping(page=1, frame=4, marker=8)
    table.clear_mapping(page=1)
    assert table.snapshot() == {0: (True, 3, 7), 1: (False, 0, 8)}
