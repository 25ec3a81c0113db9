"""Address-space layout, region ids, and the in-kernel region table.

The user part of each 32-bit address space is carved into equally sized,
power-of-two regions.  A region id is a plain index:

    rid = (vaddr - user_base) // region_size

and because the region size is a power of two this is the same as a right
shift.  Both forms are implemented; the fault path uses the shift form,
and the agreement of the two is checked by ``reproduce``'s region-forms
claim and by the tests.  The equivalence is what makes the lookup cheap
enough to sit on the fault path.

The region table holds a slot (the manager thread id plus the state of
the management contract) only for regions that were assigned; any other
region reads as unassigned.  It serializes as a dense manager column, one
id per region: with the default layout of 1020 regions and 4-byte thread
ids that is 4080 bytes, under a single 4 KiB page.
"""

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import BadRegionError

ADDRESS_BITS = 32
ADDRESS_SPACE_SIZE = 1 << ADDRESS_BITS

DEFAULT_REGION_COUNT = 1020
DEFAULT_PAGES_PER_REGION = 1024
DEFAULT_PAGE_SIZE = 4096


class _Sentinel:
    def __repr__(self) -> str:
        return "KERNEL_RANGE"


# Result of region lookup for addresses outside the user part; compare
# with ``is``.
KERNEL_RANGE = _Sentinel()


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LayoutConfig:
    region_count: int = DEFAULT_REGION_COUNT
    pages_per_region: int = DEFAULT_PAGES_PER_REGION
    page_size: int = DEFAULT_PAGE_SIZE
    user_base: int = 0

    def __post_init__(self) -> None:
        if self.region_count <= 0:
            raise ValueError("region_count must be positive")
        if not _is_pow2(self.page_size):
            raise ValueError("page_size must be a power of two")
        if not _is_pow2(self.pages_per_region):
            raise ValueError("pages_per_region must be a power of two")
        if self.user_base < 0:
            raise ValueError("user_base must not be negative")
        if self.user_base % self.region_size != 0:
            raise ValueError("user_base must be region aligned")
        if self.user_limit > ADDRESS_SPACE_SIZE:
            raise ValueError("user part exceeds the 32-bit address space")

    # Computed once per layout: the fault path reads them on every lookup.
    @cached_property
    def region_size(self) -> int:
        return self.pages_per_region * self.page_size

    @cached_property
    def region_shift(self) -> int:
        return self.region_size.bit_length() - 1

    @cached_property
    def user_limit(self) -> int:
        """First address above the user part."""
        return self.user_base + self.region_count * self.region_size

    def region_page_range(self, rid: int) -> range:
        """Page indexes covered by a region."""
        start = (self.user_base + rid * self.region_size) // self.page_size
        return range(start, start + self.pages_per_region)


def region_id_div(layout: LayoutConfig, vaddr: int):
    """Division form of the region lookup."""
    if not 0 <= vaddr < ADDRESS_SPACE_SIZE:
        raise ValueError(f"address {vaddr:#x} outside the 32-bit space")
    if vaddr < layout.user_base or vaddr >= layout.user_limit:
        return KERNEL_RANGE
    return (vaddr - layout.user_base) // layout.region_size


def region_id_shift(layout: LayoutConfig, vaddr: int):
    """Shift form; valid because region_size is a power of two."""
    if not 0 <= vaddr < ADDRESS_SPACE_SIZE:
        raise ValueError(f"address {vaddr:#x} outside the 32-bit space")
    if vaddr < layout.user_base or vaddr >= layout.user_limit:
        return KERNEL_RANGE
    return (vaddr - layout.user_base) >> layout.region_shift


# Region id of an address, or ``KERNEL_RANGE`` outside the user part: the
# shift form.  Its agreement with the division form is checked by
# ``reproduce``'s region-forms claim and by the tests, not on every call.
region_id_of = region_id_shift


class ContractState(Enum):
    """Lifecycle of the kernel/pager agreement over one region."""

    UNASSIGNED = "unassigned"
    ASSIGNED = "assigned"
    ACCEPTED = "accepted"
    REVOKED = "revoked"


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
_ASSIGNED = ContractState.ASSIGNED


@dataclass(slots=True)
class RegionSlot:
    manager: int | None = None
    contract: ContractState = ContractState.UNASSIGNED
    # Bit i set while the region's page i is present.  Kept by the kernel's
    # map and unmap, so a revoke reads only its region; an int, so the
    # collector tracks no object for it.
    present: int = 0


class RegionTable:
    """Slots of the assigned regions; an absent region reads as
    ``RegionSlot()``.  Assignment is consumer-driven and last-writer wins;
    acceptance and revocation are driven by the pager through the
    fault-dispatch layer, which writes the contract of the slot it holds."""

    def __init__(self, region_count: int) -> None:
        self.region_count = region_count
        self._slots: dict[int, RegionSlot] = {}

    def assign(self, rid: int, manager: int) -> None:
        """(Re)assign a region manager; any prior contract state resets to
        ASSIGNED, which is how a revoked region comes back to life."""
        # Checked here, not through lookup(), which would build a throwaway
        # RegionSlot for a region not yet held.
        if not 0 <= rid < self.region_count:
            raise BadRegionError(
                f"region {rid} outside table of {self.region_count}"
            )
        slots = self._slots
        if rid in slots:  # a held slot keeps the pages that stay present
            slot = slots[rid]
            slot.manager = manager
            slot.contract = _ASSIGNED
        else:
            slots[rid] = RegionSlot(manager, _ASSIGNED)

    def lookup(self, rid: int) -> RegionSlot:
        if not 0 <= rid < self.region_count:
            raise BadRegionError(
                f"region {rid} outside table of {self.region_count}"
            )
        slot = self._slots.get(rid)
        return slot if slot is not None else RegionSlot()

    def managers(self) -> list[tuple[int, int]]:
        """``(rid, manager)`` of every region that has a manager, in rid
        order."""
        return sorted([
            (rid, slot.manager)
            for rid, slot in self._slots.items()
            if slot.manager is not None
        ])

    def serialize_manager_ids(self) -> bytes:
        """Pack the manager column as little-endian 4-byte ids, one per
        region (0 for a region without a manager).  This is the structure
        whose footprint must stay within one page."""
        ids = [0] * self.region_count
        for rid, manager in self.managers():
            ids[rid] = manager
        return struct.pack(f"<{self.region_count}I", *ids)


class AddressSpace:
    def __init__(self, asid: int, layout: LayoutConfig) -> None:
        self.asid = asid
        self.layout = layout
        self.pages: dict[int, tuple[bool, int, int]] = {}
        self.regions = RegionTable(layout.region_count)

    def present_pages_in_region(self, rid: int) -> list[int]:
        """Present pages of one region, ascending; reads only that
        region's slot, not the page table."""
        bits = self.regions.lookup(rid).present
        first = self.layout.region_page_range(rid).start
        pages = []
        while bits:
            lowest = bits & -bits
            pages.append(first + lowest.bit_length() - 1)
            bits ^= lowest
        return pages
