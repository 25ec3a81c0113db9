"""One-level page tables with a pager-owned marker in each entry.

An entry holds a present flag, a frame number, and a 31-bit marker.  The
marker is opaque to the kernel: a pager stores whatever bookkeeping it
likes there (swap slot, generation counter) and reads it back from the
fault message the next time the page faults.  Unmapping clears only the
present flag; the marker survives, which is the whole point of keeping
pager data inside the entry.  Never-mapped pages read back marker 0.

``translate`` treats an absent page as an ordinary outcome, not an error:
it returns ``None``, and the caller opens the fault's ``FaultCycle``
with ``FaultDispatcher.begin_fault``.
"""

from dataclasses import dataclass

from .errors import MarkerOverflowError, NotMappedError

# Marker width: the entry bit that would hold it is spent on the present
# flag, leaving 31 usable bits.
MARKER_BITS = 31
MARKER_LIMIT = 1 << MARKER_BITS


@dataclass(slots=True)
class PageTableEntry:
    present: bool = False
    frame: int = 0
    marker: int = 0


class PageTable:
    """Flat mapping from page index to entry; a page absent from
    ``entries`` was never mapped and reads as non-present with marker 0."""

    def __init__(self) -> None:
        self.entries: dict[int, PageTableEntry] = {}

    def set_mapping(self, page: int, frame: int, marker: int) -> None:
        if not 0 <= marker < MARKER_LIMIT:
            raise MarkerOverflowError(
                f"marker {marker} does not fit in {MARKER_BITS} bits"
            )
        self.entries[page] = PageTableEntry(True, frame, marker)

    def clear_mapping(self, page: int) -> None:
        """Drop the present flag but keep the marker readable."""
        ent = self.entries.get(page)
        if ent is None or not ent.present:
            raise NotMappedError(f"page {page} has no present mapping")
        ent.present = False

    def snapshot(self) -> dict[int, tuple[bool, int, int]]:
        """Content view used for cross-scheme comparison; unordered, since
        dict equality ignores order."""
        return {
            p: (e.present, e.frame if e.present else 0, e.marker)
            for p, e in self.entries.items()
        }


def translate(table: PageTable, page_size: int, vaddr: int) -> int | None:
    """Resolve a virtual address to a frame number.

    Returns the frame on a present page, otherwise ``None``: a fault.  No
    region or permission logic lives here; classification of the fault is
    the dispatch layer's job.
    """
    ent = table.entries.get(vaddr // page_size)
    if ent is not None and ent.present:
        return ent.frame
    return None
