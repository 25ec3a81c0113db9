"""Page-table entries with a pager-owned marker, and address translation.

A space's page table is a plain dict from page index to an entry tuple
``(present, frame, marker)``: a present flag, a frame number, and a 31-bit
marker.  The marker is opaque to the kernel: a pager stores whatever
bookkeeping it likes there (swap slot, generation counter) and reads it
back from the fault message the next time the page faults.  Unmapping
clears the present flag and the frame; the marker survives, which is the
whole point of keeping pager data inside the entry.  A page absent
from the dict was never mapped and reads as non-present with marker 0.
``KernelMemory`` is the only writer of entries and checks the marker's
width.

``translate`` treats an absent page as an ordinary outcome, not an error:
it returns ``None``, and the caller opens the fault's ``FaultCycle``
with ``FaultDispatcher.begin_fault``.
"""

# Marker width: the entry bit that would hold it is spent on the present
# flag, leaving 31 usable bits.
MARKER_BITS = 31
MARKER_LIMIT = 1 << MARKER_BITS


def translate(
    pages: dict[int, tuple[bool, int, int]], page_size: int, vaddr: int
) -> int | None:
    """Resolve a virtual address to a frame number.

    Returns the frame on a present page, otherwise ``None``: a fault.  No
    region or permission logic lives here; classification of the fault is
    the dispatch layer's job.
    """
    ent = pages.get(vaddr // page_size)
    if ent is not None and ent[0]:
        return ent[1]
    return None
