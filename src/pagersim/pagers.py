"""User-level pager behaviors and their supporting structures.

A pager receives a fault, its ``FaultCycle``, and answers with a short
list of actions: map a frame, reply to release the faulter, unmap pages,
or reflect the fault onward.  One list answers one fault, so no action
names it: whoever carries the list out holds the fault beside it and
reads the space, address, region and cycle there.  A map is a
``MapAction(frame, marker)``; the other three need no data and are the
members of ``Step``.  Keeping the answer as data lets a scenario
interleave the actions of one pager with other events, which is how the
concurrent-fault race is scripted: the map can land between another
thread's trap and its dispatch step.

Policies:

* ``ANONYMOUS``  - zero-fill semantics: allocate the next free frame, map
  it with a policy-chosen marker, reply.
* ``FIXED``      - map a frame picked from a scenario-declared backing
  table; a page without backing gets no map and no reply.
* ``REJECTING``  - silently ignore the fault; the faulter stays suspended.
  This is distinct from refusing a region's contract, which the kernel
  turns into a protection fault before any message is sent.
* ``REFLECTING`` - forward the fault to the pager responsible for the
  faulting range per the mapping database (the region-mapper protocol).

A pager with ``revoke_after=N`` walks away after its Nth resolved fault in
a region: it unmaps every present page there, setting the revoke flag on
the last one, which flips the region's contract to REVOKED.
"""

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    NoDatabaseEntryError,
    OutOfFramesError,
    OverlappingRangeError,
)
from .fault_dispatch import FaultCycle

DEFAULT_FRAME_LIMIT = 1 << 24


class PagerPolicy(Enum):
    ANONYMOUS = "anonymous"
    FIXED = "fixed"
    REJECTING = "rejecting"
    REFLECTING = "reflecting"


class MarkerKind(Enum):
    ZERO = "zero"
    PAGE = "page"
    FIXED = "fixed"


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
_ZERO_MARKER = MarkerKind.ZERO
_PAGE_MARKER = MarkerKind.PAGE
_FIXED_POLICY = PagerPolicy.FIXED
_REJECTING = PagerPolicy.REJECTING
_REFLECTING = PagerPolicy.REFLECTING


@dataclass(frozen=True)
class MarkerRule:
    """Rule mapping a page index to the 31-bit marker stored with the map."""

    kind: MarkerKind = MarkerKind.ZERO
    value: int = 0

    def marker_for(self, page: int) -> int:
        if self.kind is _ZERO_MARKER:
            return 0
        if self.kind is _PAGE_MARKER:
            return page
        return self.value


class FrameAllocator:
    """Bump allocator over a finite frame pool; deterministic by design."""

    def __init__(self, limit: int = DEFAULT_FRAME_LIMIT) -> None:
        self.limit = limit
        self._next = 0

    def allocate(self) -> int:
        if self._next >= self.limit:
            raise OutOfFramesError(f"frame pool of {self.limit} exhausted")
        frame = self._next
        self._next += 1
        return frame


class MappingDatabase:
    """Non-overlapping half-open address ranges, each naming the pager
    responsible for faults inside it."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._targets: list[int] = []

    def insert(self, start: int, end: int, target: int) -> None:
        if start >= end:
            raise ValueError(f"empty range [{start:#x}, {end:#x})")
        i = bisect.bisect_left(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            raise OverlappingRangeError(
                f"[{start:#x}, {end:#x}) overlaps an existing range"
            )
        if i < len(self._starts) and self._starts[i] < end:
            raise OverlappingRangeError(
                f"[{start:#x}, {end:#x}) overlaps an existing range"
            )
        self._starts.insert(i, start)
        self._ends.insert(i, end)
        self._targets.insert(i, target)

    def lookup(self, vaddr: int) -> int:
        i = bisect.bisect_right(self._starts, vaddr) - 1
        if i >= 0 and vaddr < self._ends[i]:
            return self._targets[i]
        raise NoDatabaseEntryError(f"no range covers {vaddr:#x}")

    def __len__(self) -> int:
        return len(self._starts)


# ---- actions -------------------------------------------------------------


class MapAction(NamedTuple):
    """Map ``frame`` at the faulting page, in the faulting space."""

    frame: int
    marker: int


class Step(Enum):
    """The actions that need no data beyond the fault they answer."""

    REPLY = "reply"  # settle the fault, releasing the faulter
    REFLECT = "reflect"  # forward the fault to the pager the database names
    # Unmap every present page the pager holds in the faulted region,
    # revoke flag on the last; expanded at execution time against live state.
    REVOKE = "revoke"


# Bound once, and compared by identity on the run path.
REPLY = Step.REPLY
REFLECT = Step.REFLECT
REVOKE = Step.REVOKE

Action = MapAction | Step

# A map is built with ``_new(MapAction, (frame, marker))``, not through the
# NamedTuple's own constructor (docs/architecture.md, "Run-path costs").
_new = tuple.__new__


@dataclass
class PagerBehavior:
    policy: PagerPolicy = PagerPolicy.ANONYMOUS
    marker_rule: MarkerRule = field(default_factory=MarkerRule)
    revoke_after: int | None = None
    backing: dict[int, int] = field(default_factory=dict)  # page -> frame
    db: MappingDatabase | None = None

    # Resolved-fault counts per (asid, rid), for revoke_after.
    _resolved: dict[tuple[int, int], int] = field(default_factory=dict)

    def on_page_fault(
        self,
        fault: FaultCycle,
        page_size: int,
        allocator: FrameAllocator,
        warnings: list[str],
    ) -> list[Action]:
        """Compute the action list answering one fault.

        The fault names the faulting space and region (a real pager
        derives both from the faulter's identity); they feed the map
        target and the revoke bookkeeping.
        """
        page = fault.vaddr // page_size
        if self.policy is _REJECTING:
            return []
        if self.policy is _REFLECTING:
            return [REFLECT]
        if self.policy is _FIXED_POLICY:
            frame = self.backing.get(page)
            if frame is None:
                warnings.append(
                    f"fixed-backing pager has no frame for page {page}; "
                    f"fault of thread {fault.faulter} left unanswered"
                )
                return []
        else:
            frame = allocator.allocate()
        actions: list[Action] = [
            _new(MapAction, (frame, self.marker_rule.marker_for(page))), REPLY,
        ]
        if self.revoke_after is not None:
            key = (fault.asid, fault.rid)
            count = self._resolved.get(key, 0) + 1
            self._resolved[key] = count
            if count >= self.revoke_after:
                actions.append(REVOKE)
                self._resolved[key] = 0
        return actions
