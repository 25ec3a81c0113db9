"""Append-only event log shared by every component of the machine.

Each observable action in a run (privilege crossing, context switch, IPC,
page-table update, fault verdict) is recorded as one event with a strictly
increasing sequence number starting at zero.  The text rendering is stable
and line oriented, ``seq kind args...``, so two runs can be compared
byte-for-byte and traces can be kept as golden files.

Events may carry the index of the fault-handling cycle they belong to.
Per-cycle accounting counts only attributed events; switches produced by
scripted scheduling directives carry no attribution and are invisible to
the per-fault cost figures, mirroring cost models that charge a fault only
for the crossings its own handling protocol mandates.  The trace indexes
attributed events by cycle as they are appended, so reading one cycle's
events costs that cycle's length, not the trace's.  Events are immutable
named tuples; hot readers unpack them rather than read attributes.
"""

from collections import defaultdict
from enum import Enum
from typing import NamedTuple


class EventKind(Enum):
    """Trace event kinds; the enum value is the on-wire spelling."""

    MODE_SWITCH_U2K = "MODE_SWITCH_U2K"
    MODE_SWITCH_K2U = "MODE_SWITCH_K2U"
    CONTEXT_SWITCH = "CONTEXT_SWITCH"
    IPC_SEND = "IPC_SEND"
    IPC_RECEIVE = "IPC_RECEIVE"
    SUSPEND = "SUSPEND"
    RESUME = "RESUME"
    MAP_PAGE = "MAP_PAGE"
    UNMAP_PAGE = "UNMAP_PAGE"
    VERDICT = "VERDICT"


class TraceEvent(NamedTuple):
    seq: int
    kind: EventKind
    args: tuple
    cycle: int | None = None

    def render(self) -> str:
        seq, kind, args, cycle = self
        parts = [str(seq), kind._value_, *map(str, args)]
        if cycle is not None:
            parts.append(f"cycle={cycle}")
        return " ".join(parts)


class Trace:
    """Gap-free, append-only list of :class:`TraceEvent`."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._by_cycle: defaultdict[int, list[TraceEvent]] = defaultdict(list)

    def append(self, kind: EventKind, *args, cycle: int | None = None) -> TraceEvent:
        events = self.events
        # tuple.__new__ skips the named tuple's Python-level __new__.
        ev = tuple.__new__(TraceEvent, (len(events), kind, args, cycle))
        events.append(ev)
        if cycle is not None:
            self._by_cycle[cycle].append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, idx):
        return self.events[idx]

    def of_cycle(self, cycle: int) -> list[TraceEvent]:
        """All events attributed to one fault cycle, in trace order."""
        return list(self._by_cycle.get(cycle, ()))

    def to_text(self) -> str:
        return "".join([ev.render() + "\n" for ev in self.events])
