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
for the crossings its own handling protocol mandates.  Appending an
attributed event bumps its kind's count in its cycle's counter row, so
accounting never walks the events.  Events live in columns of kinds, raw
arguments (ints and enum spellings) and cycles; only rendering makes text.
"""

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


# Tables keyed by the on-wire spelling: hashing an enum runs Python code.
# Column of each kind in a cycle's counter row:
SLOT = {kind._value_: i for i, kind in enumerate(EventKind)}

# Each kind's argument formats, in order; unlisted kinds take none.  An event
# may carry a prefix of them: a send without payload ends at the message
# kind, a reply after faulter=, a verdict without a manager after vaddr=.
_FIELDS = {
    "CONTEXT_SWITCH": ("%s", "%s"),
    "IPC_SEND": ("%s", "%s", "%s", "faulter=%s", "vaddr=%#x", "access=%s",
                 "marker=%s"),
    "IPC_RECEIVE": ("%s", "%s"),
    "SUSPEND": ("%s",),
    "RESUME": ("%s",),
    "MAP_PAGE": ("asid=%s", "vaddr=%#x", "frame=%s", "marker=%s"),
    "UNMAP_PAGE": ("asid=%s", "vaddr=%#x", "revoke=%d"),
    "VERDICT": ("%s", "tid=%s", "vaddr=%#x", "manager=%s"),
}
# Line templates ``seq KIND args...`` per kind, indexed by argument count,
# without and with the cycle attribution.
_LINES = {
    kind: [" ".join(("%s", kind, *fields[:n])) for n in range(len(fields) + 1)]
    for kind, fields in ((k, _FIELDS.get(k, ())) for k in SLOT)
}
_ATTRIBUTED_LINES = {k: [t + " cycle=%s" for t in v] for k, v in _LINES.items()}


def _line(seq: int, kind: EventKind, args: tuple, cycle: int | None) -> str:
    if cycle is None:
        return _LINES[kind._value_][len(args)] % (seq, *args)
    return _ATTRIBUTED_LINES[kind._value_][len(args)] % (seq, *args, cycle)


class TraceEvent(NamedTuple):
    seq: int
    kind: EventKind
    args: tuple
    cycle: int | None = None

    def render(self) -> str:
        return _line(*self)


class Trace:
    """Gap-free, append-only log in columns ``kinds``, ``args`` and
    ``cycle_of``, indexed by seq and read back as :class:`TraceEvent`, with
    one counter row per attributed cycle: ``cycle_counts[c][SLOT[kind._value_]]``
    is how many events of that kind cycle ``c`` has."""

    def __init__(self) -> None:
        self.kinds: list[EventKind] = []
        self.args: list[tuple] = []
        self.cycle_of: list[int | None] = []
        self.cycle_counts: list[list[int]] = []

    def append(self, kind: EventKind, *args, cycle: int | None = None) -> None:
        self.kinds.append(kind)
        self.args.append(args)
        self.cycle_of.append(cycle)
        if cycle is not None:
            rows = self.cycle_counts
            while len(rows) <= cycle:
                rows.append([0] * len(SLOT))
            rows[cycle][SLOT[kind._value_]] += 1

    def __len__(self) -> int:
        return len(self.kinds)

    def _event(self, seq: int) -> TraceEvent:
        return TraceEvent(seq, self.kinds[seq], self.args[seq], self.cycle_of[seq])

    def __iter__(self):
        return map(self._event, range(len(self.kinds)))

    def __getitem__(self, idx):
        # A range resolves negative indices and slices, or raises IndexError.
        seqs = range(len(self.kinds))[idx]
        if isinstance(idx, slice):
            return list(map(self._event, seqs))
        return self._event(seqs)

    def of_cycle(self, cycle: int) -> list[TraceEvent]:
        """All events attributed to one fault cycle, in trace order."""
        return [self._event(i) for i, c in enumerate(self.cycle_of) if c == cycle]

    def to_text(self) -> str:
        lines = list(
            map(_line, range(len(self.kinds)), self.kinds, self.args, self.cycle_of)
        )
        return "\n".join(lines) + "\n" if lines else ""
