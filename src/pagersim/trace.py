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
Rendering joins the line templates of a block of ``RENDER_BLOCK`` events
and formats the block with one ``%`` over its fields, so it makes no
Python-level call per event.

Where events go is chosen once, when the trace is built.  A ``Trace``
keeps them; a ``CountingTrace``, for runs whose events nobody reads, keeps
only the event count and the counter rows, and each of its event readers
raises ``EventsNotKeptError``.
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


# Tables keyed by the on-wire spelling, not the enum: docs/architecture.md,
# "Run-path costs".
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
# Events formatted by one ``%`` in ``Trace.to_text``: large enough that the
# per-block work vanishes, small enough that a block's text stays small
# beside the whole trace's.
RENDER_BLOCK = 1024


class TraceEvent(NamedTuple):
    seq: int
    kind: EventKind
    args: tuple
    cycle: int | None = None

    def render(self) -> str:
        seq, kind, args, cycle = self
        if cycle is None:
            return _LINES[kind._value_][len(args)] % (seq, *args)
        return _ATTRIBUTED_LINES[kind._value_][len(args)] % (seq, *args, cycle)


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

    def append(
        self, kind: EventKind, args: tuple = (), cycle: int | None = None
    ) -> None:
        """Record one event: its kind, its arguments as one tuple, and the
        fault cycle it is attributed to, if any.  The run path passes all
        three positionally (docs/architecture.md, "Run-path costs")."""
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
        """One ``seq KIND args...`` line per event, each block of
        ``RENDER_BLOCK`` events formatted by one ``%`` call."""
        kinds, args, cycles = self.kinds, self.args, self.cycle_of
        blocks = []
        for start in range(0, len(kinds), RENDER_BLOCK):
            stop = start + RENDER_BLOCK
            templates = []
            fields = []
            for seq, kind, a, cycle in zip(
                range(start, stop), kinds[start:stop], args[start:stop],
                cycles[start:stop],
            ):
                fields.append(seq)
                fields += a
                if cycle is None:
                    templates.append(_LINES[kind._value_][len(a)])
                else:
                    templates.append(_ATTRIBUTED_LINES[kind._value_][len(a)])
                    fields.append(cycle)
            templates.append("")  # the block's last line ends in a newline
            blocks.append("\n".join(templates) % tuple(fields))
        return "".join(blocks)


class EventsNotKeptError(LookupError):
    """Events were read from a trace that kept only counters."""


class CountingTrace(Trace):
    """Counters-only trace: the event count and the counter rows of a
    :class:`Trace`, and no events.  ``len`` is the number of events
    appended, so a run's summary reads the same as with a kept log;
    iterating, indexing, ``of_cycle`` and ``to_text`` raise
    :class:`EventsNotKeptError`.  The keeping ``Trace.append`` is left
    without a branch; this class has its own."""

    def __init__(self) -> None:
        self.appended = 0
        self.cycle_counts: list[list[int]] = []

    def append(
        self, kind: EventKind, args: tuple = (), cycle: int | None = None
    ) -> None:
        """Count one event and, if it is attributed, bump its cycle's row."""
        self.appended += 1
        if cycle is not None:
            rows = self.cycle_counts
            while len(rows) <= cycle:
                rows.append([0] * len(SLOT))
            rows[cycle][SLOT[kind._value_]] += 1

    def __len__(self) -> int:
        return self.appended

    def _not_kept(self, *_):
        raise EventsNotKeptError(
            f"this trace counted {self.appended} events but did not keep "
            "them; run with keep_events=True (or pass --trace) to read events"
        )

    __iter__ = __getitem__ = of_cycle = to_text = _not_kept
