"""Single-CPU deterministic machine: threads, occupancy, messages.

The machine models exactly one CPU.  At any instant one thread occupies it.
The kernel is not a thread: tid 0 only names it as the sender of a page
fault and the receiver of a reply, and kernel work is charged to the
thread it serves.  A ``CONTEXT_SWITCH`` event is emitted if and only if
the occupying thread id changes, so projecting the trace onto context
switches reconstructs the occupancy timeline.  ``switch_to`` makes and
records the scripted switches and yields.  A fault-protocol step that
hands the CPU on writes the occupant itself, right after the state write
that readied the thread, and records the switch with its other events.

Message passing is synchronous rendezvous: pagers sit in a receive loop
(``BLOCKED_ON_RECEIVE``), and a send to a pager waiting there hands it
the message and the CPU in one step; only a busy receiver's messages
queue here.  The fault-dispatch layer records each send, and delivers a
queued message later, taking it from the box and recording the receive.
A queued message is its kind and its payload, opaque here.

A thread is its declaration, shared by every machine built from one
scenario; a machine keeps only each thread's scheduling state, and sets
it only at registration: the fault-dispatch layer writes every change.
"""

from collections import defaultdict, deque
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .errors import (
    DeadlockError,
    NotSchedulableError,
    UnknownReceiverError,
    UnknownThreadError,
)
from .trace import CountingTrace, EventKind, Trace

KERNEL_TID = 0


class ThreadState(Enum):
    READY = "ready"
    SUSPENDED = "suspended"
    BLOCKED_ON_RECEIVE = "blocked_on_receive"


class ThreadRole(Enum):
    APPLICANT = "applicant"
    PAGER = "pager"
    REGION_MAPPER = "region_mapper"


class AccessType(Enum):
    READ = "R"
    WRITE = "W"


def _record(cls):
    """A per-line record class: a NamedTuple that equals only a record of
    its own class, so ``DispatchItem("T") != SwitchItem("T")`` and no
    record equals a plain tuple.  ``__ne__`` is set too, since a tuple
    subclass would otherwise keep tuple's, and ``__hash__`` stays tuple's."""
    cls.__eq__ = _record_eq
    cls.__ne__ = _record_ne
    cls.__hash__ = tuple.__hash__
    return cls


def _record_eq(self, other):
    return type(other) is type(self) and _tuple_eq(self, other)


def _record_ne(self, other):
    return type(other) is not type(self) or _tuple_ne(self, other)


_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


@_record
class ThreadDecl(NamedTuple):
    name: str
    tid: int
    asid: int
    role: ThreadRole
    pager_name: str | None = None


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
_READY = ThreadState.READY
_BLOCKED_ON_RECEIVE = ThreadState.BLOCKED_ON_RECEIVE
_APPLICANT = ThreadRole.APPLICANT
_CONTEXT_SWITCH = EventKind.CONTEXT_SWITCH


class Machine:
    def __init__(self, order: tuple = (), keep_events: bool = True) -> None:
        # The scheduling order's leading tids, duplicates kept; the machine
        # completes it with every other thread in registration order.
        self.order = order
        # False builds a counters-only trace: event count and counter rows.
        self.trace = Trace() if keep_events else CountingTrace()
        # Each thread's declaration, and the one thing runs change about
        # it: its state, which only the fault-dispatch layer writes later.
        self.threads: dict[int, ThreadDecl] = {}
        self.state: dict[int, ThreadState] = {}
        self.warnings: list[str] = []
        # The running thread: the one record of who holds the CPU.  It
        # survives suspension until someone else is switched in.
        self.occupant: int | None = None
        # Queued ``(kind, payload)`` messages per thread, the kind as the
        # trace spells it.  A thread's box is made by the first message
        # sent to it, so a thread that never gets one has none.  The
        # dispatch and scheme layers read a pager's box without a call.
        self.mailboxes: dict[int, deque[tuple[str, object]]] = defaultdict(deque)
        # The scheduling order and each tid's first position in it, built
        # together after registration changes.
        self._sched_order: list[int] | None = None
        self._sched_pos: dict[int, int] = {}

    # ---- thread registry -------------------------------------------------

    def register_thread(
        self,
        tid: int,
        asid: int,
        role: ThreadRole,
        name: str = "",
    ) -> ThreadDecl:
        if tid in self.threads:
            raise ValueError(f"thread id {tid} already registered")
        if tid <= 0:
            raise ValueError("thread ids must be positive (0 is the kernel)")
        # tuple.__new__, a C call: a NamedTuple's own constructor is not.
        decl = tuple.__new__(ThreadDecl, (name, tid, asid, role, None))
        self.add_threads((decl,))
        return decl

    def add_threads(self, decls: Iterable[ThreadDecl]) -> None:
        """Register declared threads, whose tids the caller has checked,
        in one step: no Python-level call per thread."""
        threads, state = self.threads, self.state
        for t in decls:
            threads[t.tid] = t
            # Pagers and region mappers idle in their message loop.
            state[t.tid] = _READY if t.role is _APPLICANT else _BLOCKED_ON_RECEIVE
        self._sched_order = None  # rebuilt lazily after registration changes

    def thread(self, tid: int) -> ThreadDecl:
        """The thread's declaration.  The fault path reads ``threads``
        itself and calls this only to raise ``UnknownThreadError``."""
        decl = self.threads.get(tid)
        if decl is None:
            raise UnknownThreadError(f"no thread with id {tid}")
        return decl

    # ---- occupancy -------------------------------------------------------

    def switch_to(self, tid: int) -> None:
        """Make the ready thread ``tid`` the occupant, recording a scripted
        switch or a yield unattributed.  No thread state changes."""
        if self.state.get(tid) is not _READY:
            raise self.unschedulable(tid)
        prev = self.occupant
        if prev != tid:
            self.occupant = tid
            if prev is not None:
                self.trace.append(_CONTEXT_SWITCH, (prev, tid))

    def unschedulable(self, tid: int) -> NotSchedulableError:
        """The refusal to hand the CPU to ``tid``, which is not ready."""
        name = self.thread(tid).name  # UnknownThreadError if unknown
        who = f"thread {name!r} (tid {tid})" if name else f"thread {tid}"
        return NotSchedulableError(f"{who} is {self.state[tid].value}, cannot run")

    # ---- messaging -------------------------------------------------------

    def send(self, receiver: int, kind: str, payload: object) -> None:
        """Queue the message ``(kind, payload)`` at the thread ``receiver``.
        The kernel takes a reply at once and has no mailbox."""
        if receiver not in self.threads:
            raise UnknownReceiverError(f"no receiver with id {receiver}")
        self.mailboxes[receiver].append((kind, payload))

    # ---- scheduling ------------------------------------------------------

    def _build_order(self) -> list[int]:
        tids = list(self.threads)
        if self.order:
            # Duplicates in the given order are kept; the set only keeps
            # the completion linear in the number of threads.
            declared = [t for t in self.order if t in self.threads]
            seen = set(declared)
            declared += [t for t in tids if t not in seen]
            tids = declared
        return tids

    def schedule_next(self) -> int:
        """Pick the next thread in the scheduling order.  Walks the cyclic
        order starting after the thread that holds the CPU and returns the
        first ready thread; raises ``DeadlockError`` when nothing can run."""
        if self._sched_order is None:
            order = self._sched_order = self._build_order()
            # Filled from the back, so a tid listed twice keeps its first
            # position.
            self._sched_pos = dict(
                zip(reversed(order), range(len(order) - 1, -1, -1))
            )
        order = self._sched_order
        start = -1 if self.occupant is None else self._sched_pos[self.occupant]
        n = len(order)
        for step in range(1, n + 1):
            tid = order[(start + step) % n]
            if self.state[tid] is _READY:
                return tid
        raise DeadlockError("no runnable thread")

    def yield_current(self) -> int:
        """Voluntary yield: hand the CPU to the scheduler's next pick
        (which may be the occupant itself)."""
        tid = self.schedule_next()
        self.switch_to(tid)
        return tid
