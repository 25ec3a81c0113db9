"""Single-CPU deterministic machine: threads, occupancy, messages.

The machine models exactly one CPU.  At any instant one thread occupies it.
The kernel is not a thread: tid 0 only names it as the sender of a page
fault and the receiver of a reply, and kernel work is charged to the
thread it serves.  A ``CONTEXT_SWITCH`` event is emitted if and only if
the occupying thread id changes, so projecting the trace onto context
switches reconstructs the occupancy timeline.  The machine emits no
privilege crossing: those are steps of the fault protocol, and the
fault-dispatch layer records them.

Message passing is synchronous rendezvous: pagers sit in a receive loop
(``BLOCKED_ON_RECEIVE``), a send queues at the receiver, and delivery
hands the CPU to the receiver.  The fault-dispatch layer decides when a
queued message is actually delivered, and it writes each send's trace
arguments itself.  A queued message is its kind and its payload, and the
payload is opaque here: the machine reads none of its fields.
"""

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DeadlockError,
    NotSchedulableError,
    SimulationError,
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


@dataclass(slots=True)
class ThreadControlBlock:
    tid: int
    asid: int
    role: ThreadRole
    state: ThreadState
    name: str = ""


@dataclass(frozen=True)
class DeterministicOrder:
    """Scheduler directive: walk a fixed cyclic preference order."""

    order: tuple[int, ...] = ()


@dataclass(frozen=True)
class SeededRoundRobin:
    """Scheduler directive: round-robin over a seed-shuffled thread order."""

    seed: int = 0


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
_READY = ThreadState.READY
_SUSPENDED = ThreadState.SUSPENDED
_BLOCKED_ON_RECEIVE = ThreadState.BLOCKED_ON_RECEIVE
_PAGER = ThreadRole.PAGER
_REGION_MAPPER = ThreadRole.REGION_MAPPER
_CONTEXT_SWITCH = EventKind.CONTEXT_SWITCH
_IPC_SEND = EventKind.IPC_SEND
_IPC_RECEIVE = EventKind.IPC_RECEIVE
_SUSPEND = EventKind.SUSPEND
_RESUME = EventKind.RESUME


@dataclass
class Machine:
    directive: DeterministicOrder | SeededRoundRobin = field(
        default_factory=DeterministicOrder
    )
    # False builds a counters-only trace: event count and counter rows.
    keep_events: bool = True

    def __post_init__(self) -> None:
        self.trace = Trace() if self.keep_events else CountingTrace()
        self.threads: dict[int, ThreadControlBlock] = {}
        self.warnings: list[str] = []
        # The running thread: the one record of who holds the CPU.  It
        # survives suspension until someone else is switched in.
        self.occupant: int | None = None
        # Queued ``(kind, payload)`` messages per thread, the kind as the
        # trace spells it.  A thread's box is made by the first message
        # sent to it, so a thread that never gets one has none.  The
        # dispatch and scheme layers read a pager's box without a call.
        self.mailboxes: dict[int, deque[tuple[str, object]]] = {}
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
    ) -> ThreadControlBlock:
        if tid in self.threads:
            raise ValueError(f"thread id {tid} already registered")
        if tid <= 0:
            raise ValueError("thread ids must be positive (0 is the kernel)")
        # Pagers and region mappers idle in their message loop.
        if role is _PAGER or role is _REGION_MAPPER:
            state = _BLOCKED_ON_RECEIVE
        else:
            state = _READY
        tcb = self.threads[tid] = ThreadControlBlock(tid, asid, role, state, name)
        self._sched_order = None  # rebuilt lazily after registration changes
        return tcb

    def thread(self, tid: int) -> ThreadControlBlock:
        """The thread's control block.  The fault path reads ``threads``
        itself and calls this only to raise ``UnknownThreadError``."""
        tcb = self.threads.get(tid)
        if tcb is None:
            raise UnknownThreadError(f"no thread with id {tid}")
        return tcb

    # ---- occupancy and thread states -------------------------------------

    def switch_to(self, tid: int, cycle: int | None = None) -> None:
        """Make the ready thread `tid` the occupant, emitting a context
        switch iff the occupant changes.  The first dispatch of a run emits
        none.  No thread state changes: the occupant is who runs."""
        tcb = self.threads.get(tid) or self.thread(tid)
        if tcb.state is not _READY:
            who = f"thread {tcb.name!r} (tid {tid})" if tcb.name else f"thread {tid}"
            raise NotSchedulableError(f"{who} is {tcb.state.value}, cannot run")
        prev = self.occupant
        if prev != tid:
            if prev is not None:
                self.trace.append(_CONTEXT_SWITCH, (prev, tid), cycle)
            self.occupant = tid

    def suspend(self, tid: int, cycle: int | None = None) -> None:
        (self.threads.get(tid) or self.thread(tid)).state = _SUSPENDED
        self.trace.append(_SUSPEND, (tid,), cycle)

    def resume(self, tid: int, cycle: int | None = None) -> None:
        (self.threads.get(tid) or self.thread(tid)).state = _READY
        self.trace.append(_RESUME, (tid,), cycle)

    def block_on_receive(self, tid: int) -> None:
        # Occupancy is only reassigned by the next switch_to.
        tcb = self.threads.get(tid) or self.thread(tid)
        tcb.state = _BLOCKED_ON_RECEIVE

    # ---- messaging -------------------------------------------------------

    def send(self, args: tuple, payload: object, cycle: int | None = None) -> None:
        """Record a send whose trace arguments are ``args``, ``(sender,
        receiver, kind, ...)``, and queue ``(kind, payload)`` at the
        receiver."""
        receiver = args[1]
        if receiver != KERNEL_TID and receiver not in self.threads:
            raise UnknownReceiverError(f"no receiver with id {receiver}")
        self.trace.append(_IPC_SEND, args, cycle)
        if receiver != KERNEL_TID:
            # The kernel is no thread: it takes a reply synchronously, so
            # only real threads have a mailbox worth filling.
            msg = (args[2], payload)
            try:
                self.mailboxes[receiver].append(msg)
            except KeyError:
                self.mailboxes[receiver] = deque((msg,))

    def receive(self, tid: int, cycle: int | None = None) -> object:
        """Take the next message queued at ``tid``; returns its payload."""
        box = self.mailboxes.get(tid)
        if not box:
            # The run path never gets here: it receives only after it saw
            # mail in the box.
            self.thread(tid)  # raises UnknownThreadError for an unknown tid
            raise SimulationError(f"thread {tid} has no pending message")
        kind, payload = box.popleft()
        self.trace.append(_IPC_RECEIVE, (tid, kind), cycle)
        return payload

    # ---- scheduling ------------------------------------------------------

    def _build_order(self) -> list[int]:
        tids = list(self.threads)
        if isinstance(self.directive, SeededRoundRobin):
            rng = random.Random(self.directive.seed)
            rng.shuffle(tids)
        elif self.directive.order:
            # Duplicates in the directive's order are kept; the set only
            # keeps the completion linear in the number of threads.
            declared = [t for t in self.directive.order if t in self.threads]
            seen = set(declared)
            declared += [t for t in tids if t not in seen]
            tids = declared
        return tids

    def schedule_next(self) -> int:
        """Pick the next thread per the directive.  Walks the cyclic order
        starting after the thread that holds the CPU and returns the first
        ready thread; raises ``DeadlockError`` when nothing can run."""
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
            if self.threads[tid].state is _READY:
                return tid
        raise DeadlockError("no runnable thread")

    def yield_current(self) -> int:
        """Voluntary yield: hand the CPU to the scheduler's next pick
        (which may be the occupant itself)."""
        tid = self.schedule_next()
        self.switch_to(tid)
        return tid
