"""Single-CPU deterministic machine: threads, occupancy, messages.

The machine models exactly one CPU.  At any instant one thread occupies it
(the kernel pseudo-thread, tid 0, never does; kernel work is charged to the
thread it serves).  A ``CONTEXT_SWITCH`` event is emitted if and only if
the occupying thread id changes, so projecting the trace onto context
switches reconstructs the occupancy timeline.  The machine emits no
privilege crossing: those are steps of the fault protocol, and the
fault-dispatch layer records them.

Message passing is synchronous rendezvous: pagers sit in a receive loop
(``BLOCKED_ON_RECEIVE``), a send queues at the receiver, and delivery
hands the CPU to the receiver.  The fault-dispatch layer decides when a
queued message is actually delivered.  A message about a fault carries
the fault's ``FaultCycle`` as its payload; ``send`` reads its ``faulter``,
``vaddr``, ``access`` and ``marker`` without importing the dispatch layer.
"""

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    DeadlockError,
    NotSchedulableError,
    SimulationError,
    UnknownReceiverError,
    UnknownThreadError,
)
from .trace import EventKind, Trace

KERNEL_TID = 0


class ThreadState(Enum):
    READY = "ready"
    SUSPENDED = "suspended"
    BLOCKED_ON_RECEIVE = "blocked_on_receive"


class ThreadRole(Enum):
    APPLICANT = "applicant"
    PAGER = "pager"
    REGION_MAPPER = "region_mapper"
    KERNEL_INTERNAL = "kernel_internal"


class AccessType(Enum):
    READ = "R"
    WRITE = "W"


class MessageKind(Enum):
    PAGE_FAULT = "PAGE_FAULT"
    REFLECTION = "REFLECTION"
    REPLY = "REPLY"


@dataclass(slots=True)
class ThreadControlBlock:
    tid: int
    asid: int
    role: ThreadRole
    state: ThreadState
    name: str = ""


class Message(NamedTuple):
    sender: int
    receiver: int
    kind: MessageKind
    # The FaultCycle of the fault the message is about.
    payload: object = None


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
_KERNEL_INTERNAL = ThreadRole.KERNEL_INTERNAL
_REPLY = MessageKind.REPLY
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

    def __post_init__(self) -> None:
        self.trace = Trace()
        self.threads: dict[int, ThreadControlBlock] = {}
        self.warnings: list[str] = []
        # The running thread: the one record of who holds the CPU.  It
        # survives suspension until someone else is switched in.
        self.occupant: int | None = None
        # Queued messages per thread.  A thread's box is made by the first
        # message sent to it, so a thread that never gets one has none.
        # The scheme layer reads a pager's box to learn whether it has mail
        # without a call.
        self.mailboxes: dict[int, deque[Message]] = {}
        # The scheduling order and each tid's first position in it, built
        # together after registration changes.
        self._sched_order: list[int] | None = None
        self._sched_pos: dict[int, int] = {}
        self.threads[KERNEL_TID] = ThreadControlBlock(
            KERNEL_TID, 0, _KERNEL_INTERNAL, _BLOCKED_ON_RECEIVE, "kernel"
        )

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
        if role in (_PAGER, _REGION_MAPPER):
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

    def send(self, msg: Message, cycle: int | None = None) -> None:
        """Queue a message at the receiver and record the send."""
        sender, receiver, kind, payload = msg
        if receiver not in self.threads:
            raise UnknownReceiverError(f"no receiver with id {receiver}")
        # _value_, not .value: docs/architecture.md, "Run-path costs".
        args: tuple = (sender, receiver, kind._value_)
        if payload is not None:
            if kind is _REPLY:
                args += (payload.faulter,)
            else:
                args += (
                    payload.faulter, payload.vaddr, payload.access._value_,
                    payload.marker,
                )
        self.trace.append(_IPC_SEND, args, cycle)
        if receiver != KERNEL_TID:
            # The kernel consumes its messages synchronously; only real
            # threads have a mailbox worth filling.
            try:
                self.mailboxes[receiver].append(msg)
            except KeyError:
                self.mailboxes[receiver] = deque((msg,))

    def receive(self, tid: int, cycle: int | None = None) -> Message:
        box = self.mailboxes.get(tid)
        if not box:
            # The run path never gets here: it receives only after _serve
            # saw mail in the box.
            self.thread(tid)  # raises UnknownThreadError for an unknown tid
            raise SimulationError(f"thread {tid} has no pending message")
        msg = box.popleft()
        self.trace.append(_IPC_RECEIVE, (tid, msg.kind._value_), cycle)
        return msg

    def peek_message(self, tid: int) -> Message | None:
        """Next queued message without consuming it, if any."""
        box = self.mailboxes.get(tid)
        if box is None:  # no message yet, or no such thread
            self.thread(tid)  # raises UnknownThreadError for an unknown tid
        return box[0] if box else None

    # ---- scheduling ------------------------------------------------------

    def _build_order(self) -> list[int]:
        tids = [t for t in self.threads if t != KERNEL_TID]
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
