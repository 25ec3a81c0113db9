"""Zero-level fault handling: classification, contracts, dispatch plumbing.

Every fault is classified by a pure decision procedure over the region
table, the management contracts, and the page table:

1. addresses outside the user part are a protection fault (KERNEL_RANGE);
2. a fault in an unassigned region is a protection fault (NO_PAGER);
3. a fault in a revoked region, or one whose manager refuses service, is
   a protection fault (NOT_ACCEPTED);
4. if the page turned present between the trap and this check the thread
   is sent straight back to user mode (RESUMED_PRESENT) with no pager
   message - the kernel re-reads the present flag precisely to absorb
   concurrent faults on the same page;
5. otherwise the fault is forwarded to the region's manager (DISPATCHED)
   together with the 31-bit marker stored in the entry.

Protection verdicts terminate the faulting thread; the dispatcher parks it
suspended for good since nothing ever resumes it.

The management contract is stored in the region table but its transitions
live here: consumer assignment makes a region ASSIGNED, the manager's
first map into it implies acceptance (ACCEPTED), and an unmap of the
region's last present page with the revoke flag set makes it REVOKED.
Revocation exists so a pager can walk away from a consumer it no longer
trusts; afterwards every fault in the region is a protection fault until
someone assigns the region again.

A fault has one record from the trap to the reply, its ``FaultCycle``.
Every message about the fault - the page fault, each reflection, the
reply - carries that cycle as its payload, and this module alone reads
its fields: each send writes its own trace arguments from the cycle.  The
receiver gets the cycle itself: in the send's own step if it waits in
its receive loop, else from its mailbox once it is done being busy.  A
reflection or a reply names the cycle it is about, so no step ever looks
a fault up.  The trap opens the cycle's counter row and
is its first event; a map or unmap answering the fault is handed the
region classification resolved, and resolves no address to a region.

The protocol is one table, ``STEPS``, of steps and the events each
records together (Holzmann, 1991, states a protocol as a finite-state
machine).  Privilege crossings are events of its steps, so this module
alone records them, where the protocol mandates them rather than where a
real CPU would incidentally cross for scheduling: a trap or a syscall
(reply or reflection) enters the kernel, and handing control to user code
leaves it, before any context switch.  Scripted scheduler switches emit
only ``CONTEXT_SWITCH``.  This matches cost comparisons that count a
fault's protocol-mandated crossings and treat scheduler overhead as out
of scope.  Thread states are steps of the protocol too: after
registration only this module writes one, each step with its own
``SUSPEND`` or ``RESUME``; delivery and the return to the faulter (a
reply's too) write the machine's occupant right after readying the thread
(Liedtke's direct process switch) and refuse no thread: the simulator
refuses a pager's step while it has a fault of its own.  An open fault
keeps the set of threads it was sent to, so a reflection back to one is
refused at once.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Collection, NamedTuple

from .address_space import (
    AddressSpace,
    ContractState,
    KERNEL_RANGE,
    region_id_of,
)
from .engine import (
    AccessType,
    KERNEL_TID,
    Machine,
    ThreadState,
)
from .errors import (
    BadRegionError,
    MarkerOverflowError,
    NoOutstandingFaultError,
    NotMappedError,
    NotRegionManagerError,
    RevokedRegionError,
    SimulationError,
    UnknownReceiverError,
    WrongPagerError,
)
from .mmu import MARKER_BITS, MARKER_LIMIT
from .trace import EventKind, step


class VerdictCode(Enum):
    """Stable verdict spellings used in trace lines and expectations."""

    KERNEL_RANGE = "KERNEL_RANGE"
    NO_PAGER = "NO_PAGER"
    NOT_ACCEPTED = "NOT_ACCEPTED"
    RESUMED_PRESENT = "RESUMED_PRESENT"
    DISPATCHED = "DISPATCHED"


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
# KERNEL_RANGE itself is the region lookup's result for a kernel address.
_KERNEL_RANGE_VERDICT = VerdictCode.KERNEL_RANGE
_NO_PAGER = VerdictCode.NO_PAGER
_NOT_ACCEPTED = VerdictCode.NOT_ACCEPTED
_RESUMED_PRESENT = VerdictCode.RESUMED_PRESENT
_DISPATCHED = VerdictCode.DISPATCHED
_UNASSIGNED = ContractState.UNASSIGNED
_ASSIGNED = ContractState.ASSIGNED
_ACCEPTED = ContractState.ACCEPTED
_REVOKED = ContractState.REVOKED
_BLOCKED_ON_RECEIVE = ThreadState.BLOCKED_ON_RECEIVE
_READY = ThreadState.READY
_SUSPENDED = ThreadState.SUSPENDED
# Message kinds are their trace spellings.
_PAGE_FAULT = "PAGE_FAULT"
_REFLECTION = "REFLECTION"
_REPLY = "REPLY"
# The event kinds, in their declaration order.
_U2K, _K2U, _CTX, _SEND, _RECEIVE, _SUSPEND, _RESUME, _MAP, _UNMAP, _VERDICT = EventKind

# The fault protocol, one step a row: the events each step records, in one
# ``Trace.record``.  A step that hands the CPU to a thread has a second
# row, "+switch", for when the occupant changes: the switch follows K2U.
STEPS = {
    "trap": step(_U2K),
    "verdict": step(_VERDICT),
    "park": step(_SUSPEND),
    "send": step(_SUSPEND, _SEND),
    "deliver": step(_K2U, _RECEIVE),
    "deliver+switch": step(_K2U, _CTX, _RECEIVE),
    "reflect": step(_U2K, _SEND),
    "return": step(_K2U),
    "return+switch": step(_K2U, _CTX),
    "map": step(_MAP),
    "unmap": step(_UNMAP),
}
# A send to a receiver waiting in its receive loop is delivered in the same
# step, one row: the send's joined with the delivery's.  _DELIVERY holds a
# delivery's rows, without and with the switch, by the step that sent its
# message in the same step: "" for a message that queued.
_DELIVERY = {"": (STEPS["deliver"], STEPS["deliver+switch"])}
for _sent in ("send", "reflect"):
    _DELIVERY[_sent] = tuple(step(*STEPS[_sent][0], *r[0]) for r in _DELIVERY[""])
    STEPS[_sent + "+deliver"], STEPS[_sent + "+deliver+switch"] = _DELIVERY[_sent]
# A reply returns to the faulter in its own step, one row: the reply's
# crossing in, send and wake-up joined with the return's.  _RETURN holds a
# return's rows by the step that ends in it, as _DELIVERY does: "" alone.
_RETURN = {"": (STEPS["return"], STEPS["return+switch"])}
_RETURN["reply"] = tuple(step(_U2K, _SEND, _RESUME, *r[0]) for r in _RETURN[""])
STEPS["reply"], STEPS["reply+switch"] = _RETURN["reply"]

# A tuple, not a set: docs/architecture.md, "Run-path costs".
GP_CODES = (_KERNEL_RANGE_VERDICT, _NO_PAGER, _NOT_ACCEPTED)

# The run path builds its records with ``_new(Record, (field, ...))``, all
# fields given, not through a NamedTuple's own constructor
# (docs/architecture.md, "Run-path costs").
_new = tuple.__new__


class Classification(NamedTuple):
    code: VerdictCode
    rid: int | None = None
    manager: int | None = None
    marker: int = 0


def classify(
    space: AddressSpace,
    vaddr: int,
    non_accepting: Collection[int] = (),
) -> Classification:
    """Pure fault classification; see the module docstring for the order.

    ``non_accepting`` lists manager tids that refuse service.  A manager
    that already accepted a region (it mapped into it) stays bound to it
    regardless of the flag.
    """
    rid = region_id_of(space.layout, vaddr)
    if rid is KERNEL_RANGE:
        return _new(Classification, (_KERNEL_RANGE_VERDICT, None, None, 0))
    slot = space.regions.lookup(rid)
    manager = slot.manager
    if manager is None or slot.contract is _UNASSIGNED:
        return _new(Classification, (_NO_PAGER, rid, None, 0))
    if slot.contract is _REVOKED:
        return _new(Classification, (_NOT_ACCEPTED, rid, manager, 0))
    if slot.contract is _ASSIGNED and manager in non_accepting:
        return _new(Classification, (_NOT_ACCEPTED, rid, manager, 0))
    ent = space.pages.get(vaddr // space.layout.page_size)
    if ent is None:  # never mapped: marker 0
        return _new(Classification, (_DISPATCHED, rid, manager, 0))
    code = _RESUMED_PRESENT if ent[0] else _DISPATCHED
    return _new(Classification, (code, rid, manager, ent[2]))


class KernelMemory:
    """Kernel-side map/unmap service.

    All page-table mutation funnels through here so that manager checks,
    contract transitions, and trace events are identical no matter which
    scheme (or which privilege level) asked for the change.  The cost of a
    map rides on the reply that carries it, so no mode switches are
    emitted here.
    """

    def __init__(self, machine: Machine, spaces: dict[int, AddressSpace]) -> None:
        self.machine = machine
        self.spaces = spaces

    def _region_of(self, space: AddressSpace, vaddr: int) -> int:
        rid = region_id_of(space.layout, vaddr)
        if rid is KERNEL_RANGE:
            raise BadRegionError(f"address {vaddr:#x} is in the kernel range")
        return rid

    def map_page(
        self, caller: int, asid: int, vaddr: int, frame: int, marker: int,
        cycle: int | None = None, rid: int | None = None,
    ) -> None:
        """A map answering a fault passes the region its classification
        resolved as ``rid``; the kernel reads the region's slot directly."""
        space = self.spaces[asid]
        if rid is None:
            rid = self._region_of(space, vaddr)
        slot = space.regions._slots.get(rid)
        if slot is None or slot.manager != caller:
            raise NotRegionManagerError(
                f"thread {caller} does not manage region {rid} of space {asid}"
            )
        if slot.contract is _REVOKED:
            raise RevokedRegionError(
                f"region {rid} of space {asid} was revoked; reassign before mapping"
            )
        if not 0 <= marker < MARKER_LIMIT:
            raise MarkerOverflowError(
                f"marker {marker} does not fit in {MARKER_BITS} bits"
            )
        layout = space.layout
        page = vaddr // layout.page_size
        space.pages[page] = (True, frame, marker)
        # Regions are aligned, so a page's bit is its index in the region.
        slot.present |= 1 << page % layout.pages_per_region
        if slot.contract is _ASSIGNED:
            # First map into the region doubles as acceptance.
            slot.contract = _ACCEPTED
        self.machine.trace.record(
            STEPS["map"], ((asid, page * layout.page_size, frame, marker),), cycle
        )

    def unmap_page(
        self, caller: int, asid: int, vaddr: int, revoke: bool = False,
        cycle: int | None = None, rid: int | None = None,
    ) -> None:
        """``rid`` as for ``map_page``."""
        space = self.spaces[asid]
        if rid is None:
            rid = self._region_of(space, vaddr)
        slot = space.regions._slots.get(rid)
        if slot is None or slot.manager != caller:
            raise NotRegionManagerError(
                f"thread {caller} does not manage region {rid} of space {asid}"
            )
        page = vaddr // space.layout.page_size
        ent = space.pages.get(page)
        if ent is None or not ent[0]:
            raise NotMappedError(f"page {page} has no present mapping")
        # Drop the present flag but keep the marker readable.
        space.pages[page] = (False, 0, ent[2])
        slot.present &= ~(1 << page % space.layout.pages_per_region)
        self.machine.trace.record(
            STEPS["unmap"], ((asid, page * space.layout.page_size, revoke),), cycle
        )
        if not revoke:
            return
        remaining = slot.present.bit_count()
        if remaining:
            # The flag only means something on the region's last page.
            self.machine.warnings.append(
                f"revoke ineffective: region {rid} of space {asid} still has "
                f"{remaining} present page(s)"
            )
        elif slot.contract is _ACCEPTED:
            slot.contract = _REVOKED
        else:
            self.machine.warnings.append(
                f"revoke on region {rid} of space {asid} ignored: contract is "
                f"{slot.contract.value}"
            )


@dataclass(slots=True)
class FaultCycle:
    """The one record of a fault from trap to settlement; every message
    about the fault carries it as its payload, and every pager action
    answering it is carried out against it."""

    index: int
    faulter: int
    asid: int
    vaddr: int
    access: AccessType
    verdict: VerdictCode | None = None
    rid: int | None = None
    manager: int | None = None
    # The entry's marker as classification read it; fault messages carry it.
    marker: int = 0
    closed: bool = False
    # The thread whose reply settles the fault; a reflection moves it.
    dispatched_to: int | None = None
    # Every thread the fault was sent to, while it is open.
    sent_to: set[int] | None = None


class FaultDispatcher(KernelMemory):
    """Every protocol step of a fault, from trap to settlement.

    One instance per simulation run, which is also the run's kernel
    memory service.  The scheme layer decides where a DISPATCHED fault is
    routed and when a pager runs; every event that is attributed to a
    fault cycle (crossings, protocol context switches, suspension, IPC,
    verdicts, map and unmap) is recorded here, one ``STEPS`` row per step,
    so the accounting rules hold for every scheme by construction.
    """

    def __init__(self, machine: Machine, spaces: dict[int, AddressSpace]) -> None:
        super().__init__(machine, spaces)
        self.cycles: list[FaultCycle] = []

    # ---- trap and verdicts ----------------------------------------------

    def begin_fault(self, tid: int, vaddr: int, access: AccessType) -> FaultCycle:
        """Phase one of fault handling: the trap into the kernel."""
        machine = self.machine
        decl = machine.threads.get(tid) or machine.thread(tid)
        rows = machine.trace.cycle_counts  # the trap opens the cycle's row
        index = len(rows)
        rows.append(0)
        cycle = FaultCycle(index, tid, decl.asid, vaddr, access)
        self.cycles.append(cycle)
        machine.trace.record(STEPS["trap"], ((),), index)
        return cycle

    def record_verdict(self, cycle: FaultCycle, cls: Classification) -> None:
        cycle.verdict = cls.code
        cycle.rid = cls.rid
        cycle.manager = cls.manager
        cycle.marker = cls.marker
        # _value_, not .value: docs/architecture.md, "Run-path costs".
        if cls.manager is None:
            args = (cls.code._value_, cycle.faulter, cycle.vaddr)
        else:
            args = (cls.code._value_, cycle.faulter, cycle.vaddr, cls.manager)
        self.machine.trace.record(STEPS["verdict"], (args,), cycle.index)

    def park(self, cycle: FaultCycle) -> None:
        """Suspend the faulter for good: the thread state enum has no
        terminal member, so a thread that can never continue is modeled
        as a suspension nothing will ever pair with a resume."""
        self.machine.state[cycle.faulter] = _SUSPENDED
        self.machine.trace.record(STEPS["park"], ((cycle.faulter,),), cycle.index)

    def return_to_faulter(self, cycle: FaultCycle, pager: int | None = None) -> None:
        """Leave the kernel into the faulter, hand it the CPU, close the cycle.
        With ``pager``, in the step of its reply syscall, validated first,
        which wakes the faulter and puts the pager back in its receive loop."""
        machine, faulter = self.machine, cycle.faulter
        if pager is None:
            (plain, switched), args = _RETURN[""], ((),)
        else:
            if cycle.sent_to is None or cycle.dispatched_to != pager:
                raise self._not_held(pager, cycle)
            machine.state[faulter] = _READY
            machine.state[pager] = _BLOCKED_ON_RECEIVE
            plain, switched = _RETURN["reply"]
            args = ((), (pager, KERNEL_TID, _REPLY, faulter), (faulter,), ())
        prev, machine.occupant = machine.occupant, faulter
        if prev != faulter and prev is not None:
            machine.trace.record(switched, args + ((prev, faulter),), cycle.index)
        else:
            machine.trace.record(plain, args, cycle.index)
        cycle.closed = True
        cycle.sent_to = None

    # ---- dispatch to a pager --------------------------------------------

    def suspend_and_send(
        self, cycle: FaultCycle, target: int, waiting: bool = False
    ) -> FaultCycle | None:
        """Phase two for a dispatched fault, after its verdict: suspend the
        faulter and send the fault message to ``target`` (``_transfer``)."""
        machine, faulter = self.machine, cycle.faulter
        machine.state[faulter] = _SUSPENDED
        cycle.dispatched_to = target
        cycle.sent_to = {target}
        # _value_, not .value: docs/architecture.md, "Run-path costs".
        return self._transfer(target, _PAGE_FAULT, cycle, "send", ((faulter,), (
            KERNEL_TID, target, _PAGE_FAULT, faulter, cycle.vaddr,
            cycle.access._value_, cycle.marker,
        )), waiting)

    def deliver(self, target: int) -> FaultCycle | None:
        """Hand ``target`` its next queued message (``_transfer``), if any."""
        box = self.machine.mailboxes.get(target)
        if not box:
            self.machine.thread(target)  # UnknownThreadError for an unknown tid
            return None
        kind, cycle = box.popleft()
        return self._transfer(target, kind, cycle, "", (), True)

    def _transfer(
        self, target: int, kind: str, cycle: FaultCycle, sent: str,
        args: tuple, waiting: bool,
    ) -> FaultCycle | None:
        """Finish the step ``sent``, whose events take ``args``, sending
        ``target`` the message ``kind`` about ``cycle``: queued if the
        target is busy.  One the caller knows is ``waiting`` in its receive
        loop, with nothing queued, is readied and handed the CPU, and the
        step is recorded joined with the delivery's crossing, switch and
        receive, as ``deliver`` hands over a queued message (``sent`` "").
        Returns the cycle the target received, if any.  An unknown target
        is refused before any event."""
        machine, index = self.machine, cycle.index
        if not waiting:
            machine.send(target, kind, cycle)  # refuses an unknown target
            machine.trace.record(STEPS[sent], args, index)
            return None
        state = machine.state
        if target not in state:
            raise UnknownReceiverError(f"no receiver with id {target}")
        state[target] = _READY
        plain, switched = _DELIVERY[sent]
        prev, machine.occupant = machine.occupant, target
        if prev != target and prev is not None:
            args += ((), (prev, target), (target, kind))
            machine.trace.record(switched, args, index)
        else:
            machine.trace.record(plain, args + ((), (target, kind)), index)
        return cycle

    def back_to_receive(self, pager: int) -> None:
        """Return a pager that answered a fault with nothing to its loop."""
        self.machine.state[pager] = _BLOCKED_ON_RECEIVE

    def reflect(
        self, mapper: int, cycle: FaultCycle, target: int, waiting: bool = False
    ) -> FaultCycle | None:
        """A region mapper's reflect syscall: forward the fault unchanged
        to ``target`` (``_transfer``), make ``target`` the thread whose
        reply settles it, and put the mapper back in its receive loop.
        Validated as a reply is, and refused if the fault already reached
        ``target``."""
        sent_to = cycle.sent_to
        if sent_to is None or cycle.dispatched_to != mapper:
            raise self._not_held(mapper, cycle)
        if target in sent_to:
            name = self.machine.threads
            raise SimulationError(
                f"reflection loop: pager {name[mapper].name!r} would reflect "
                f"fault {cycle.index} (thread {name[cycle.faulter].name!r} at "
                f"{cycle.vaddr:#x}) to {name[target].name!r}, which the fault "
                "already reached"
            )
        self.machine.state[mapper] = _BLOCKED_ON_RECEIVE
        cycle.dispatched_to = target
        sent_to.add(target)
        return self._transfer(target, _REFLECTION, cycle, "reflect", ((), (
            mapper, target, _REFLECTION, cycle.faulter, cycle.vaddr,
            cycle.access._value_, cycle.marker,
        )), waiting)

    def _not_held(self, pager: int, cycle: FaultCycle) -> SimulationError:
        """The refusal of a reply or reflection from ``pager`` on ``cycle``."""
        if cycle.sent_to is not None:
            return WrongPagerError(
                f"fault of thread {cycle.faulter} is handled by "
                f"{cycle.dispatched_to}, not {pager}"
            )
        return NoOutstandingFaultError(f"fault cycle {cycle.index} is not in flight")
