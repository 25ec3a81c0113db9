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
its fields: each send writes its own trace arguments from the cycle, and
the machine only records them and queues the cycle.  Delivery hands the
receiver the cycle itself, and a reflection or a reply names the cycle it
is about, so no step ever looks a fault up.  The trap is the first event
attributed to the cycle.

Privilege crossings are steps of the protocol, so this module alone
records them, where the protocol mandates them rather than where a real
CPU would incidentally cross for scheduling:

* a fault trap emits ``MODE_SWITCH_U2K``;
* a syscall entry (reply or reflection send) emits ``MODE_SWITCH_U2K``;
* delivering control to user code (message delivery, fault return, resume
  after a reply) emits ``MODE_SWITCH_K2U``.

Scripted scheduler switches emit only ``CONTEXT_SWITCH``.  This matches
cost comparisons that count a fault's protocol-mandated crossings and
treat scheduler overhead as out of scope.  A reply or a reflection also
puts its sender back in its receive loop.
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
    WrongPagerError,
)
from .mmu import MARKER_BITS, MARKER_LIMIT
from .trace import EventKind


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
# Message kinds are their trace spellings.
_PAGE_FAULT = "PAGE_FAULT"
_REFLECTION = "REFLECTION"
_REPLY = "REPLY"
_MODE_SWITCH_U2K = EventKind.MODE_SWITCH_U2K
_MODE_SWITCH_K2U = EventKind.MODE_SWITCH_K2U
_VERDICT = EventKind.VERDICT
_MAP_PAGE = EventKind.MAP_PAGE
_UNMAP_PAGE = EventKind.UNMAP_PAGE

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

    def _region_slot(self, space: AddressSpace, vaddr: int, caller: int):
        rid = region_id_of(space.layout, vaddr)
        if rid is KERNEL_RANGE:
            raise BadRegionError(f"address {vaddr:#x} is in the kernel range")
        slot = space.regions.lookup(rid)
        if slot.manager != caller:
            raise NotRegionManagerError(
                f"thread {caller} does not manage region {rid} of space {space.asid}"
            )
        return rid, slot

    def map_page(
        self,
        caller: int,
        asid: int,
        vaddr: int,
        frame: int,
        marker: int,
        cycle: int | None = None,
    ) -> None:
        space = self.spaces[asid]
        rid, slot = self._region_slot(space, vaddr, caller)
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
        self.machine.trace.append(
            _MAP_PAGE, (asid, page * layout.page_size, frame, marker), cycle
        )

    def unmap_page(
        self,
        caller: int,
        asid: int,
        vaddr: int,
        revoke: bool = False,
        cycle: int | None = None,
    ) -> None:
        space = self.spaces[asid]
        rid, slot = self._region_slot(space, vaddr, caller)
        page = vaddr // space.layout.page_size
        ent = space.pages.get(page)
        if ent is None or not ent[0]:
            raise NotMappedError(f"page {page} has no present mapping")
        # Drop the present flag but keep the marker readable.
        space.pages[page] = (False, 0, ent[2])
        slot.present &= ~(1 << page % space.layout.pages_per_region)
        self.machine.trace.append(
            _UNMAP_PAGE, (asid, page * space.layout.page_size, revoke), cycle
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


class FaultDispatcher:
    """Every protocol step of a fault, from trap to settlement.

    One instance per simulation run.  The scheme layer decides where a
    DISPATCHED fault is routed and when a pager runs; every event that is
    attributed to a fault cycle (crossings, protocol context switches,
    suspension, IPC, verdicts, map and unmap) is emitted here, so the
    accounting rules hold for every scheme by construction.
    """

    def __init__(self, machine: Machine, spaces: dict[int, AddressSpace]) -> None:
        self.machine = machine
        self.memory = KernelMemory(machine, spaces)
        self.cycles: list[FaultCycle] = []

    # ---- trap and verdicts ----------------------------------------------

    def begin_fault(self, tid: int, vaddr: int, access: AccessType) -> FaultCycle:
        """Phase one of fault handling: the trap into the kernel."""
        machine = self.machine
        tcb = machine.threads.get(tid) or machine.thread(tid)
        cycle = FaultCycle(len(self.cycles), tid, tcb.asid, vaddr, access)
        self.cycles.append(cycle)
        machine.trace.append(_MODE_SWITCH_U2K, (), cycle.index)
        return cycle

    def record_verdict(self, cycle: FaultCycle, cls: Classification) -> None:
        cycle.verdict = cls.code
        cycle.rid = cls.rid
        cycle.manager = cls.manager
        cycle.marker = cls.marker
        # _value_, not .value: docs/architecture.md, "Run-path costs".
        args: tuple = (cls.code._value_, cycle.faulter, cycle.vaddr)
        if cls.manager is not None:
            args += (cls.manager,)
        self.machine.trace.append(_VERDICT, args, cycle.index)

    def park(self, cycle: FaultCycle) -> None:
        """Suspend the faulter for good: the thread state enum has no
        terminal member, so a thread that can never continue is modeled
        as a suspension nothing will ever pair with a resume."""
        self.machine.suspend(cycle.faulter, cycle.index)

    def return_to_faulter(self, cycle: FaultCycle) -> None:
        """Leave the kernel into the faulter and close the cycle."""
        self.machine.trace.append(_MODE_SWITCH_K2U, (), cycle.index)
        self.machine.switch_to(cycle.faulter, cycle.index)
        cycle.closed = True

    # ---- dispatch to a pager --------------------------------------------

    def suspend_and_send(self, cycle: FaultCycle, target: int) -> None:
        """Phase two for a dispatched fault, after its verdict: suspend
        the faulter and queue the fault message at ``target``.  When the
        message is delivered is the caller's business (see ``deliver``)."""
        self.machine.suspend(cycle.faulter, cycle.index)
        # _value_, not .value: docs/architecture.md, "Run-path costs".
        self.machine.send((
            KERNEL_TID, target, _PAGE_FAULT, cycle.faulter, cycle.vaddr,
            cycle.access._value_, cycle.marker,
        ), cycle, cycle.index)
        cycle.dispatched_to = target

    def deliver(self, target: int) -> FaultCycle | None:
        """Hand the next message queued at ``target`` to it: the
        kernel-to-user crossing, the switch to the receiver, and the
        receive, all attributed to the cycle the message carries.  Returns
        that cycle, or ``None`` if the mailbox is empty."""
        machine = self.machine
        box = machine.mailboxes.get(target)
        if not box:
            machine.thread(target)  # UnknownThreadError for an unknown tid
            return None
        index = box[0][1].index
        # A thread with a mailbox is registered.
        tcb = machine.threads[target]
        if tcb.state is _BLOCKED_ON_RECEIVE:
            tcb.state = _READY
        machine.trace.append(_MODE_SWITCH_K2U, (), index)
        machine.switch_to(target, index)
        return machine.receive(target, index)

    def reflect(self, mapper: int, cycle: FaultCycle, target: int) -> None:
        """A region mapper's reflect syscall: forward the fault unchanged
        to ``target``, make ``target`` the thread whose reply settles it,
        and put the mapper back in its receive loop."""
        self.machine.trace.append(_MODE_SWITCH_U2K, (), cycle.index)
        cycle.dispatched_to = target
        self.machine.send((
            mapper, target, _REFLECTION, cycle.faulter, cycle.vaddr,
            cycle.access._value_, cycle.marker,
        ), cycle, cycle.index)
        self.machine.block_on_receive(mapper)

    def pager_reply(self, pager: int, cycle: FaultCycle) -> None:
        """A pager's reply syscall: validate it, wake the faulter, and hand
        the CPU back.  Emits U2K (the syscall), the reply send, the
        resume, K2U, and the context switch back to the faulter."""
        if cycle.dispatched_to is None or cycle.closed:
            raise NoOutstandingFaultError(
                f"fault cycle {cycle.index} is not in flight"
            )
        if cycle.dispatched_to != pager:
            raise WrongPagerError(
                f"fault of thread {cycle.faulter} is handled by "
                f"{cycle.dispatched_to}, not {pager}"
            )
        self.machine.trace.append(_MODE_SWITCH_U2K, (), cycle.index)
        self.machine.send(
            (pager, KERNEL_TID, _REPLY, cycle.faulter), cycle, cycle.index
        )
        self.machine.resume(cycle.faulter, cycle.index)
        self.machine.block_on_receive(pager)
        self.return_to_faulter(cycle)
