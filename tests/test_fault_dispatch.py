import pytest

from pagersim import (
    AccessType,
    AddressSpace,
    ContractState,
    EventKind,
    FaultDispatcher,
    KernelMemory,
    LayoutConfig,
    Machine,
    ThreadRole,
    ThreadState,
    VerdictCode,
    classify,
)
from pagersim.fault_dispatch import STEPS, Classification
from pagersim.trace import SLOT, unpack_row
from pagersim.errors import (
    BadRegionError,
    NoOutstandingFaultError,
    NotRegionManagerError,
    RevokedRegionError,
    SimulationError,
    UnknownReceiverError,
    UnknownThreadError,
    WrongPagerError,
)
from support import opened

SMALL = LayoutConfig(region_count=8, pages_per_region=4, page_size=4096)
PAGER = 9
OTHER = 8


def space_with(contract=None, present=False, marker=0):
    sp = AddressSpace(asid=1, layout=SMALL)
    if contract is not None:
        sp.regions.assign(0, manager=PAGER)
        sp.regions.lookup(0).contract = contract  # the slot assign made
    if present or marker:
        sp.pages[1] = (True, 4, marker) if present else (False, 0, marker)
    return sp


def test_classification_truth_table():
    # The six canonical situations, in classification order.
    cases = [
        (space_with(), SMALL.user_limit, (), VerdictCode.KERNEL_RANGE),
        (space_with(), 0x1000, (), VerdictCode.NO_PAGER),
        (space_with(ContractState.REVOKED), 0x1000, (), VerdictCode.NOT_ACCEPTED),
        (space_with(ContractState.ASSIGNED), 0x1000, (PAGER,), VerdictCode.NOT_ACCEPTED),
        (space_with(ContractState.ASSIGNED), 0x1000, (), VerdictCode.DISPATCHED),
        (space_with(ContractState.ACCEPTED, present=True), 0x1000, (), VerdictCode.RESUMED_PRESENT),
    ]
    got = [classify(sp, vaddr, flags).code for sp, vaddr, flags, _ in cases]
    assert got == [want for _, _, _, want in cases]


def test_accepted_contract_overrides_refusal_flag():
    # Once a manager mapped into its region it is bound to it; flipping
    # its accept flag afterwards must not strand the region.
    sp = space_with(ContractState.ACCEPTED)
    assert classify(sp, 0x1000, (PAGER,)).code is VerdictCode.DISPATCHED


def test_classification_carries_manager_and_marker():
    sp = space_with(ContractState.ACCEPTED, marker=321)
    cls = classify(sp, 0x1000, ())
    assert (cls.code, cls.rid, cls.manager, cls.marker) == (
        VerdictCode.DISPATCHED, 0, PAGER, 321,
    )
    never_touched = classify(sp, 0x2000, ())
    assert never_touched.marker == 0


def machine_with_memory():
    m = Machine()
    m.register_thread(1, 1, role=ThreadRole.APPLICANT, name="t")
    m.register_thread(PAGER, 2, role=ThreadRole.PAGER, name="p")
    m.register_thread(OTHER, 2, role=ThreadRole.PAGER, name="q")
    spaces = {1: AddressSpace(asid=1, layout=SMALL)}
    spaces[1].regions.assign(0, manager=PAGER)
    return m, spaces, KernelMemory(m, spaces)


def test_map_requires_region_manager():
    m, spaces, mem = machine_with_memory()
    with pytest.raises(NotRegionManagerError):
        mem.map_page(OTHER, 1, 0x1000, frame=0, marker=0)
    with pytest.raises(BadRegionError):
        mem.map_page(PAGER, 1, SMALL.user_limit, frame=0, marker=0)


def test_first_map_accepts_the_contract():
    m, spaces, mem = machine_with_memory()
    opened(m.trace, 1)
    assert spaces[1].regions.lookup(0).contract is ContractState.ASSIGNED
    mem.map_page(PAGER, 1, 0x1A20, frame=3, marker=2, cycle=0)
    assert spaces[1].regions.lookup(0).contract is ContractState.ACCEPTED
    ev = m.trace[0]
    assert ev.kind is EventKind.MAP_PAGE
    # The recorded address is page aligned even if the fault was not.
    assert ev.args == (1, 0x1000, 3, 2)
    assert ev.render() == "0 MAP_PAGE asid=1 vaddr=0x1000 frame=3 marker=2 cycle=0"


def test_unmap_last_page_with_revoke_flag_revokes():
    m, spaces, mem = machine_with_memory()
    mem.map_page(PAGER, 1, 0x0, frame=0, marker=0)
    mem.map_page(PAGER, 1, 0x1000, frame=1, marker=0)
    mem.unmap_page(PAGER, 1, 0x0, revoke=True)  # not the last present page
    assert spaces[1].regions.lookup(0).contract is ContractState.ACCEPTED
    assert any("revoke ineffective" in w for w in m.warnings)
    mem.unmap_page(PAGER, 1, 0x1000, revoke=True)
    assert spaces[1].regions.lookup(0).contract is ContractState.REVOKED


def test_plain_unmap_keeps_contract():
    m, spaces, mem = machine_with_memory()
    mem.map_page(PAGER, 1, 0x0, frame=0, marker=0)
    mem.unmap_page(PAGER, 1, 0x0, revoke=False)
    assert spaces[1].regions.lookup(0).contract is ContractState.ACCEPTED
    assert m.warnings == []


def test_revoke_before_acceptance_warns():
    m, spaces, mem = machine_with_memory()
    mem.map_page(PAGER, 1, 0x0, frame=0, marker=0)
    spaces[1].regions.lookup(0).contract = ContractState.ASSIGNED
    mem.unmap_page(PAGER, 1, 0x0, revoke=True)
    assert any("ignored" in w for w in m.warnings)


def test_map_into_revoked_region_denied():
    m, spaces, mem = machine_with_memory()
    mem.map_page(PAGER, 1, 0x0, frame=0, marker=0)
    mem.unmap_page(PAGER, 1, 0x0, revoke=True)
    with pytest.raises(RevokedRegionError):
        mem.map_page(PAGER, 1, 0x2000, frame=1, marker=0)


def dispatch(disp, cycle, space, target):
    """The kernel's steps for a dispatched fault: verdict, then send."""
    disp.record_verdict(cycle, classify(space, cycle.vaddr))
    disp.suspend_and_send(cycle, target)


def dispatcher_setup():
    m = Machine()
    m.register_thread(1, 1, role=ThreadRole.APPLICANT, name="t")
    m.register_thread(PAGER, 2, role=ThreadRole.PAGER, name="p")
    m.register_thread(OTHER, 2, role=ThreadRole.PAGER, name="q")
    spaces = {1: AddressSpace(asid=1, layout=SMALL)}
    spaces[1].regions.assign(0, manager=PAGER)
    disp = FaultDispatcher(m, spaces)
    m.switch_to(1)
    return m, spaces, disp


def test_dispatch_event_order():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, cycle, spaces[1], target=PAGER)
    kinds = [ev.kind for ev in m.trace]
    assert kinds == [
        EventKind.MODE_SWITCH_U2K,
        EventKind.VERDICT,
        EventKind.SUSPEND,
        EventKind.IPC_SEND,
    ]
    assert all(ev.cycle == 0 for ev in m.trace)
    assert m.trace.of_cycle(cycle.index)[0].seq == 0  # the trap
    assert cycle.dispatched_to == PAGER
    assert not cycle.closed


def test_each_trap_opens_the_next_counter_row():
    m, spaces, disp = dispatcher_setup()
    m.register_thread(3, 1, role=ThreadRole.APPLICANT, name="u")
    for expected, tid in enumerate((1, 3, 1)):
        m.switch_to(tid)
        cycle = disp.begin_fault(tid, 0x1000 * (expected + 1), AccessType.READ)
        # The trap's cycle is the row it opened: the last, and only its
        # trap is counted there.
        assert cycle.index == expected == len(disp.cycles) - 1
        assert len(m.trace.cycle_counts) == len(disp.cycles)
        row = unpack_row(m.trace.cycle_counts[expected])
        assert sum(row) == row[SLOT["MODE_SWITCH_U2K"]] == 1


def test_reply_validation_happens_before_any_event():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, cycle, spaces[1], target=PAGER)
    m.register_thread(3, 1, role=ThreadRole.APPLICANT, name="u")
    m.switch_to(3)
    held = disp.begin_fault(3, 0x2000, AccessType.READ)  # never dispatched
    length = len(m.trace)
    with pytest.raises(WrongPagerError):
        disp.return_to_faulter(cycle, OTHER)
    with pytest.raises(NoOutstandingFaultError):
        disp.return_to_faulter(held, PAGER)
    assert len(m.trace) == length  # failed syscalls leave no trace


def test_reply_closes_cycle_and_returns_cpu():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, cycle, spaces[1], target=PAGER)
    assert disp.deliver(PAGER) is cycle
    disp.return_to_faulter(cycle, PAGER)
    assert cycle.closed
    assert m.occupant == 1
    tail = [ev.kind for ev in m.trace[-5:]]
    assert tail == [
        EventKind.MODE_SWITCH_U2K,
        EventKind.IPC_SEND,
        EventKind.RESUME,
        EventKind.MODE_SWITCH_K2U,
        EventKind.CONTEXT_SWITCH,
    ]
    with pytest.raises(NoOutstandingFaultError):
        disp.return_to_faulter(cycle, PAGER)  # one reply per fault


def test_deliver_on_an_empty_mailbox_does_nothing():
    m, spaces, disp = dispatcher_setup()
    assert disp.deliver(PAGER) is None
    assert len(m.trace) == 0
    assert m.state[PAGER] is ThreadState.BLOCKED_ON_RECEIVE
    with pytest.raises(UnknownThreadError):
        disp.deliver(99)


def test_deliver_is_attributed_to_the_cycle_of_the_message():
    m, spaces, disp = dispatcher_setup()
    m.register_thread(3, 1, role=ThreadRole.APPLICANT, name="u")
    first = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, first, spaces[1], target=PAGER)
    # The message carries the fault's cycle.
    assert list(m.mailboxes[PAGER]) == [("PAGE_FAULT", first)]
    m.switch_to(3)
    second = disp.begin_fault(3, 0x2000, AccessType.READ)
    dispatch(disp, second, spaces[1], target=OTHER)
    start = len(m.trace)

    assert disp.deliver(PAGER) is first  # the receiver gets the cycle
    delivery = m.trace[start:]
    assert [(ev.kind, ev.cycle) for ev in delivery] == [
        (EventKind.MODE_SWITCH_K2U, 0),
        (EventKind.CONTEXT_SWITCH, 0),
        (EventKind.IPC_RECEIVE, 0),
    ]
    assert m.occupant == PAGER and m.state[PAGER] is ThreadState.READY
    assert not m.mailboxes[PAGER]
    assert disp.deliver(PAGER) is None


def test_reflect_hands_the_fault_to_the_new_handler():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, cycle, spaces[1], target=OTHER)
    assert disp.deliver(OTHER) is cycle
    start = len(m.trace)

    disp.reflect(OTHER, cycle, PAGER)
    assert [ev.render() for ev in m.trace[start:]] == [
        f"{start} MODE_SWITCH_U2K cycle=0",
        f"{start + 1} IPC_SEND {OTHER} {PAGER} REFLECTION faulter=1 "
        "vaddr=0x1000 access=R marker=0 cycle=0",
    ]
    assert cycle.dispatched_to == PAGER
    assert m.state[OTHER] is ThreadState.BLOCKED_ON_RECEIVE
    assert list(m.mailboxes[PAGER]) == [("REFLECTION", cycle)]
    with pytest.raises(WrongPagerError):
        disp.return_to_faulter(cycle, OTHER)  # the mapper no longer answers
    assert disp.deliver(PAGER) is cycle
    disp.return_to_faulter(cycle, PAGER)
    assert cycle.closed


def test_reflect_validation_happens_before_any_event():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    dispatch(disp, cycle, spaces[1], target=OTHER)
    assert disp.deliver(OTHER) is cycle
    length = len(m.trace)
    with pytest.raises(WrongPagerError):
        disp.reflect(PAGER, cycle, PAGER)  # PAGER does not hold the fault
    with pytest.raises(SimulationError, match="^reflection loop: pager 'q' "):
        disp.reflect(OTHER, cycle, OTHER)  # the fault already reached OTHER
    assert len(m.trace) == length
    assert m.state[OTHER] is ThreadState.READY
    disp.reflect(OTHER, cycle, PAGER)
    assert cycle.sent_to == {OTHER, PAGER}
    assert disp.deliver(PAGER) is cycle
    disp.return_to_faulter(cycle, PAGER)
    # A closed fault keeps no record of where it went, and takes no
    # reflection.
    assert cycle.sent_to is None
    length = len(m.trace)
    with pytest.raises(NoOutstandingFaultError):
        disp.reflect(PAGER, cycle, OTHER)
    assert len(m.trace) == length


def test_general_protection_is_permanent_suspension():
    # A protection verdict parks the faulter: the verdict, then `park`.
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, SMALL.user_limit, AccessType.READ)
    disp.record_verdict(cycle, classify(spaces[1], SMALL.user_limit))
    disp.park(cycle)
    assert [ev.kind for ev in m.trace] == [
        EventKind.MODE_SWITCH_U2K, EventKind.VERDICT, EventKind.SUSPEND,
    ]
    assert m.trace[-1].kind is EventKind.SUSPEND
    assert not cycle.closed
    assert cycle.verdict is VerdictCode.KERNEL_RANGE


def test_resume_present_never_suspends():
    m, spaces, disp = dispatcher_setup()
    spaces[1].pages[1] = (True, 0, 0)
    spaces[1].regions.lookup(0).contract = ContractState.ACCEPTED
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    # A present page sends the faulter back: the verdict, then the return.
    disp.record_verdict(cycle, classify(spaces[1], 0x1000))
    disp.return_to_faulter(cycle)
    kinds = {ev.kind for ev in m.trace}
    assert EventKind.SUSPEND not in kinds
    assert EventKind.RESUME not in kinds
    assert cycle.closed
    assert cycle.verdict is VerdictCode.RESUMED_PRESENT


def test_verdict_line_rendering():
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    disp.record_verdict(
        cycle, Classification(VerdictCode.DISPATCHED, rid=0, manager=PAGER)
    )
    assert m.trace[-1].render() == (
        f"1 VERDICT DISPATCHED tid=1 vaddr=0x1000 manager={PAGER} cycle=0"
    )


def test_each_send_renders_the_fields_of_the_cycle_it_carries():
    # The dispatcher writes every send's trace arguments from the cycle;
    # the machine only records them.
    m, spaces, disp = dispatcher_setup()
    spaces[1].pages[1] = (False, 0, 77)  # unmapped, its marker kept
    cycle = disp.begin_fault(1, 0x1A20, AccessType.WRITE)
    dispatch(disp, cycle, spaces[1], target=OTHER)
    assert disp.deliver(OTHER) is cycle
    disp.reflect(OTHER, cycle, PAGER)
    assert disp.deliver(PAGER) is cycle
    disp.return_to_faulter(cycle, PAGER)
    sends = [
        ev.render().split(" ", 1)[1]
        for ev in m.trace if ev.kind is EventKind.IPC_SEND
    ]
    assert sends == [
        f"IPC_SEND 0 {OTHER} PAGE_FAULT faulter=1 vaddr=0x1a20 access=W "
        "marker=77 cycle=0",
        f"IPC_SEND {OTHER} {PAGER} REFLECTION faulter=1 vaddr=0x1a20 "
        "access=W marker=77 cycle=0",
        f"IPC_SEND {PAGER} 0 REPLY faulter=1 cycle=0",
    ]


@pytest.mark.parametrize("sent", ["send", "reflect"])
@pytest.mark.parametrize("delivery", ["deliver", "deliver+switch"])
def test_each_direct_transfer_row_joins_its_queued_pair(sent, delivery):
    # A send to a waiting receiver records the send's events and the
    # delivery's, in that order, as one step: its row is the sum of theirs.
    kinds, delta, n = STEPS[f"{sent}+{delivery}"]
    assert kinds == STEPS[sent][0] + STEPS[delivery][0]
    assert delta == STEPS[sent][1] + STEPS[delivery][1]
    assert n == STEPS[sent][2] + STEPS[delivery][2] == len(kinds)


def transfer(disp, waiting):
    """A fault of thread 1 sent to OTHER, reflected to PAGER and answered,
    each send to a waiting receiver (``waiting``) or queued and then
    delivered; returns the trace text and the cycle's counter row."""
    m = disp.machine
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    disp.record_verdict(cycle, classify(disp.spaces[1], 0x1000))
    got = disp.suspend_and_send(cycle, OTHER, waiting)
    assert got is (cycle if waiting else None)
    if not waiting:
        assert disp.deliver(OTHER) is cycle
    got = disp.reflect(OTHER, cycle, PAGER, waiting)
    assert got is (cycle if waiting else None)
    if not waiting:
        assert disp.deliver(PAGER) is cycle
    assert m.occupant == PAGER and m.state[PAGER] is ThreadState.READY
    assert m.state[OTHER] is ThreadState.BLOCKED_ON_RECEIVE
    disp.return_to_faulter(cycle, PAGER)
    assert not any(m.mailboxes.values())
    return m.trace.to_text(), m.trace.cycle_counts[cycle.index]


def test_a_direct_transfer_records_what_a_queued_one_does():
    # The same lines and the same counter row, whether each receiver
    # takes its message in the send's step or from its mailbox later.
    assert transfer(dispatcher_setup()[2], True) == transfer(
        dispatcher_setup()[2], False
    )


def send_or_reflect(disp, cycle, target, waiting, reflect):
    """Send ``cycle`` to ``target`` (reflected by OTHER if ``reflect``), and
    for a queued send, deliver it."""
    if reflect:
        disp.reflect(OTHER, cycle, target, waiting)
    else:
        disp.suspend_and_send(cycle, target, waiting)
    if not waiting:
        disp.deliver(target)


@pytest.mark.parametrize("reflect", [False, True], ids=["send", "reflect"])
@pytest.mark.parametrize("waiting", [False, True], ids=["queued", "direct"])
def test_a_refused_transfer_is_refused_where_a_queued_one_was(waiting, reflect):
    m, spaces, disp = dispatcher_setup()
    cycle = disp.begin_fault(1, 0x1000, AccessType.READ)
    disp.record_verdict(cycle, classify(spaces[1], 0x1000))
    if reflect:
        disp.suspend_and_send(cycle, OTHER, True)
    # An unknown target is refused before any event.
    length = len(m.trace)
    with pytest.raises(UnknownReceiverError, match="^no receiver with id 99$"):
        send_or_reflect(disp, cycle, 99, waiting, reflect)
    assert len(m.trace) == length
    assert not any(m.mailboxes.values())
