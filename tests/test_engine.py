import pytest

from pagersim import (
    AccessType,
    EventKind,
    FaultCycle,
    FaultDispatcher,
    KERNEL_TID,
    Machine,
    Scheme,
    Simulator,
    ThreadRole,
    ThreadState,
    parse_scenario,
)
from pagersim.errors import (
    DeadlockError,
    NotSchedulableError,
    UnknownReceiverError,
    UnknownThreadError,
)
from support import opened


def two_thread_machine():
    m = Machine()
    m.register_thread(1, 1, role=ThreadRole.APPLICANT, name="a")
    m.register_thread(2, 2, role=ThreadRole.PAGER, name="p")
    return m


def test_kernel_is_not_a_registered_thread():
    # Tid 0 only names the kernel in send lines: no control block stands
    # for it, and no mailbox, since it takes a reply at once (see
    # test_reply_to_kernel_renders_short_and_is_consumed_synchronously).
    m = Machine()
    assert m.threads == {}
    with pytest.raises(UnknownThreadError):
        m.thread(KERNEL_TID)
    for receiver in (KERNEL_TID, 9):
        with pytest.raises(UnknownReceiverError):
            m.send(receiver, "PAGE_FAULT", object())
    assert m.mailboxes == {}
    assert len(m.trace) == 0


def test_register_rejects_duplicate_and_nonpositive_tids():
    m = two_thread_machine()
    with pytest.raises(ValueError):
        m.register_thread(1, 3, role=ThreadRole.APPLICANT)
    with pytest.raises(ValueError):
        m.register_thread(0, 3, role=ThreadRole.APPLICANT)
    with pytest.raises(ValueError):
        m.register_thread(-2, 3, role=ThreadRole.APPLICANT)


def test_default_states_by_role():
    m = two_thread_machine()
    assert m.state[1] is ThreadState.READY
    assert m.state[2] is ThreadState.BLOCKED_ON_RECEIVE


def test_unknown_thread():
    with pytest.raises(UnknownThreadError):
        Machine().thread(9)


@pytest.mark.parametrize("method", ["switch_to"])
def test_every_method_taking_a_tid_refuses_an_unknown_thread(method):
    m = two_thread_machine()
    with pytest.raises(UnknownThreadError):
        getattr(m, method)(9)
    assert len(m.trace) == 0


def test_first_dispatch_emits_no_context_switch():
    m = two_thread_machine()
    m.switch_to(1)
    assert m.occupant == 1
    assert len(m.trace) == 0


def test_occupant_change_emits_context_switch():
    m = two_thread_machine()
    m.register_thread(3, 1, role=ThreadRole.APPLICANT)
    m.switch_to(1)
    m.switch_to(3)
    assert [ev.kind for ev in m.trace] == [EventKind.CONTEXT_SWITCH]
    assert m.trace[0].args == (1, 3)
    assert m.state[1] is ThreadState.READY
    m.switch_to(3)  # same occupant: nothing recorded
    assert len(m.trace) == 1


def test_switch_to_refuses_unschedulable_threads():
    m = two_thread_machine()
    m.state[1] = ThreadState.SUSPENDED
    with pytest.raises(NotSchedulableError):
        m.switch_to(1)
    with pytest.raises(NotSchedulableError):
        m.switch_to(2)  # blocked in receive


def test_suspend_resume_events_and_states():
    # The dispatcher writes thread states: a dispatched fault suspends its
    # faulter, and the pager's reply resumes it.
    m = two_thread_machine()
    opened(m.trace, 4)
    d = FaultDispatcher(m, {})
    cycle = FaultCycle(3, faulter=1, asid=1, vaddr=0x2000,
                       access=AccessType.WRITE)
    d.suspend_and_send(cycle, 2)
    assert m.state[1] is ThreadState.SUSPENDED
    assert d.deliver(2) is cycle
    d.return_to_faulter(cycle, 2)
    assert m.state[1] is ThreadState.READY
    assert m.state[2] is ThreadState.BLOCKED_ON_RECEIVE
    assert [
        (ev.kind, ev.args, ev.cycle) for ev in m.trace
        if ev.kind in (EventKind.SUSPEND, EventKind.RESUME)
    ] == [
        (EventKind.SUSPEND, (1,), 3),
        (EventKind.RESUME, (1,), 3),
    ]


def fault_send(receiver: int, vaddr: int = 0x2000) -> tuple:
    """The trace arguments of a page-fault send from the kernel."""
    return (KERNEL_TID, receiver, "PAGE_FAULT", 1, vaddr, "W", 5)


def test_send_renders_fault_payload_and_queues():
    # The dispatcher's send step queues the cycle and records the send
    # after the faulter's suspension.
    m = two_thread_machine()
    opened(m.trace, 1)
    cycle = FaultCycle(0, faulter=1, asid=1, vaddr=0x2000,
                       access=AccessType.WRITE, marker=5)
    FaultDispatcher(m, {}).suspend_and_send(cycle, 2)
    assert list(m.mailboxes[2]) == [("PAGE_FAULT", cycle)]
    ev = m.trace[1]
    assert ev.kind is EventKind.IPC_SEND
    assert ev.args == fault_send(2)
    assert ev.render() == (
        "1 IPC_SEND 0 2 PAGE_FAULT faulter=1 vaddr=0x2000 access=W marker=5 cycle=0"
    )


def test_send_queues_an_opaque_payload_untouched():
    # The machine reads no field of what it carries: any object goes
    # through the mailbox as it was sent.  The send's caller records it.
    m = two_thread_machine()
    payload = object()
    m.send(2, "PAGE_FAULT", payload)
    assert list(m.mailboxes[2]) == [("PAGE_FAULT", payload)]
    assert len(m.trace) == 0


def test_reply_to_kernel_renders_short_and_is_consumed_synchronously():
    m = two_thread_machine()
    opened(m.trace, 1)
    d = FaultDispatcher(m, {})
    cycle = FaultCycle(0, faulter=1, asid=1, vaddr=0x2000,
                       access=AccessType.WRITE)
    d.suspend_and_send(cycle, 2)
    d.deliver(2)
    d.return_to_faulter(cycle, 2)
    reply = [ev for ev in m.trace if ev.kind is EventKind.IPC_SEND][-1]
    assert reply.args == (2, 0, "REPLY", 1)
    assert reply.render() == f"{reply.seq} IPC_SEND 2 0 REPLY faulter=1 cycle=0"
    assert list(m.mailboxes) == [2] and not m.mailboxes[2]


def test_send_to_unknown_receiver():
    m = two_thread_machine()
    with pytest.raises(UnknownReceiverError):
        m.send(9, "PAGE_FAULT", object())
    assert m.mailboxes == {}
    assert len(m.trace) == 0


def test_receive_is_fifo_and_traces():
    # Two faults queued at one pager are delivered in the order they were
    # sent, and each receive is attributed to the cycle it carries.
    m = two_thread_machine()
    m.register_thread(3, 1, role=ThreadRole.APPLICANT, name="b")
    opened(m.trace, 2)
    d = FaultDispatcher(m, {})
    first = FaultCycle(0, faulter=1, asid=1, vaddr=0x2000,
                       access=AccessType.WRITE)
    second = FaultCycle(1, faulter=3, asid=1, vaddr=0x3000,
                        access=AccessType.READ)
    d.suspend_and_send(first, 2)
    d.suspend_and_send(second, 2)
    assert d.deliver(2) is first
    assert [msg for _, msg in m.mailboxes[2]] == [second]
    assert d.deliver(2) is second
    assert not m.mailboxes[2]
    assert [
        (ev.args, ev.cycle) for ev in m.trace
        if ev.kind is EventKind.IPC_RECEIVE
    ] == [((2, "PAGE_FAULT"), 0), ((2, "PAGE_FAULT"), 1)]


def scheduling_machine(order):
    m = Machine(order)
    for tid in (1, 2, 3):
        m.register_thread(tid, tid, role=ThreadRole.APPLICANT)
    return m


def test_schedule_next_follows_declared_order():
    m = scheduling_machine((2, 3, 1))
    assert m.schedule_next() == 2
    m.switch_to(2)
    assert m.schedule_next() == 3


def test_schedule_next_skips_unschedulable():
    m = scheduling_machine((1, 2, 3))
    m.state[1] = m.state[2] = ThreadState.SUSPENDED
    assert m.schedule_next() == 3


def test_schedule_next_wraps_around():
    m = scheduling_machine((1, 2, 3))
    m.switch_to(3)
    assert m.schedule_next() == 1


def test_deadlock_when_nothing_schedulable():
    m = scheduling_machine((1, 2, 3))
    for tid in (1, 2, 3):
        m.state[tid] = ThreadState.SUSPENDED
    with pytest.raises(DeadlockError):
        m.schedule_next()


def test_yield_demotes_and_switches():
    m = scheduling_machine((1, 2, 3))
    m.switch_to(1)
    nxt = m.yield_current()
    assert nxt == 2
    assert m.occupant == 2
    assert m.state[1] is ThreadState.READY
    assert m.trace[-1].kind is EventKind.CONTEXT_SWITCH


class CountingTid(int):
    """A thread id that counts the equality tests made on it."""

    compared = 0

    def __eq__(self, other):
        CountingTid.compared += 1
        return int(self) == other

    __hash__ = int.__hash__


def comparisons_of_one_yield(threads: int) -> int:
    """Equality tests made on thread ids by the first yield among
    ``threads`` threads, under an order naming every one of them."""
    tids = [CountingTid(tid) for tid in range(1, threads + 1)]
    m = Machine(tuple(tids))
    for tid in tids:
        m.register_thread(tid, tid, ThreadRole.APPLICANT)
    m.switch_to(tids[0])
    CountingTid.compared = 0
    assert m.yield_current() == 2
    return CountingTid.compared


def test_scheduling_order_is_built_in_linear_comparisons():
    small, large = comparisons_of_one_yield(200), comparisons_of_one_yield(2000)
    # Ten times the threads: at most ten times the comparisons (a
    # membership test per thread against a list made 100 times as many).
    assert large <= 10 * max(small, 1)
    assert large <= 2000


def comparisons_of_a_yield_walk(threads: int) -> int:
    """Equality tests made on thread ids by ``threads`` yields in a row
    among ``threads`` threads, one turn each."""
    tids = [CountingTid(tid) for tid in range(1, threads + 1)]
    m = Machine(tuple(tids))
    for tid in tids:
        m.register_thread(tid, tid, ThreadRole.APPLICANT)
    m.switch_to(tids[0])
    CountingTid.compared = 0
    picks = [m.yield_current() for _ in range(threads)]
    compared = CountingTid.compared
    assert picks == tids[1:] + tids[:1]
    return compared


@pytest.mark.parametrize("threads", [200, 2000])
def test_a_yield_walk_finds_the_occupant_in_constant_comparisons(threads):
    # A scan of the order for the occupant makes about threads**2 / 2.
    assert comparisons_of_a_yield_walk(threads) <= 2 * threads


def test_schedule_next_starts_after_the_first_position_of_the_occupant():
    m = Machine((3, 1, 3, 9))
    for tid in (1, 2, 3, 4):
        m.register_thread(tid, tid, ThreadRole.APPLICANT)
    m.switch_to(3)
    assert m.schedule_next() == 1


def test_scheduling_order_keeps_duplicates_and_completes_in_tid_order():
    m = Machine((3, 1, 3, 9))
    for tid in (1, 2, 3, 4):
        m.register_thread(tid, tid, ThreadRole.APPLICANT)
    assert m._build_order() == [3, 1, 3, 2, 4]


def test_seeded_round_robin_is_reproducible():
    def walk(seed):
        text = "".join(
            f"thread T{tid} tid={tid} asid={tid} role=applicant\n"
            for tid in (1, 2, 3, 4, 5)
        )
        sf = parse_scenario(
            text + f"option schedule=round-robin seed={seed}\n"
        )
        m = Simulator(sf, Scheme.MONOLITHIC).machine
        picks = []
        for _ in range(10):
            tid = m.schedule_next()
            picks.append(tid)
            m.switch_to(tid)
        return picks

    assert walk(11) == walk(11)
    assert sorted(set(walk(1))) == [1, 2, 3, 4, 5]  # cyclic: all get turns
    assert len({tuple(walk(seed)) for seed in range(10)}) > 1
