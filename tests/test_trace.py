import pytest

from pagersim import CountingTrace, EventKind, EventsNotKeptError, Trace, totals_of
from pagersim.reproduce import FIXTURES
from pagersim.trace import SLOT, step, unpack_row
from support import fitting_results, opened


def test_sequence_numbers_are_gap_free():
    tr = Trace()
    for _ in range(5):
        tr.append(EventKind.MODE_SWITCH_U2K)
    assert [ev.seq for ev in tr] == [0, 1, 2, 3, 4]
    assert len(tr) == 5
    assert tr[3].seq == 3


def test_render_without_attribution():
    tr = Trace()
    tr.append(EventKind.CONTEXT_SWITCH, (1, 2))
    assert tr[-1].render() == "0 CONTEXT_SWITCH 1 2"


def attributed(trace, kind, args, cycle):
    """Record one event of ``cycle``, as a one-event protocol step."""
    trace.record(step(kind), (args,), cycle)


def test_render_with_attribution_and_kv_args():
    tr = opened(Trace(), 8)
    attributed(tr, EventKind.MODE_SWITCH_U2K, (), 0)
    attributed(tr, EventKind.MAP_PAGE, (1, 0x1000), 7)
    assert tr[-1].render() == "1 MAP_PAGE asid=1 vaddr=0x1000 cycle=7"


# One event of every kind, with arguments as the simulator records them.
RENDERED = {
    EventKind.MODE_SWITCH_U2K: ((), "MODE_SWITCH_U2K"),
    EventKind.MODE_SWITCH_K2U: ((), "MODE_SWITCH_K2U"),
    EventKind.CONTEXT_SWITCH: ((1, 2), "CONTEXT_SWITCH 1 2"),
    EventKind.IPC_SEND: (
        (0, 2, "PAGE_FAULT", 1, 0x2000, "W", 5),
        "IPC_SEND 0 2 PAGE_FAULT faulter=1 vaddr=0x2000 access=W marker=5",
    ),
    EventKind.IPC_RECEIVE: ((2, "PAGE_FAULT"), "IPC_RECEIVE 2 PAGE_FAULT"),
    EventKind.SUSPEND: ((1,), "SUSPEND 1"),
    EventKind.RESUME: ((1,), "RESUME 1"),
    EventKind.MAP_PAGE: (
        (1, 0x2000, 0, 0),
        "MAP_PAGE asid=1 vaddr=0x2000 frame=0 marker=0",
    ),
    EventKind.UNMAP_PAGE: (
        (1, 0x2000, True),
        "UNMAP_PAGE asid=1 vaddr=0x2000 revoke=1",
    ),
    EventKind.VERDICT: (
        ("DISPATCHED", 1, 0x2000, 7),
        "VERDICT DISPATCHED tid=1 vaddr=0x2000 manager=7",
    ),
}


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
def test_render_of_every_kind(kind):
    args, text = RENDERED[kind]
    tr = opened(Trace(), 4)
    tr.append(kind, args)
    assert tr[-1].render() == f"0 {text}"
    attributed(tr, kind, args, 3)
    assert tr[-1].render() == f"1 {text} cycle=3"


def test_of_cycle_filters_and_preserves_order():
    tr = opened(Trace(), 2)
    attributed(tr, EventKind.MODE_SWITCH_U2K, (), 0)
    tr.append(EventKind.CONTEXT_SWITCH, (1, 2))  # scheduling, unattributed
    attributed(tr, EventKind.MODE_SWITCH_K2U, (), 0)
    attributed(tr, EventKind.MODE_SWITCH_U2K, (), 1)
    assert [ev.seq for ev in tr.of_cycle(0)] == [0, 2]
    assert [ev.seq for ev in tr.of_cycle(1)] == [3]
    assert tr.of_cycle(9) == []


def test_to_text_is_line_per_event_with_trailing_newline():
    tr = opened(Trace(), 3)
    attributed(tr, EventKind.SUSPEND, (4,), 2)
    attributed(tr, EventKind.RESUME, (4,), 2)
    assert tr.to_text() == "0 SUSPEND 4 cycle=2\n1 RESUME 4 cycle=2\n"
    assert Trace().to_text() == ""


# ---- events built on read from the columns ---------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_events_read_back_match_the_rendered_text(name):
    for token, res in fitting_results(name).items():
        trace = res.trace
        events = list(trace)
        assert [ev.render() for ev in trace] == trace.to_text().splitlines(), token
        assert [ev.seq for ev in events] == list(range(len(trace)))
        assert trace[-1] == events[-1]
        a, b = len(trace) // 3, 2 * len(trace) // 3
        assert trace[a:b] == events[a:b]
        assert trace[::-5] == events[::-5]
        assert trace.of_cycle(0) == [ev for ev in events if ev.cycle == 0]
        assert trace[len(trace):] == []
        for past_either_end in (len(trace), -len(trace) - 1):
            with pytest.raises(IndexError):
                trace[past_either_end]


# ---- counters-only traces ---------------------------------------------------


# Two attributed events and a scheduling switch, which is not attributed.
EVENTS = (
    (EventKind.MODE_SWITCH_U2K, (), 0),
    (EventKind.CONTEXT_SWITCH, (1, 2), None),
    (EventKind.MODE_SWITCH_K2U, (), 2),
)


def filled(trace: Trace) -> Trace:
    opened(trace, 3)
    for kind, args, cycle in EVENTS:
        if cycle is None:
            trace.append(kind, args)
        else:
            attributed(trace, kind, args, cycle)
    return trace


def test_counting_trace_keeps_the_count_and_the_counter_rows():
    counted, kept = filled(CountingTrace()), filled(Trace())
    assert len(counted) == len(kept) == 3
    assert counted.cycle_counts == kept.cycle_counts
    assert len(CountingTrace()) == 0


@pytest.mark.parametrize("make", [Trace, CountingTrace])
def test_an_event_of_a_cycle_never_opened_is_refused(make):
    tr = opened(make(), 2)
    tr.append(EventKind.CONTEXT_SWITCH, (1, 2))  # unattributed: no row
    with pytest.raises(IndexError):
        attributed(tr, EventKind.MODE_SWITCH_U2K, (), 2)
    with pytest.raises(IndexError):
        attributed(make(), EventKind.MODE_SWITCH_U2K, (), 0)
    # A negative index names no cycle either: it would bump the last row.
    with pytest.raises(IndexError):
        attributed(tr, EventKind.MODE_SWITCH_U2K, (), -1)
    # The refused event is neither counted nor kept.
    assert len(tr) == 1
    assert list(map(unpack_row, tr.cycle_counts)) == [(0,) * len(EventKind)] * 2


# Steps as the dispatcher records them: one of two events, and one of one
# event, which a kept trace stores by appending.
DELIVERY = step(EventKind.MODE_SWITCH_K2U, EventKind.IPC_RECEIVE)
TRAP = step(EventKind.MODE_SWITCH_U2K)
STEP_ARGS = {DELIVERY: ((), (2, "PAGE_FAULT")), TRAP: ((),)}


@pytest.mark.parametrize("recorded", [DELIVERY, TRAP], ids=["two", "one"])
@pytest.mark.parametrize("make", [Trace, CountingTrace])
def test_a_step_of_a_cycle_never_opened_is_refused(make, recorded):
    tr = opened(make(), 2)
    tr.record(recorded, STEP_ARGS[recorded], 1)
    before = (len(tr), list(tr.cycle_counts))
    for cycle in (2, -1):  # never opened; a row from the end
        with pytest.raises(IndexError):
            tr.record(recorded, STEP_ARGS[recorded], cycle)
    with pytest.raises(IndexError):
        make().record(recorded, STEP_ARGS[recorded], 0)
    # No event kept, none counted, no row changed.
    assert (len(tr), tr.cycle_counts) == before
    if make is Trace:
        events = len(recorded[0])
        assert (len(tr.kinds), len(tr.args), len(tr.cycle_of)) == (events,) * 3


@pytest.mark.parametrize("make", [Trace, CountingTrace])
def test_a_step_counts_each_of_its_events(make):
    tr = opened(make(), 2)
    tr.record(DELIVERY, ((), (2, "PAGE_FAULT")), 1)
    tr.record(TRAP, ((),), 0)
    tr.record(DELIVERY, ((), (2, "REFLECTION")), 1)
    assert len(tr) == 5
    row = unpack_row(tr.cycle_counts[1])
    assert row[SLOT["MODE_SWITCH_K2U"]] == row[SLOT["IPC_RECEIVE"]] == 2
    assert sum(row) == 4
    assert unpack_row(tr.cycle_counts[0]) == unpack_row(TRAP[1])
    if make is Trace:
        assert tr.to_text() == (
            "0 MODE_SWITCH_K2U cycle=1\n1 IPC_RECEIVE 2 PAGE_FAULT cycle=1\n"
            "2 MODE_SWITCH_U2K cycle=0\n"
            "3 MODE_SWITCH_K2U cycle=1\n4 IPC_RECEIVE 2 REFLECTION cycle=1\n"
        )


def kept_counts(trace: Trace, cycle: int) -> tuple[int, ...]:
    """Per-kind counts of the events kept for ``cycle``, recounted from the
    kind and cycle columns, in ``SLOT`` order."""
    counts = [0] * len(SLOT)
    for kind, c in zip(trace.kinds, trace.cycle_of):
        if c == cycle:
            counts[SLOT[kind._value_]] += 1
    return tuple(counts)


@pytest.mark.parametrize("name", FIXTURES)  # workload50 among them
def test_each_unpacked_row_counts_its_cycles_kept_events(name):
    for token, res in fitting_results(name).items():
        rows = list(map(unpack_row, res.trace.cycle_counts))
        assert len(rows) == len(res.cycles) > 0, token
        for cycle, row in enumerate(rows):
            assert row == kept_counts(res.trace, cycle), (token, cycle)
        # The totals unpack one sum of packed rows: no field carried.
        columns = tuple(map(sum, zip(*rows)))
        assert unpack_row(sum(res.trace.cycle_counts)) == columns, token
        totals = totals_of(res)
        assert (
            totals.mode_switches, totals.context_switches,
            totals.ipc_messages, totals.pager_invocations,
        ) == (
            columns[SLOT["MODE_SWITCH_U2K"]] + columns[SLOT["MODE_SWITCH_K2U"]],
            columns[SLOT["CONTEXT_SWITCH"]], columns[SLOT["IPC_SEND"]],
            columns[SLOT["IPC_RECEIVE"]],
        ), token


# Each reader of events, on a counters-only trace.
READERS = {
    "iter": lambda tr: iter(tr),
    "list": lambda tr: list(tr),
    "index": lambda tr: tr[0],
    "slice": lambda tr: tr[:],
    "of_cycle": lambda tr: tr.of_cycle(0),
    "to_text": lambda tr: tr.to_text(),
    # The columns, which a counters-only trace does not have.
    "kinds": lambda tr: tr.kinds,
    "args": lambda tr: tr.args,
    "cycle_of": lambda tr: tr.cycle_of,
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_reading_events_of_a_counting_trace_fails_loudly(read):
    for tr in (filled(CountingTrace()), CountingTrace()):
        with pytest.raises(EventsNotKeptError, match="did not keep them"):
            read(tr)
