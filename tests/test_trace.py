import pytest

from pagersim import CountingTrace, EventKind, EventsNotKeptError, Trace
from pagersim.reproduce import FIXTURES
from support import fitting_results


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


def test_render_with_attribution_and_kv_args():
    tr = Trace()
    tr.append(EventKind.MODE_SWITCH_U2K, (), 0)
    tr.append(EventKind.MAP_PAGE, (1, 0x1000), 7)
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
    tr = Trace()
    tr.append(kind, args)
    assert tr[-1].render() == f"0 {text}"
    tr.append(kind, args, 3)
    assert tr[-1].render() == f"1 {text} cycle=3"


def test_of_cycle_filters_and_preserves_order():
    tr = Trace()
    tr.append(EventKind.MODE_SWITCH_U2K, (), 0)
    tr.append(EventKind.CONTEXT_SWITCH, (1, 2))  # scheduling, unattributed
    tr.append(EventKind.MODE_SWITCH_K2U, (), 0)
    tr.append(EventKind.MODE_SWITCH_U2K, (), 1)
    assert [ev.seq for ev in tr.of_cycle(0)] == [0, 2]
    assert [ev.seq for ev in tr.of_cycle(1)] == [3]
    assert tr.of_cycle(9) == []


def test_to_text_is_line_per_event_with_trailing_newline():
    tr = Trace()
    tr.append(EventKind.SUSPEND, (4,), 2)
    tr.append(EventKind.RESUME, (4,), 2)
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
    for event in EVENTS:
        trace.append(*event)
    return trace


def test_counting_trace_keeps_the_count_and_the_counter_rows():
    counted, kept = filled(CountingTrace()), filled(Trace())
    assert len(counted) == len(kept) == 3
    assert counted.cycle_counts == kept.cycle_counts
    assert len(CountingTrace()) == 0


# Each reader of events, on a counters-only trace.
READERS = {
    "iter": lambda tr: iter(tr),
    "list": lambda tr: list(tr),
    "index": lambda tr: tr[0],
    "slice": lambda tr: tr[:],
    "of_cycle": lambda tr: tr.of_cycle(0),
    "to_text": lambda tr: tr.to_text(),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_reading_events_of_a_counting_trace_fails_loudly(read):
    for tr in (filled(CountingTrace()), CountingTrace()):
        with pytest.raises(EventsNotKeptError, match="did not keep them"):
            read(tr)
