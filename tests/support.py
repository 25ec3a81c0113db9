"""Shared helpers for the test suite."""

import importlib.util
import random
import sys
from importlib import resources
from pathlib import Path

from pagersim import (
    ALL_SCHEMES,
    Scheme,
    SimResult,
    Simulator,
    check_expectations,
    parse_scenario,
    simulate,
    verify_equivalence,
)
from pagersim.errors import SimulationError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def fixture_scn(name: str) -> str:
    """Text of a shipped scenario fixture."""
    return (resources.files("pagersim") / "fixtures" / f"{name}.scn").read_text()


def golden(name: str) -> str:
    """Text of a hand-written golden trace."""
    return (GOLDEN_DIR / name).read_text()


def golden_digests() -> dict[str, str]:
    """``<fixture>.<scheme>`` -> SHA-256 of its trace text, one line each."""
    lines = (GOLDEN_DIR / "traces.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def load_bench_module(name: str):
    """A module of the benchmark, ``bench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def opened(trace, cycles: int):
    """``trace`` with its first ``cycles`` fault cycles opened, as the
    traps of that many faults open them; an attributed event needs its
    cycle open."""
    trace.cycle_counts.extend([0] * cycles)
    return trace


def fitting_results(name: str, keep_events: bool = True) -> dict[str, SimResult]:
    """Runs of one fixture under every scheme it fits."""
    sf = parse_scenario(fixture_scn(name))
    results = {}
    for scheme in Scheme:
        try:
            results[scheme.value] = simulate(scheme, sf, keep_events)
        except SimulationError:  # fig6's pager steps do not fit l4re
            continue
    return results


def python_calls(fn, *codes):
    """Run ``fn``; return its result, the Python-level function calls it
    made, and how many of those ran each of ``codes``, in order."""
    calls = 0
    matched = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if frame.f_code in matched:
                matched[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, list(matched.values())


def run_loop_calls(text: str, schemes=ALL_SCHEMES) -> tuple[int, int]:
    """The Python-level calls that one run of ``text`` under each of
    ``schemes`` makes, set-up left out, and the faults those runs take."""
    sf = parse_scenario(text)
    sims = [Simulator(sf, s) for s in schemes]
    results, calls, _ = python_calls(lambda: [sim.run() for sim in sims])
    return calls, sum(len(res.cycles) for res in results)


def fault_stream(faults: int, pages: int = 64) -> str:
    """Distinct demand-zero faults from two threads, each served by its own
    pager, over 16 regions of ``pages`` pages."""
    lines = [
        f"layout regions=16 pages_per_region={pages} page_size=4096",
        "thread T1 tid=1 asid=1 role=applicant pager=P1",
        "thread T2 tid=2 asid=1 role=applicant pager=P2",
        "thread P1 tid=3 asid=2 role=pager",
        "thread P2 tid=4 asid=2 role=pager",
        "pager P1 policy=anonymous marker=page",
        "pager P2 policy=anonymous marker=page",
    ]
    lines += [f"assign asid=1 rid={r} pager=P{r % 2 + 1}" for r in range(16)]
    for i in range(faults):
        rid, page = i % 16, i // 16
        kind = "write" if i % 3 else "read"
        lines.append(f"access T{rid % 2 + 1} {(rid * pages + page) * 4096:#x} {kind}")
    return "\n".join(lines) + "\n"


def expect_heavy(faults: int) -> str:
    """``fault_stream(faults)`` with one cost-bearing expect line per fault,
    for each scheme in turn, that holds: the benchmark's uncontended cost
    of a dispatched fault."""
    cost = load_bench_module("workloads").DISPATCHED_COST
    lines = []
    for i in range(faults):
        scheme = ALL_SCHEMES[i % len(ALL_SCHEMES)].value
        mode, ctx, ipc, invocations = cost[scheme]
        lines.append(
            f"expect scheme={scheme} fault={i} verdict=DISPATCHED "
            f"mode={mode} ctx={ctx} ipc={ipc} invocations={invocations}"
        )
    return fault_stream(faults) + "\n".join(lines) + "\n"


def check_verify_calls(text: str):
    """Run ``text`` under every scheme; return what ``check_expectations``
    and ``verify_equivalence`` return for the four runs, the Python-level
    calls the two make together, and the fault cycles of the runs."""
    sf = parse_scenario(text)
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    outputs, calls, _ = python_calls(
        lambda: (check_expectations(results, sf), verify_equivalence(results))
    )
    return outputs, calls, sum(len(res.cycles) for res in results.values())


def reread_stream(rereads: int) -> str:
    """One demand-zero fault, then ``rereads`` hits on the same page."""
    lines = [
        "thread T tid=1 asid=1 role=applicant pager=P",
        "thread P tid=2 asid=2 role=pager",
        "pager P policy=anonymous",
        "assign asid=1 rid=0 pager=P",
    ]
    lines += ["access T 0x1000 read"] * (1 + rereads)
    return "\n".join(lines) + "\n"


def calls_per_hit(scheme: Scheme, rereads: int = 200) -> float:
    """Python-level calls per translate hit under ``scheme``: the
    difference between ``rereads`` re-reads of a faulted page and none."""
    fault_only = Simulator(parse_scenario(reread_stream(0)), scheme)
    with_hits = Simulator(parse_scenario(reread_stream(rereads)), scheme)
    _, base, _ = python_calls(fault_only.run)
    result, calls, _ = python_calls(with_hits.run)
    assert len(result.cycles) == 1
    return (calls - base) / rereads


# A pager P that serves its own space and faults there while it holds an
# answer to T (mode=manual).
SELF_PAGER = (
    "option mode=manual\n"
    "thread T tid=1 asid=1 role=applicant pager=P\n"
    "thread V tid=4 asid=2 role=applicant pager=P\n"
    "thread P tid=2 asid=2 role=pager pager=P\n"
    "pager P policy=anonymous\n"
    "assign asid=1 rid=0 pager=P\n"
    "assign asid=2 rid=0 pager=P\n"
    "access T 0x1000 read\n"
)
# Scripts that follow SELF_PAGER, each named by the hand-off of the CPU to
# P, unable to run, that P's pager steps would lead to if they were taken.
SELF_PAGER_SCRIPTS = {
    # P's own fault, dispatched to itself, parks it before it carries out
    # its answer to T.
    "reply": "access P 0x1000 read\npager-step P 2\npager-step P 2\n",
    # P's held fault, dispatched after its reply to T, would be delivered
    # to P itself, suspended on that fault.
    "delivery": "access P 0x2000 read hold\npager-step P 2\ndispatch P\n",
    # P's held fault finds the page V's fault mapped meanwhile, and the
    # return would hand the CPU to P, back in its loop.
    "return": (
        "access P 0x3000 read hold\naccess V 0x3000 read\n"
        "pager-step P 2\npager-step P 2\ndispatch P\n"
    ),
}


def mutual_pagers(seed: int, steps: int = 32) -> str:
    """A seeded ``mode=manual`` script in which pagers P and Q serve each
    other's spaces and one region each of the applicants' space.  Each
    step accesses a page of a thread's own region (some held), dispatches
    a held fault or steps a pager that holds an answer, chosen among what
    the script's own model of the run lets act.  Pagers fault while they
    hold an answer, and a held fault can find its page mapped meanwhile.
    A pager with a held fault is stepped too, which ends the run there."""
    rng = random.Random(f"mutual:{seed}")
    lines = [
        "layout regions=2 pages_per_region=2 page_size=4096",
        "option mode=manual",
        "thread T tid=1 asid=1 role=applicant pager=P",
        "thread U tid=2 asid=1 role=applicant pager=Q",
        "thread V tid=3 asid=2 role=applicant pager=Q",
        "thread P tid=4 asid=2 role=pager pager=Q",
        "thread Q tid=5 asid=3 role=pager pager=P",
        "pager P policy=anonymous",
        "pager Q policy=anonymous",
        "assign asid=1 rid=0 pager=P",
        "assign asid=1 rid=1 pager=Q",
        "assign asid=2 rid=0 pager=Q",
        "assign asid=3 rid=0 pager=P",
    ]
    space = {"T": 1, "U": 1, "V": 2, "P": 2, "Q": 3}
    pages = {"T": (0, 1), "U": (2, 3), "V": (0, 1), "P": (0, 1), "Q": (0, 1)}
    pager_of = {"T": "P", "U": "Q", "V": "Q", "P": "Q", "Q": "P"}
    present: set[tuple[int, int]] = set()
    held: dict[str, tuple[int, int]] = {}  # thread -> page of its held fault
    waiting: set[str] = set()  # suspended on a dispatched fault
    # Each pager's faults, the first received: [thread, page, actions left].
    answers: dict[str, list] = {"P": [], "Q": []}

    def send(thread: str, page: tuple[int, int]) -> None:
        waiting.add(thread)
        answers[pager_of[thread]].append([thread, page, 2])

    for _ in range(steps):
        can_run = [  # a pager runs only while it holds an answer
            t for t in space
            if t not in waiting and t not in held and answers.get(t, True)
        ]
        steppable = [p for p in answers if answers[p] and p not in waiting]
        roll = rng.random()
        if steppable and roll < 0.4:
            pager = rng.choice(steppable)
            fault = answers[pager][0]
            count = rng.randint(1, fault[2])
            lines.append(f"pager-step {pager} {count}")
            for _ in range(count):
                fault[2] -= 1
                if fault[2]:  # the map
                    present.add(fault[1])
                else:  # the reply
                    waiting.discard(fault[0])
                    answers[pager].pop(0)
        elif held and roll < 0.6:
            thread = rng.choice(sorted(held))
            lines.append(f"dispatch {thread}")
            page = held.pop(thread)
            if page not in present:
                send(thread, page)
        elif can_run:
            thread = rng.choice(can_run)
            page = (space[thread], rng.choice(pages[thread]))
            hold = page not in present and rng.random() < 0.4
            lines.append(
                f"access {thread} {page[1] * 4096:#x} read" + (" hold" if hold else "")
            )
            if hold:
                held[thread] = page
            elif page not in present:
                send(thread, page)
    return "\n".join(lines) + "\n"
