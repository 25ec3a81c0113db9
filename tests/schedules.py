"""Seeded scenarios that mix ``yield``, ``switch`` and accesses, for the
scheduling replay test.

``scenario(seed)`` writes one scenario: two to four applicants in one or
two spaces, one or two anonymous pagers, a deterministic (optionally
ordered) or a seeded round-robin schedule, and ``mode=auto`` or
``mode=manual``.  The script interleaves accesses (some held and
dispatched later, some into unassigned regions or the kernel range),
``yield`` and ``switch``.  Under ``mode=manual`` it steps each dispatched
fault's pager at a random later point.  The generator keeps track of
which threads are suspended and which pages are present, so that every
scenario runs to the end under ``l4-single`` and ``proposed``, and every
``mode=auto`` one under all four schemes.  Under ``mode=manual``,
``monolithic`` refuses ``pager-step`` and ``l4re`` stops at the first
one, because its region mappers hold the faults and a script cannot step
them; the record keeps the class of the error.

Run as a script to print the outcome of every recorded scenario under
every scheme, the format of ``tests/golden/schedule_outcomes.txt``::

    PYTHONPATH=src python tests/schedules.py > tests/golden/schedule_outcomes.txt

Rewrite that file only for a change meant to alter traces, and list the
entries that changed in ``CHANGES.md``.
"""

import hashlib
import random

from pagersim import (
    ALL_SCHEMES,
    ScenarioError,
    SimulationError,
    parse_scenario,
    simulate,
)

SCENARIOS = 100
REGIONS, PAGES, PAGE_SIZE = 8, 4, 4096


def scenario(seed: int) -> str:
    rng = random.Random(f"schedule:{seed}")
    manual = rng.random() < 0.5
    pagers = [f"P{i}" for i in range(rng.randint(1, 2))]
    apps = [f"A{i}" for i in range(rng.randint(2, 4))]
    asid = {a: rng.randint(1, 2) for a in apps}
    pager_of = {a: pagers[i % len(pagers)] for i, a in enumerate(apps)}

    lines = [f"layout regions={REGIONS} pages_per_region={PAGES} page_size={PAGE_SIZE}"]
    opts = [f"mode={'manual' if manual else 'auto'}"]
    if rng.random() < 0.5:
        opts += ["schedule=round-robin", f"seed={rng.randrange(100)}"]
    elif rng.random() < 0.5:
        names = apps + pagers
        rng.shuffle(names)
        opts.append("order=" + ",".join(names[: rng.randint(1, len(names))]))
    lines.append("option " + " ".join(opts))
    tid = 0
    for a in apps:
        tid += 1
        lines.append(
            f"thread {a} tid={tid} asid={asid[a]} role=applicant pager={pager_of[a]}"
        )
    for p in pagers:
        tid += 1
        lines.append(f"thread {p} tid={tid} asid=9 role=pager")
    for p in pagers:
        lines.append(f"pager {p} policy=anonymous marker={rng.choice(('zero', 'page'))}")
    # Region r of every space goes to pager r mod len(pagers); the last
    # region stays unassigned, so faults there are NO_PAGER.
    for space in sorted(set(asid.values())):
        for r in range(REGIONS - 1):
            lines.append(f"assign asid={space} rid={r} pager={pagers[r % len(pagers)]}")

    suspended: set[str] = set()
    held: dict[str, tuple[int, int]] = {}  # thread -> page of its held fault
    present: set[tuple[int, int]] = set()
    pending: list[tuple[str, tuple[int, int]]] = []  # dispatched faults, FIFO

    def own_page(a: str) -> int:
        rids = [r for r in range(REGIONS - 1) if pagers[r % len(pagers)] == pager_of[a]]
        return rng.choice(rids) * PAGES + rng.randrange(PAGES)

    def settle(a: str, page: tuple[int, int]) -> None:
        """The fault of ``a`` on ``page`` got a DISPATCHED verdict."""
        if not manual:
            present.add(page)
            return
        suspended.add(a)
        pending.append((a, page))

    for _ in range(rng.randint(8, 30)):
        live = [a for a in apps if a not in suspended]
        roll = rng.random()
        if pending and roll < 0.25:
            # An anonymous pager answers with a map and a reply.
            a, page = pending.pop(0)
            lines.append(f"pager-step {pager_of[a]} 2")
            suspended.discard(a)
            present.add(page)
        elif live and roll < 0.4:
            lines.append("yield")
        elif live and roll < 0.5:
            lines.append(f"switch {rng.choice(live)}")
        elif held and roll < 0.6:
            a = rng.choice(sorted(held))
            page = held.pop(a)
            lines.append(f"dispatch {a}")
            if page not in present:
                settle(a, page)
        elif live:
            a = rng.choice([x for x in live if x not in held] or live)
            if a in held:
                continue
            kind = rng.choice(("read", "write"))
            odd = rng.random()
            if odd < 0.04:
                lines.append(f"access {a} {REGIONS * PAGES * PAGE_SIZE:#x} {kind}")
                suspended.add(a)  # KERNEL_RANGE parks the thread for good
                continue
            if odd < 0.1:
                vpage = (REGIONS - 1) * PAGES + rng.randrange(PAGES)
                lines.append(f"access {a} {vpage * PAGE_SIZE:#x} {kind}")
                suspended.add(a)  # NO_PAGER parks it too
                continue
            page = (asid[a], own_page(a))
            hold = page not in present and rng.random() < 0.25
            lines.append(
                f"access {a} {page[1] * PAGE_SIZE:#x} {kind}" + (" hold" if hold else "")
            )
            if hold:
                held[a] = page
            elif page not in present:
                settle(a, page)
    return "\n".join(lines) + "\n"


def outcome(text: str, scheme) -> str:
    """SHA-256 of the trace, or the class of the error that stopped it."""
    try:
        result = simulate(scheme, parse_scenario(text))
    except (ScenarioError, SimulationError) as exc:
        return type(exc).__name__
    return hashlib.sha256(result.trace.to_text().encode()).hexdigest()


def outcome_lines():
    for seed in range(SCENARIOS):
        text = scenario(seed)
        for scheme in ALL_SCHEMES:
            yield f"{seed} {scheme.value} {outcome(text, scheme)}"


if __name__ == "__main__":
    for line in outcome_lines():
        print(line)
