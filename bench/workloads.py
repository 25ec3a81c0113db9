"""Seeded scenario generator for the pagersim benchmark.

``generate(name, seed, scale)`` returns the text of a scenario file plus a
few facts about it.  The same (name, seed, scale) always gives the same
text.  The module uses only the standard library and imports nothing from
pagersim, so tests can load it by path and feed its scenarios to the
simulator the way a user would: as text.

Every scenario uses the default 1020-region layout and ``mode=auto``, and
every fault cycle it provokes has an ``expect`` line carrying the verdict
and, for one scheme picked by the seed, the cycle's exact cost.  The costs
are the uncontended ones of the cost table (a dispatched fault) or, for a
``hold``/``dispatch`` race that ends ``RESUMED_PRESENT``, the trap and the
return plus the switch back from the thread that resolved the page.

Workloads:

* ``fault-stream`` - distinct demand-zero faults from 4 applicants in 2
  spaces over 3 anonymous pagers; every access faults and is dispatched.
* ``wide-spaces`` - one applicant per declared address space; one space
  in five faults once.
* ``hot-mix`` - mostly re-touches of mapped pages, plus fresh faults,
  ``hold``/``dispatch`` races and a ``revoke_after`` pager whose regions
  are revoked; later accesses stay out of revoked regions.  Three
  single-use threads each take one protection fault (``KERNEL_RANGE``,
  ``NO_PAGER``, ``NOT_ACCEPTED``), so every verdict code occurs.
"""

import random
from dataclasses import dataclass

REGIONS = 1020
PAGES_PER_REGION = 1024
PAGE_SIZE = 4096

SCHEMES = ("monolithic", "l4-single", "proposed", "l4re")

# (mode, ctx, ipc, invocations) of one uncontended dispatched fault.
DISPATCHED_COST = {
    "monolithic": (2, 0, 0, 0),
    "l4-single": (4, 2, 2, 1),
    "proposed": (4, 2, 2, 1),
    "l4re": (6, 3, 3, 2),
}
# A held fault whose page another thread mapped meanwhile: trap, return,
# and the switch back from that thread.  The same under every scheme.
RESUMED_COST = (2, 1, 0, 0)

# Faults a ``revoke_after`` pager answers in one region before revoking it.
REVOKE_AFTER = 4

DEFAULT_SIZE = {"fault-stream": 600, "wide-spaces": 300, "hot-mix": 3000}
WORKLOADS = tuple(DEFAULT_SIZE)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    text: str
    accesses: int  # access lines in the script
    faults: int  # fault cycles the script provokes
    spaces: int  # declared address spaces
    exact_third: bool  # l4re->proposed reduction must be exactly 1/3


class _Script:
    """Accumulates script and expect lines and counts what they provoke."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.expects: list[str] = []
        self.accesses = 0
        self.faults = 0

    def access(self, thread: str, page: int, *, kind: str | None = None,
               hold: bool = False) -> None:
        kind = kind or self.rng.choice(("read", "write"))
        line = f"access {thread} {page * PAGE_SIZE:#x} {kind}"
        self.lines.append(line + (" hold" if hold else ""))
        self.accesses += 1

    def expect(self, verdict: str, cost_of) -> None:
        scheme = self.rng.choice(SCHEMES)
        mode, ctx, ipc, inv = cost_of(scheme)
        self.expects.append(
            f"expect scheme={scheme} fault={self.faults} verdict={verdict} "
            f"mode={mode} ctx={ctx} ipc={ipc} invocations={inv}"
        )
        self.faults += 1

    def protection(self, verdict: str) -> None:
        # The faulter never runs again, so the cycle has no cost to check.
        self.expects.append(f"expect fault={self.faults} verdict={verdict}")
        self.faults += 1

    def dispatched(self) -> None:
        self.expect("DISPATCHED", DISPATCHED_COST.__getitem__)

    def resumed(self) -> None:
        self.expect("RESUMED_PRESENT", lambda _scheme: RESUMED_COST)


def _fresh_page(rng: random.Random, rid: int, used: set[int]) -> int:
    """A page of region ``rid`` not in ``used``; marks it used."""
    base = rid * PAGES_PER_REGION
    while True:
        page = base + rng.randrange(PAGES_PER_REGION)
        if page not in used:
            used.add(page)
            return page


def _fault_stream(rng: random.Random, size: int) -> tuple[list[str], _Script, int]:
    # thread -> (asid, pager); each thread faults only in its pager's
    # regions, so the single-pager scheme routes every fault correctly.
    threads = {"T1": (1, "P1"), "T2": (1, "P2"), "T3": (2, "P3"), "T4": (2, "P1")}
    decls = [
        f"thread {t} tid={i} asid={asid} role=applicant pager={p}"
        for i, (t, (asid, p)) in enumerate(threads.items(), start=1)
    ]
    decls += [f"thread P{i} tid={4 + i} asid=3 role=pager" for i in (1, 2, 3)]
    decls += [f"pager P{i} policy=anonymous marker=page" for i in (1, 2, 3)]
    regions: dict[tuple[int, str], list[int]] = {}
    rids = iter(rng.sample(range(REGIONS), 32))
    for asid, pager in sorted(set(threads.values())):
        regions[asid, pager] = [next(rids) for _ in range(8)]
        decls += [
            f"assign asid={asid} rid={rid} pager={pager}"
            for rid in regions[asid, pager]
        ]
    script = _Script(rng)
    used: dict[int, set[int]] = {1: set(), 2: set()}
    names = list(threads)
    for _ in range(size):
        t = rng.choice(names)
        asid, pager = threads[t]
        page = _fresh_page(rng, rng.choice(regions[asid, pager]), used[asid])
        script.access(t, page)
        script.dispatched()
    return decls, script, 3


def _wide_spaces(rng: random.Random, size: int) -> tuple[list[str], _Script, int]:
    decls = []
    for i in range(1, size + 1):
        decls.append(
            f"thread A{i} tid={i} asid={i} role=applicant pager=P{i % 3 + 1}"
        )
    for j in (1, 2, 3):
        decls.append(f"thread P{j} tid={size + j} asid={size + 1} role=pager")
        decls.append(f"pager P{j} policy=anonymous marker=page")
    assigned: dict[int, list[int]] = {}
    for i in range(1, size + 1):
        assigned[i] = rng.sample(range(REGIONS), 2)
        decls += [
            f"assign asid={i} rid={rid} pager=P{i % 3 + 1}" for rid in assigned[i]
        ]
    script = _Script(rng)
    for i in rng.sample(range(1, size + 1), size // 5):
        page = _fresh_page(rng, rng.choice(assigned[i]), set())
        script.access(f"A{i}", page)
        script.dispatched()
    return decls, script, size + 1


def _hot_mix(rng: random.Random, size: int) -> tuple[list[str], _Script, int]:
    # Per space: A and B served by the space's own pager, C by the
    # revoking pager R.
    decls = []
    tid = 0
    for asid in (1, 2):
        for t, pager in (("A", f"P{asid}"), ("B", f"P{asid}"), ("C", "R")):
            tid += 1
            decls.append(
                f"thread {t}{asid} tid={tid} asid={asid} role=applicant "
                f"pager={pager}"
            )
    # Single-use threads that each take one protection fault; the pager=
    # only keeps the single-pager scheme from refusing the scenario.
    doomed = {"KERNEL_RANGE": "DK", "NO_PAGER": "DP", "NOT_ACCEPTED": "DA"}
    for name in doomed.values():
        tid += 1
        decls.append(f"thread {name} tid={tid} asid=1 role=applicant pager=P1")
    for name in ("P1", "P2", "R", "N"):
        tid += 1
        decls.append(f"thread {name} tid={tid} asid=3 role=pager")
    decls.append("pager P1 policy=anonymous marker=page")
    decls.append("pager P2 policy=anonymous marker=page")
    decls.append(
        f"pager R policy=anonymous marker=page revoke_after={REVOKE_AFTER}"
    )
    decls.append("pager N policy=anonymous accepts=no")
    own: dict[int, list[int]] = {}
    live: dict[int, list[int]] = {}  # R's regions not yet revoked
    rids = iter(rng.sample(range(REGIONS), 2 * (16 + 64) + 2))
    for asid in (1, 2):
        own[asid] = [next(rids) for _ in range(16)]
        live[asid] = [next(rids) for _ in range(64)]
        decls += [f"assign asid={asid} rid={r} pager=P{asid}" for r in own[asid]]
        decls += [f"assign asid={asid} rid={r} pager=R" for r in live[asid]]
    refused, unassigned = next(rids), next(rids)
    decls.append(f"assign asid=1 rid={refused} pager=N")
    doomed_page = {
        "KERNEL_RANGE": REGIONS * PAGES_PER_REGION + rng.randrange(4096),
        "NO_PAGER": unassigned * PAGES_PER_REGION
        + rng.randrange(PAGES_PER_REGION),
        "NOT_ACCEPTED": refused * PAGES_PER_REGION
        + rng.randrange(PAGES_PER_REGION),
    }
    # Exact step counts, shuffled, so that every seed does the same work:
    # after each space's first fault come hits, races, fresh faults served
    # by the space's pager or by R, and the three protection faults.
    races, r_faults = round(0.05 * size), round(0.05 * size)
    own_faults = round(0.1 * size)
    hits = size - 2 - 2 * races - own_faults - r_faults - len(doomed)
    steps = (["hit"] * hits + ["race"] * races + ["own"] * own_faults
             + ["r"] * r_faults + list(doomed))
    rng.shuffle(steps)

    script = _Script(rng)
    used = {1: set(), 2: set()}  # pages ever touched
    present = {1: [], 2: []}  # pages mapped now, in map order
    resolved: dict[int, int] = {}  # R's answered faults per region

    def fresh_own(asid: int) -> int:
        page = _fresh_page(rng, rng.choice(own[asid]), used[asid])
        present[asid].append(page)
        return page

    for asid in (1, 2):
        script.access(f"A{asid}", fresh_own(asid))
        script.dispatched()
    for step in steps:
        if step in doomed:
            script.access(doomed[step], doomed_page[step])
            script.protection(step)
            continue
        asid = rng.choice((1, 2))
        if step == "hit":
            thread = rng.choice(("A", "B", "C")) + str(asid)
            script.access(thread, rng.choice(present[asid]))
        elif step == "race":
            holder, resolver = rng.sample(("A", "B"), 2)
            page = fresh_own(asid)
            script.access(f"{holder}{asid}", page, kind="read", hold=True)
            script.resumed()
            script.access(f"{resolver}{asid}", page, kind="write")
            script.dispatched()
            script.lines.append(f"dispatch {holder}{asid}")
        elif step == "own":
            script.access(rng.choice(("A", "B")) + str(asid), fresh_own(asid))
            script.dispatched()
        else:
            # Fill a few open regions of R at a time so that they reach
            # REVOKE_AFTER and get revoked; a revoked region's pages leave
            # the present set and are never touched again.
            rid = rng.choice(live[asid][:3])
            page = _fresh_page(rng, rid, used[asid])
            present[asid].append(page)
            script.access(f"C{asid}", page)
            script.dispatched()
            resolved[rid] = resolved.get(rid, 0) + 1
            if resolved[rid] == REVOKE_AFTER:
                live[asid].remove(rid)
                lo, hi = rid * PAGES_PER_REGION, (rid + 1) * PAGES_PER_REGION
                present[asid] = [p for p in present[asid] if not lo <= p < hi]
    return decls, script, 3


_BUILDERS = {
    "fault-stream": _fault_stream,
    "wide-spaces": _wide_spaces,
    "hot-mix": _hot_mix,
}


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Scenario text for workload ``name``; ``scale`` multiplies its size
    (faults, spaces or accesses), which is at least 5."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    size = max(5, round(DEFAULT_SIZE[name] * scale))
    rng = random.Random(f"{name}:{seed}")
    decls, script, spaces = _BUILDERS[name](rng, size)
    header = [
        f"# pagersim benchmark workload {name}, seed {seed}, size {size}",
        "option mode=auto",
    ]
    text = "\n".join(header + decls + script.lines + script.expects) + "\n"
    return Workload(
        name=name,
        seed=seed,
        text=text,
        accesses=script.accesses,
        faults=script.faults,
        spaces=spaces,
        exact_third=name != "hot-mix",
    )
