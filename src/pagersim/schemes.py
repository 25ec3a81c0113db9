"""The four fault-dispatch schemes and the machinery to compare them.

Classification of a fault is identical everywhere (same region table, same
contracts, same verdict classes); the schemes differ only in where a
DISPATCHED fault travels before someone maps a frame:

* ``monolithic``  - the kernel runs the resolution policy in place.  The
  cycle is trap + return: 2 protocol crossings, 0 context switches.
* ``l4-single``   - one user pager per thread, kernel forwards the fault
  to it: 4 crossings, 2 context switches.
* ``proposed``    - the kernel's region table names a manager per region
  and the fault goes straight to the responsible pager.  Same cycle shape
  as ``l4-single``: 4 crossings, 2 context switches, but different pagers
  can serve different regions of one space.
* ``l4re``        - multi-pager service in user space: the kernel only
  knows the per-process region-mapper thread, which looks up the real
  pager in its mapping database and reflects the message; the pager's
  reply releases the faulter directly.  6 crossings, 3 context switches.

A resolved fault's cost is read off the trace from the events attributed
to its cycle, so scripted scheduling noise between faults never pollutes
the per-fault figures.  Every attributed event is emitted by the
``FaultDispatcher``; the simulator only decides where a dispatched fault
goes and when a pager runs.  One loop serves a pager its queued faults in
order, without recursion, and a fault reflected back to a thread it
already reached is an error.  The trace keeps one counter row per cycle,
counting each event kind as events are appended; one function
(``_costs``) decides which kinds count toward which cost column and one
(``_resolved``) whether a cycle's faulter got the CPU back.  Per-cycle
metrics, whole-run totals, expectation checks and the cross-scheme
ordering all read rows through those two.
"""

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from operator import attrgetter, ge, gt

from .address_space import AddressSpace
from .engine import (
    DeterministicOrder,
    Machine,
    SeededRoundRobin,
    ThreadRole,
)
from .errors import (
    IncompleteCycleError,
    SchemeMismatchError,
    SimulationError,
)
from .fault_dispatch import (
    FaultCycle,
    FaultDispatcher,
    GP_CODES,
    VerdictCode,
    classify,
)
from .mmu import translate
from .pagers import (
    Action,
    FrameAllocator,
    MapAction,
    MappingDatabase,
    PagerBehavior,
    PagerPolicy,
    ReplyAction,
    RevokeRegionAction,
    DEFAULT_FRAME_LIMIT,
)
from .scenario import (
    AccessItem,
    DispatchItem,
    PagerStepItem,
    ScenarioFile,
    SwitchItem,
    ThreadDecl,
    YieldItem,
)
from .trace import SLOT, Trace


class Scheme(Enum):
    MONOLITHIC = "monolithic"
    L4_SINGLE = "l4-single"
    REGION_DISPATCH = "proposed"
    L4RE = "l4re"


# Members the run path reads, bound once: a read through the enum class
# runs its metaclass's lookup hook (docs/architecture.md, "Run-path costs").
_MONOLITHIC = Scheme.MONOLITHIC
_L4_SINGLE = Scheme.L4_SINGLE
_REGION_DISPATCH = Scheme.REGION_DISPATCH
_L4RE = Scheme.L4RE
_RESUMED_PRESENT = VerdictCode.RESUMED_PRESENT
_DISPATCHED = VerdictCode.DISPATCHED
_REFLECTING = PagerPolicy.REFLECTING
_REGION_MAPPER = ThreadRole.REGION_MAPPER

ALL_SCHEMES = (
    Scheme.MONOLITHIC,
    Scheme.L4_SINGLE,
    Scheme.REGION_DISPATCH,
    Scheme.L4RE,
)


@dataclass(frozen=True)
class CycleMetrics:
    mode_switches: int
    context_switches: int
    ipc_messages: int
    pager_invocations: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (
            self.mode_switches,
            self.context_switches,
            self.ipc_messages,
            self.pager_invocations,
        )


# Counter-row columns (see ``trace.SLOT``) that the cost figures read.
_U2K, _K2U, _CTX, _SEND, _RECEIVE, _SUSPEND, _RESUME = map(SLOT.__getitem__, (
    "MODE_SWITCH_U2K", "MODE_SWITCH_K2U", "CONTEXT_SWITCH", "IPC_SEND",
    "IPC_RECEIVE", "SUSPEND", "RESUME",
))
_ZERO_ROW = (0,) * len(SLOT)
_COST_NAMES = tuple(f.name for f in fields(CycleMetrics))
_NO_COSTS = (None,) * len(_COST_NAMES)
_verdict = attrgetter("verdict")


def _costs(row) -> tuple[int, int, int, int]:
    """Cost columns of a counter row, in ``CycleMetrics`` order: the one
    place that maps event kinds to costs."""
    return (row[_U2K] + row[_K2U], row[_CTX], row[_SEND], row[_RECEIVE])


def _resolved(row) -> bool:
    """Whether the row's faulter got the CPU back: the kernel returned to
    user mode, and no suspension is left without its resume."""
    return row[_K2U] > 0 and (row[_RESUME] > 0 or not row[_SUSPEND])


def cycle_metrics(trace: Trace, fault_index: int) -> CycleMetrics:
    """Cost of one fault cycle, read from its counter row.

    Raises ``ValueError`` if the trace has no such fault and
    ``IncompleteCycleError`` if the faulting thread never got the CPU
    back (protection fault, or a pager that never replied).
    """
    rows = trace.cycle_counts
    # Bounds checked here: a negative index would read a row from the end.
    row = rows[fault_index] if 0 <= fault_index < len(rows) else _ZERO_ROW
    if not _resolved(row):
        if not any(row):  # no event is attributed to this cycle
            raise ValueError(f"trace has no fault cycle {fault_index}")
        raise IncompleteCycleError(
            f"fault cycle {fault_index}: thread never resumed"
        )
    return CycleMetrics(*_costs(row))


@dataclass
class SimResult:
    scheme: Scheme
    trace: Trace
    cycles: list[FaultCycle]
    spaces: dict[int, AddressSpace]
    warnings: list[str]

    def page_snapshot(self) -> dict[int, dict]:
        """``PageTable.snapshot`` of every space whose table holds an
        entry, by asid.  A space that was never mapped is left out, since
        an empty table equals an absent one; a table whose pages were all
        unmapped still holds their markers and is listed."""
        return {
            asid: sp.pages.snapshot()
            for asid, sp in self.spaces.items()
            if sp.pages.entries
        }


class Simulator:
    """One scenario run under one scheme.  Build, then call ``run()``."""

    def __init__(
        self, scenario: ScenarioFile, scheme: Scheme, seed: int | None = None
    ) -> None:
        self.sf = scenario
        self.scheme = scheme
        self.layout = scenario.layout

        self._decl = {t.name: t for t in scenario.threads}
        self.machine = Machine(self._directive(seed))
        for t in scenario.threads:
            self.machine.register_thread(t.tid, t.asid, t.role, t.name)

        self.spaces: dict[int, AddressSpace] = {}
        for asid in sorted({t.asid for t in scenario.threads}):
            self.spaces[asid] = AddressSpace(asid, self.layout)

        self.allocator = FrameAllocator(
            scenario.options.frames
            if scenario.options.frames is not None
            else DEFAULT_FRAME_LIMIT
        )
        self.dispatcher = FaultDispatcher(self.machine, self.spaces)

        self.behaviors: dict[int, PagerBehavior] = {}
        self.non_accepting: set[int] = set()
        for p in scenario.pagers:
            tid = self._decl[p.name].tid
            db = None
            if p.policy is _REFLECTING:
                # Without dbrange lines it covers nothing: every reflection
                # is then a NoDatabaseEntryError, not a missing database.
                db = MappingDatabase()
                for r in p.dbranges:
                    db.insert(r.start, r.end, self._decl[r.target].tid)
            self.behaviors[tid] = PagerBehavior(
                policy=p.policy,
                marker_rule=p.marker_rule,
                revoke_after=p.revoke_after,
                backing={
                    vaddr // self.layout.page_size: frame
                    for vaddr, frame in p.backing
                },
                db=db,
            )
            if not p.accepts:
                self.non_accepting.add(tid)

        for a in scenario.assigns:
            self.spaces[a.asid].regions.assign(a.rid, self._decl[a.pager_name].tid)

        # Action queues per pager, in delivery order; never an empty one.
        self._actions: dict[int, list[Action]] = {}
        self._held: dict[int, FaultCycle] = {}
        # Faulting thread -> the pager the kernel sends its faults to, under
        # the two schemes that route by thread rather than by region.
        self._pager_of: dict[int, int] = {}

        # One scan of the script finds the faulters, for the two schemes
        # that read them.
        faulters = self._faulters() if scheme in (_L4RE, _L4_SINGLE) else []
        self._check_scheme_fit(faulters)
        if scheme is _L4RE:
            self._wire_region_mappers(faulters)
        elif scheme is _L4_SINGLE:
            self._wire_thread_pagers(faulters)

    # ---- setup -----------------------------------------------------------

    def _directive(self, seed: int | None):
        opt = self.sf.options
        if opt.schedule == "round-robin":
            return SeededRoundRobin(seed if seed is not None else opt.seed)
        # A list, not a generator: each step of a generator is a
        # Python-level call.  An empty order is completed by the machine to
        # every thread in registration order.
        return DeterministicOrder(tuple([self._decl[n].tid for n in opt.order]))

    def _check_scheme_fit(self, faulters: list[ThreadDecl]) -> None:
        sf, scheme = self.sf, self.scheme
        if scheme is not _L4RE:
            if sf.space_dbranges:
                raise SchemeMismatchError(
                    "mapping-database ranges require the l4re scheme"
                )
            if any(p.policy is _REFLECTING for p in sf.pagers):
                raise SchemeMismatchError(
                    "reflecting pagers require the l4re scheme"
                )
        if scheme is _MONOLITHIC:
            if any(isinstance(i, PagerStepItem) for i in sf.script):
                raise SchemeMismatchError(
                    "pager-step directives are meaningless under monolithic "
                    "dispatch: no pager threads run"
                )
        if scheme is _L4RE and any(
            t.role is _REGION_MAPPER for t in faulters
        ):
            raise SchemeMismatchError(
                "a region mapper must never fault; its pages are wired"
            )

    def _faulters(self) -> list[ThreadDecl]:
        """Declarations of the threads the script makes access memory, in
        order of first access."""
        names = dict.fromkeys([
            i.thread for i in self.sf.script if isinstance(i, AccessItem)
        ])
        return [self._decl[name] for name in names]

    def _wire_region_mappers(self, faulters: list[ThreadDecl]) -> None:
        """In L4Re a space's region mapper is the pager of all its threads."""
        declared: dict[int, int] = {}
        for t in self.sf.threads:
            if t.role is _REGION_MAPPER:
                if t.asid in declared:
                    raise SchemeMismatchError(
                        f"two region mappers declared for asid {t.asid}"
                    )
                declared[t.asid] = t.tid
        mapper_of: dict[int, int] = {}
        next_tid = max([t.tid for t in self.sf.threads], default=0) + 1
        for asid in sorted({t.asid for t in faulters}):
            tid = declared.get(asid)
            if tid is None:
                tid = next_tid
                next_tid += 1
                self.machine.register_thread(
                    tid, asid, _REGION_MAPPER, f"rm{asid}"
                )
            mapper_of[asid] = tid
            self.behaviors[tid] = PagerBehavior(
                policy=_REFLECTING, db=self._space_db(asid)
            )
        for t in faulters:
            self._pager_of[t.tid] = mapper_of[t.asid]

    def _space_db(self, asid: int) -> MappingDatabase:
        """Mapping database of one space's region mapper: the explicit
        ranges if the scenario declared any, otherwise one range per
        assigned region - the same declarations the in-kernel region
        table is built from, realized in user space."""
        db = MappingDatabase()
        explicit = self.sf.space_dbranges.get(asid)
        if explicit:
            for r in explicit:
                db.insert(r.start, r.end, self._decl[r.target].tid)
            return db
        layout = self.layout
        for rid, manager in self.spaces[asid].regions.managers():
            start = layout.user_base + rid * layout.region_size
            db.insert(start, start + layout.region_size, manager)
        return db

    def _wire_thread_pagers(self, faulters: list[ThreadDecl]) -> None:
        pager_tids = [self._decl[p.name].tid for p in self.sf.pagers]
        for t in faulters:
            if t.pager_name is not None:
                self._pager_of[t.tid] = self._decl[t.pager_name].tid
            elif len(pager_tids) == 1:
                self._pager_of[t.tid] = pager_tids[0]
            else:
                raise SchemeMismatchError(
                    f"thread {t.name!r} has no unambiguous pager for "
                    "single-pager dispatch; declare pager= on the thread"
                )

    # ---- run loop --------------------------------------------------------

    def run(self) -> SimResult:
        auto = self.sf.options.mode == "auto"
        for item in self.sf.script:
            if isinstance(item, AccessItem):
                self._exec_access(item)
            elif isinstance(item, DispatchItem):
                self._exec_dispatch(item)
            elif isinstance(item, PagerStepItem):
                self._exec_pager_step(item)
            elif isinstance(item, SwitchItem):
                self.machine.switch_to(self._decl[item.thread].tid)
            elif isinstance(item, YieldItem):
                self.machine.yield_current()
            # Serve pagers until every action queue is empty; a queue
            # leaves the map as soon as it empties (see _exec_action).
            while auto and self._actions:
                self._exec_action(next(iter(self._actions)))
        return SimResult(
            scheme=self.scheme,
            trace=self.machine.trace,
            cycles=self.dispatcher.cycles,
            spaces=self.spaces,
            warnings=self.machine.warnings,
        )

    def _exec_access(self, item: AccessItem) -> None:
        tid = self._decl[item.thread].tid
        if tid in self._held:
            raise SimulationError(
                f"thread {item.thread!r} has a held fault; dispatch it first"
            )
        self.machine.switch_to(tid)
        space = self.spaces[self.machine.threads[tid].asid]
        if translate(space.pages, self.layout.page_size, item.vaddr) is not None:
            return  # plain memory access, nothing to record
        cycle = self.dispatcher.begin_fault(tid, item.vaddr, item.access)
        if item.hold:
            self._held[tid] = cycle
            return
        self._zero_level(cycle)

    def _exec_dispatch(self, item: DispatchItem) -> None:
        tid = self._decl[item.thread].tid
        cycle = self._held.pop(tid, None)
        if cycle is None:
            raise SimulationError(
                f"thread {item.thread!r} has no held fault to dispatch"
            )
        self._zero_level(cycle)

    def _exec_pager_step(self, item: PagerStepItem) -> None:
        tid = self._decl[item.pager].tid
        for _ in range(item.count):
            if tid not in self._actions:
                msg = f"pager {item.pager!r} has no pending action"
                for rm in map(self.machine.thread, self._actions):
                    if rm.role is _REGION_MAPPER:  # under l4re
                        msg += (
                            f": the fault waits at region mapper {rm.name!r} "
                            f"(tid {rm.tid}), and mode=manual cannot step a "
                            "region mapper"
                        )
                        break
                raise SimulationError(msg)
            self._exec_action(tid)

    # ---- fault path ------------------------------------------------------

    def _zero_level(self, cycle: FaultCycle) -> None:
        """Phase two of fault handling: classify, record the verdict once,
        and route by it."""
        dispatcher = self.dispatcher
        space = self.spaces[cycle.asid]
        dispatcher.record_verdict(
            cycle, classify(space, cycle.vaddr, self.non_accepting)
        )
        verdict = cycle.verdict
        if verdict in GP_CODES:
            dispatcher.park(cycle)  # a protection fault ends the faulter
        elif verdict is _RESUMED_PRESENT:
            # The page became present between trap and dispatch: straight
            # back to user mode, with no suspension and no pager message.
            dispatcher.return_to_faulter(cycle)
        elif self.scheme is _MONOLITHIC:
            self._resolve_in_kernel(cycle)
        else:
            if self.scheme is _REGION_DISPATCH:
                target = cycle.manager
            else:
                target = self._pager_of[cycle.faulter]
            dispatcher.suspend_and_send(cycle, target)
            self._serve(target)

    def _build_actions(self, handler: int, fault: FaultCycle) -> list[Action]:
        behavior = self.behaviors.get(handler)
        if behavior is None:
            raise SimulationError(
                f"thread {handler} received a fault but has no pager behavior"
            )
        return behavior.on_page_fault(
            fault, self.layout.page_size, self.allocator, self.machine.warnings
        )

    def _resolve_in_kernel(self, cycle: FaultCycle) -> None:
        """Monolithic path: the verdict still names the responsible manager
        (here an in-kernel module), but resolution happens without leaving
        kernel work: no suspension, no IPC, no occupancy change."""
        manager = cycle.manager
        for action in self._build_actions(manager, cycle):
            if isinstance(action, ReplyAction):
                self.dispatcher.return_to_faulter(cycle)
            else:
                self._change_memory(manager, action)
        if not cycle.closed:
            # The in-kernel policy produced no resolution; the thread can
            # never make progress, park it like a protection fault.
            self.dispatcher.park(cycle)

    # ---- serving pagers --------------------------------------------------

    def _serve(self, pager: int) -> None:
        """Hand ``pager`` its queued messages in order until one leaves it
        actions or its mailbox is empty.  A pager that still has actions
        queued gets nothing; ``_exec_action`` serves it again once they
        are carried out."""
        box = self.machine.mailboxes[pager]
        while box and pager not in self._actions:
            fault = self.dispatcher.deliver(pager)
            actions = self._build_actions(pager, fault)
            if actions:
                self._actions[pager] = actions
            else:  # nothing to do: straight back to the receive loop
                self.machine.block_on_receive(pager)

    def _exec_action(self, pager: int) -> None:
        queue = self._actions[pager]
        action = queue.pop(0)
        if not queue:
            # An emptied queue leaves the map at once (the auto run loop
            # stops on an empty map).
            del self._actions[pager]
        if isinstance(action, (MapAction, RevokeRegionAction)):
            self._change_memory(pager, action)
        else:
            if self.machine.occupant != pager:
                # A reply or reflection is a syscall; the pager must hold
                # the CPU.  Scripted interleavings may have moved it away -
                # switch back with an unattributed context switch
                # (scheduling, not fault protocol).
                self.machine.switch_to(pager)
            fault = action.fault
            if isinstance(action, ReplyAction):
                self.dispatcher.pager_reply(pager, fault)
            else:
                # Region-mapper reflection: forward the fault unchanged to
                # the pager the mapper's database names (the mapper's
                # actions came from its behavior, see _build_actions).
                target = self.behaviors[pager].db.lookup(fault.vaddr)
                # Unchanged, the fault would go round forever once it
                # reached a thread twice.  Its path so far has no loop:
                # walk it again from the thread the kernel sent it to.
                hop = self._pager_of[fault.faulter]
                while hop != target and hop != pager:
                    hop = self.behaviors[hop].db.lookup(fault.vaddr)
                if hop == target:
                    name = self.machine.threads
                    raise SimulationError(
                        f"reflection loop: pager {name[pager].name!r} would "
                        f"reflect fault {fault.index} (thread "
                        f"{name[fault.faulter].name!r} at {fault.vaddr:#x}) "
                        f"to {name[target].name!r}, which the fault already "
                        "reached"
                    )
                self.dispatcher.reflect(pager, fault, target)
                self._serve(target)
        if not queue:
            # Already back in its receive loop: every non-empty action list
            # ends with the reply or reflection that put the pager there,
            # or with an action that comes after it.
            self._serve(pager)

    def _change_memory(self, pager: int, action: Action) -> None:
        """Carry out a map or revoke action through the kernel's memory
        service, on behalf of ``pager``."""
        memory = self.dispatcher.memory
        fault = action.fault
        if isinstance(action, MapAction):
            memory.map_page(
                pager, fault.asid, fault.vaddr, action.frame, action.marker,
                fault.index,
            )
            return
        pages = self.spaces[fault.asid].present_pages_in_region(fault.rid)
        for i, page in enumerate(pages):
            memory.unmap_page(
                pager, fault.asid, page * self.layout.page_size,
                i == len(pages) - 1, fault.index,
            )


def simulate(
    scheme: Scheme, scenario: ScenarioFile, seed: int | None = None
) -> SimResult:
    return Simulator(scenario, scheme, seed=seed).run()


# ---- cross-scheme comparison ---------------------------------------------


@dataclass(frozen=True)
class SchemeTotals:
    scheme: str
    faults: int
    mode_switches: int
    context_switches: int
    ipc_messages: int
    pager_invocations: int


def totals_of(result: SimResult) -> SchemeTotals:
    """Protocol-attributed event totals over a whole run."""
    # The leading zero row keeps every column when no cycle has events.
    columns = [sum(c) for c in zip(_ZERO_ROW, *result.trace.cycle_counts)]
    return SchemeTotals(result.scheme.value, len(result.cycles), *_costs(columns))


@dataclass
class OverheadReport:
    """The comparison table over any per-scheme totals, in the order given.

    The reduction line compares the region-dispatch scheme against the
    l4re baseline, as an exact fraction of the baseline; it is left out
    unless both the ``proposed`` and ``l4re`` rows are given.
    """

    rows: list[SchemeTotals]
    reduction_mode: Fraction | None = field(init=False, default=None)
    reduction_ctx: Fraction | None = field(init=False, default=None)

    _COLUMNS = tuple(f.name for f in fields(SchemeTotals))

    def __post_init__(self) -> None:
        by_name = {r.scheme: r for r in self.rows}
        l4re, prop = by_name.get("l4re"), by_name.get("proposed")
        if (l4re is not None and prop is not None
                and l4re.mode_switches and l4re.context_switches):
            self.reduction_mode = Fraction(
                l4re.mode_switches - prop.mode_switches, l4re.mode_switches
            )
            self.reduction_ctx = Fraction(
                l4re.context_switches - prop.context_switches,
                l4re.context_switches,
            )

    def as_table(self) -> str:
        header = self._COLUMNS
        body = [
            [str(getattr(row, attr)) for attr in self._COLUMNS]
            for row in self.rows
        ]
        widths = [max(map(len, column)) for column in zip(header, *body)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()
        ]
        for r in body:
            cells = [r[0].ljust(widths[0])]
            cells.extend(r[i].rjust(widths[i]) for i in range(1, len(r)))
            lines.append("  ".join(cells).rstrip())
        if self.reduction_mode is not None:
            lines.append(
                "reduction l4re->proposed: "
                f"mode_switches {_pct(self.reduction_mode)} "
                f"({self.reduction_mode}), "
                f"context_switches {_pct(self.reduction_ctx)} "
                f"({self.reduction_ctx})"
            )
        return "\n".join(lines) + "\n"

    def as_kv(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                " ".join(
                    f"{attr}={getattr(row, attr)}"
                    for attr in self._COLUMNS
                )
            )
        if self.reduction_mode is not None:
            lines.append(f"reduction_mode_switches={self.reduction_mode}")
            lines.append(f"reduction_context_switches={self.reduction_ctx}")
        return "\n".join(lines) + "\n"


def _pct(f: Fraction) -> str:
    return f"{float(f) * 100:.1f}%"


def overhead_report(
    scenario: ScenarioFile, seed: int | None = None
) -> OverheadReport:
    """Run a scenario under every scheme and build the comparison table.

    Each run is totalled as soon as it finishes and then dropped, so only
    one scheme's machine is alive at a time.
    """
    return OverheadReport(
        [totals_of(simulate(s, scenario, seed=seed)) for s in ALL_SCHEMES]
    )


# ---- expectation checking and cross-scheme verification ------------------


def check_expectations(
    results: dict[str, SimResult], scenario: ScenarioFile
) -> list[str]:
    """Compare a set of runs against the scenario's expect lines.

    Returns one message per failed expectation.  An expectation with a
    scheme qualifier is only checked when that scheme was run.
    """
    failures: list[str] = []

    def fail(token: str, fault: int, what: str) -> None:
        failures.append(f"[{token}] fault {fault}: {what}")

    for e in scenario.expectations:
        targets = [e.scheme] if e.scheme else sorted(results)
        wanted = (e.mode, e.ctx, e.ipc, e.invocations)
        for token in targets:
            res = results.get(token)
            if res is None:
                continue
            if e.fault >= len(res.cycles):
                fail(token, e.fault, f"only {len(res.cycles)} fault(s) occurred")
                continue
            verdict = res.cycles[e.fault].verdict
            if verdict is not e.verdict:
                got = "none (fault held, never dispatched)"
                if verdict is not None:
                    got = verdict.value
                fail(token, e.fault, f"verdict {got}, expected {e.verdict.value}")
                continue
            if wanted == _NO_COSTS:
                continue
            row = res.trace.cycle_counts[e.fault]
            if not _resolved(row):
                fail(token, e.fault, "cycle never completed")
                continue
            costs = _costs(row)
            if costs == wanted:
                continue
            for attr, got, want in zip(_COST_NAMES, costs, wanted):
                if want is not None and got != want:
                    fail(token, e.fault, f"{attr}={got}, expected {want}")
    return failures


def verify_equivalence(results: dict[str, SimResult]) -> list[str]:
    """Cross-scheme functional and ordering checks.

    * Every scheme must leave identical page-table contents and reach the
      same verdict for every fault: the dispatch path must not change
      what faults mean, only what they cost.
    * Per resolved cycle the cost must be ordered: l4re strictly above
      proposed, proposed at or above monolithic, componentwise.
    """
    problems: list[str] = []
    if len(results) < 2:
        return problems
    tokens = sorted(results)
    base_token = tokens[0]
    base = results[base_token]
    base_snap = base.page_snapshot()
    base_verdicts = list(map(_verdict, base.cycles))
    for token in tokens[1:]:
        res = results[token]
        if res.page_snapshot() != base_snap:
            problems.append(
                f"final page tables differ between {base_token} and {token}"
            )
        if list(map(_verdict, res.cycles)) != base_verdicts:
            problems.append(
                f"fault verdicts differ between {base_token} and {token}"
            )
    ordered = ("monolithic", "proposed", "l4re")
    if all(t in results for t in ordered):
        # Dispatched cycles share a few counter-row patterns, so each
        # distinct (monolithic, proposed, l4re) triple of rows, read as
        # tuples to key a dict, is judged once.
        judged: dict[tuple, list[str]] = {}
        rows = zip(*[map(tuple, results[t].trace.cycle_counts) for t in ordered])
        for cycle, verdict, triple in zip(base.cycles, base_verdicts, rows):
            # The cost ordering is a claim about dispatched faults; cycles
            # that never reach a pager cost the same under every scheme.
            if verdict is not _DISPATCHED:
                continue
            found = judged.get(triple)
            if found is None:
                found = judged[triple] = _misordered(*triple)
            for problem in found:
                problems.append(f"cycle {cycle.index}: {problem}")
    return problems


def _misordered(r0, r1, r2) -> list[str]:
    """How the monolithic, proposed and l4re counter rows of one cycle
    break the cost ordering, if they do."""
    found: list[str] = []
    if not (_resolved(r0) and _resolved(r1) and _resolved(r2)):
        return found  # ordering is only claimed for resolved cycles
    m0, m1, m2 = _costs(r0), _costs(r1), _costs(r2)
    if not all(map(gt, m2, m1)):
        found.append(f"l4re {m2} not strictly above proposed {m1}")
    if not all(map(ge, m1, m0)):
        found.append(f"proposed {m1} below monolithic {m0}")
    return found
