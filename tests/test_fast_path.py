"""Guards on the fault path's cost, counted in operations and bytes, not
seconds.

Wall-clock bounds are flaky on a shared host; the number of Python-level
function calls a run makes, and the bytes it keeps allocated, are exact
and repeatable, so they are what these tests bound.

An attribute lookup through a metaclass hook costs time but is not a
Python-level call.  On Python 3.11 ``EnumType`` defines ``__getattr__``, so
every read of a member through its class, such as ``ThreadState.READY``,
takes the interpreter's slow hooked lookup (about 170 ns against 7 ns for
a module global) without calling any Python function.
``CALLS_PER_FAULT_BUDGET`` and the other budgets cannot see that cost;
``test_run_path_reads_no_enum_member_through_its_class`` covers it by
reading the source of every function a run executes.

How a call is made costs time too, and the counts cannot see that either.
On Python 3.11 the interpreter specializes a call only to a Python
function called positionally with a fixed arity.  A call that passes a
keyword, ``*`` or ``**`` argument, or one to a function taking ``*args``,
goes the generic way, which about doubles the cost of the call itself
(docs/architecture.md, "Run-path costs").
``test_per_fault_calls_stay_on_the_fast_call_path`` reads the source of
every function that a run calls at least once per fault and rejects such
calls there, and any NamedTuple constructor (a ``<lambda>`` eval'd from
``<string>``) that a run calls at all.  It also reads every call site that
calls a Python function at least once per fault, since the shape that
counts is the caller's.  ``test_per_space_calls_stay_on_the_fast_call_path``
does the same for ``Simulator(...)``, per declared address space and per
faulting one: setting up a space is part of the design under test, and a
keyword call into a dataclass ``__init__`` costs about twice a positional
one (docs/architecture.md, "Set-up costs").
``test_per_line_parse_calls_stay_on_the_fast_call_path`` does the same for
``parse_scenario``, per script line.  Parse builds each record with
``tuple.__new__``, a C call, so the per-fault test's ban on NamedTuple
constructors covers parse too.
"""

import ast
import contextlib
import gc
import importlib
import inspect
import io
import pkgutil
import re
import sys
import tracemalloc
from collections import Counter
from enum import Enum

import pytest

import pagersim
from pagersim import cli, scenario
from pagersim import (
    ALL_SCHEMES,
    AddressSpace,
    CycleMetrics,
    EventKind,
    RegionTable,
    Scheme,
    Simulator,
    VerdictCode,
    check_expectations,
    cycle_metrics,
    parse_scenario,
    simulate,
    verify_equivalence,
)
from pagersim.engine import AccessType, Machine, ThreadRole
from pagersim.fault_dispatch import Classification, FaultDispatcher
from pagersim.pagers import REVOKE, MapAction
from pagersim.scenario import AccessItem, AssignDecl, Expectation, ThreadDecl
from pagersim.trace import RENDER_BLOCK, Trace, TraceEvent
from support import fixture_scn

# On Python 3.10 the attributes of an instance without slots live in a
# separate __dict__, which the collector tracks once it holds a tracked
# object; 3.11 keeps them in the instance.  The GC budgets below that count
# such instances have a 3.10 figure of their own.
PY310 = sys.version_info < (3, 11)

# Python-level calls per fault of one run of workload50 under every scheme:
# 10% above the 47.6 measured when the budget was set (Python 3.11),
# against 49.1 while delivery peeked at a mailbox through a machine method
# and the kernel looked a region's slot up again to write its contract,
# 51.1 while a map went through a page-table method that built a mutable
# entry record, and 55.1 while the machine wrote the syscall and return
# crossings and a pager went back to its receive loop twice per reply or
# reflection.
CALLS_PER_FAULT_BUDGET = 52.4

# Python-level calls per translate hit, under every scheme: 10% above the
# 3.0 measured when the budget was set (Python 3.11): the access, the
# switch to the thread and the translation.
CALLS_PER_HIT_BUDGET = 3.3

# Python-level calls per event of Trace.to_text: one call per block of
# events, not one per event (Python 3.11).
RENDER_CALLS_PER_EVENT_BUDGET = 0.01

# Python-level calls per fault cycle of check_expectations plus
# verify_equivalence over the four runs of one scenario: 10% above the
# 0.195 measured on workload50 when the budget was set (0.0097 on
# FAULT_STREAM; Python 3.11), against 1.745 (1.51) while the cost
# ordering judged every dispatched cycle's rows afresh and every empty
# page table was snapshotted.
CHECK_CALLS_PER_CYCLE_BUDGET = 0.215

# Bytes one run keeps allocated per trace event on FAULT_STREAM: 10% above
# the 104 (l4re) and 115 (proposed) measured when the bounds were set
# (Python 3.11, 64-bit).
BYTES_PER_EVENT_BUDGET = {Scheme.L4RE: 115, Scheme.REGION_DISPATCH: 127}

# Bytes a counters-only run (keep_events=False) keeps per fault of
# fault_stream(n, 512), at 600 and at 6,000 faults, under monolithic and
# l4re: 10% above the 498 measured at 6,000 faults under either scheme when
# the budget was set (456 and 461 at 600; Python 3.11, 64-bit), against 853
# (monolithic) and 1,877 (l4re) for a run that keeps its events.
COUNTED_BYTES_PER_FAULT_BUDGET = 548

# GC-tracked objects a counters-only run (keep_events=False) of
# fault_stream(n, 512) keeps per closed fault, at 600 and at 6,000 faults,
# under monolithic and l4re: 10% above the 2.0 measured when the bound was
# set, against 3.0 while each page-table entry was a mutable record rather
# than a tuple of ints, which the collector untracks (Python 3.11).
TRACKED_OBJECTS_PER_FAULT_BUDGET = 2.2

# GC-tracked objects one l4re run of FAULT_STREAM keeps per trace event:
# 0.158 when the bound was set, against 1.16 for a store of one TraceEvent
# per event, so events must stay untracked column entries (Python 3.11).
TRACKED_OBJECTS_PER_EVENT_BUDGET = 0.2

# Python-level calls per declared address space of four Simulator(...)
# builds, one per scheme, of wide_spaces() at 100 and at 1,000 spaces: 10%
# above the 16.35 measured at 100 spaces when the budget was set (15.1 at
# 1,000; Python 3.10.13 and 3.11.7), against 38.5 while every declared
# space was built and given its regions, and 60.6 while assign also built
# a throwaway RegionSlot per region and set-up stepped a generator per
# thread.  Each build registers every thread but builds a space only for a
# thread that accesses memory, one space in five here.  The 100-space
# figure binds because the builds' fixed cost, 135 calls, is spread over
# fewer spaces; net of it both sizes cost 15.0 calls per space.
SETUP_CALLS_PER_SPACE_BUDGET = 18.0

# GC-tracked objects one Simulator(...) keeps per declared address space of
# wide_spaces(), at 100 and at 1,000 spaces, each build counted alone.  A
# build makes an AddressSpace, its page-table dict and its RegionTable
# only for a space whose thread accesses memory, one in five here, and
# l4re adds a region mapper and a mapping database for each such space.
# The 100-space count binds, since a build's fixed objects are spread over
# fewer spaces: 2.24 (3.64 under l4re) on Python 3.11.7, 3.12.1 and
# 3.13.0, and 2.02 (3.42) at 1,000.  On Python 3.10.13 each AddressSpace
# and RegionTable adds its tracked __dict__: 2.72 (4.72) at 100 spaces,
# which binds, and 2.43 (4.43) at 1,000.  Each bound is 10% above its
# binding figure, against 6.03 (7.43) kept per space by a lone 1,000-space
# build on 3.11 while every declared space was built, 7.03 (8.43) while
# each page table was an object wrapping its dict, and 8.03 (9.63) while
# every thread got its mailbox deque at registration.
TRACKED_OBJECTS_PER_SPACE_BUDGET = {
    Scheme.MONOLITHIC: 2.99 if PY310 else 2.46,
    Scheme.L4_SINGLE: 2.99 if PY310 else 2.46,
    Scheme.REGION_DISPATCH: 2.99 if PY310 else 2.46,
    Scheme.L4RE: 5.19 if PY310 else 4.0,
}

# Python-level calls per directive line (not blank, not only a comment) of
# parse_scenario(workload50): 10% above the 1.59 measured when the budget
# was set (Python 3.10.13 and 3.11.7; 1.36 on 3.12.1 and 3.13.0), against
# 2.54 while each record was built by calling its class's generated
# __init__. Validation makes no call per script item.
PARSE_CALLS_PER_LINE_BUDGET = 1.75

# Python-level calls per script line of parse_scenario plus four
# Simulator(...) builds, one per scheme, of script_of() at 500 and at
# 2,000 lines: 10% above the 1.0 measured when the budget was set (reading
# the line; Python 3.10 to 3.13), against 2.0 while building its record
# called a generated __init__. Neither validation nor set-up calls a
# function or resumes a generator per script item.
SCRIPT_CALLS_PER_LINE_BUDGET = 1.1

# GC-tracked objects a parsed FAULT_STREAM keeps per record: 1.01 (1.016 on
# Python 3.10.13) when the bound was set, one tuple per record plus the
# file's few containers, against 2.0 for records whose instance __dict__
# was filled by hand (Python 3.11), and 1.99 on 3.10 while each record was
# a dataclass instance with a tracked __dict__.  The collector untracks
# only exact tuples, so a record stays tracked.  What validation resolves
# for set-up (``ScenarioFile.declared``) adds three containers, less the
# file's own __dict__ on 3.10: 1.015 (1.018 on 3.10.13).
TRACKED_OBJECTS_PER_RECORD_BUDGET = 1.02

# Bytes a parsed FAULT_STREAM keeps per record, its field values included:
# 10% above the 119.9 measured when the bound was set (Python 3.10.13;
# 119.2-119.3 on 3.11.7 to 3.13.0, 64-bit), against 168 while every access
# line kept its own copy of its thread's name, and 192 (240 on 3.10) while
# each record was a frozen dataclass instance.
BYTES_PER_RECORD_BUDGET = 132


@pytest.mark.parametrize(
    "record, field",
    [
        (TraceEvent(0, EventKind.SUSPEND, (1,), 0), "seq"),
        (Classification(VerdictCode.DISPATCHED, rid=0, manager=2), "manager"),
        (MapAction(0, 0), "frame"),
        (CycleMetrics(4, 2, 2, 1), "ipc_messages"),
        (AccessItem("T", 0x1000, AccessType.READ), "vaddr"),
        (Expectation(0, VerdictCode.DISPATCHED), "verdict"),
        (ThreadDecl("T", 1, 1, ThreadRole.APPLICANT), "tid"),
        (AssignDecl(1, 0, "P"), "pager_name"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 99)
    with pytest.raises(AttributeError):
        record.extra = 1


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


def test_accounting_never_hashes_an_enum():
    enum_hash = Enum.__hash__.__code__
    # The counter does see the hash when it runs.
    assert python_calls(lambda: hash(EventKind.SUSPEND), enum_hash)[2] == [1]

    sf = parse_scenario(fixture_scn("workload50"))
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    (failures, problems), _, [hashes] = python_calls(
        lambda: (check_expectations(results, sf), verify_equivalence(results)),
        enum_hash,
    )
    assert failures == [] and problems == []
    assert hashes == 0


def functions_run(fn):
    """Run ``fn``; return its result, how many times it ran each function
    and how many calls each call site made to a Python function.  A
    function is keyed by its code object and the ``__name__`` of its
    globals: two NamedTuples with the same field names have equal
    constructor code, and the name tells them apart.  A call site is keyed
    by the calling code object and the offset of its call instruction."""
    ran = Counter()
    sites = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            ran[frame.f_code, frame.f_globals.get("__name__", "")] += 1
            caller = frame.f_back
            if caller is not None:
                sites[caller.f_code, caller.f_lasti] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, ran, sites


def cli_run(tmp_path, name: str, text: str):
    """``cli.main --check --verify-equivalence --report table --trace`` on
    one scenario under ``functions_run``; returns its stdout, what ran and
    the call sites."""
    path = tmp_path / f"{name}.scn"
    path.write_text(text)
    argv = [
        "--scenario", str(path), "--check", "--verify-equivalence",
        "--report", "table", "--trace", str(tmp_path / f"{name}.trace"),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, ran, sites = functions_run(lambda: cli.main(argv))
    assert status == cli.EXIT_OK
    return out.getvalue(), ran, sites


def source_functions(ran):
    """``(code, module, calls)`` of each function in ``ran`` (see
    ``functions_run``) that a pagersim module's source defines."""
    for (code, name), calls in ran.items():
        if name.partition(".")[0] != "pagersim":
            continue
        if code.co_name.startswith("<") and code.co_name != "<lambda>":
            continue  # a comprehension: walked with the function around it
        module = sys.modules[name]
        if code.co_filename != module.__file__:
            continue  # generated code, such as a dataclass's __init__
        yield code, module, calls


def function_nodes(module) -> dict:
    """AST nodes of every function and lambda of ``module``, keyed like
    their code objects by ``(first line, name)``: a decorated function's
    code starts at its first decorator, its AST node at ``def``."""
    nodes = {}
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Lambda):
            nodes.setdefault((node.lineno, "<lambda>"), []).append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            nodes.setdefault((line, node.name), []).append(node)
    return nodes


def body_nodes(code, nodes):
    """Every AST node in the body of the function that ``code`` runs."""
    for node in nodes[code.co_firstlineno, code.co_name]:
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            yield from ast.walk(stmt)


def enum_member_reads(code, module, nodes) -> list[str]:
    """``module:function Enum.MEMBER`` for each read of a member through
    its enum class in the body of the function that ``code`` runs."""
    name = getattr(code, "co_qualname", code.co_name)
    found = []
    for sub in body_nodes(code, nodes):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.value, ast.Name)
        ):
            obj = getattr(module, sub.value.id, None)
            if isinstance(obj, type) and issubclass(obj, Enum):
                found.append(f"{module.__name__}:{name} {sub.value.id}.{sub.attr}")
    return found


def test_run_path_reads_no_enum_member_through_its_class(tmp_path):
    # A read like ``ThreadState.READY`` runs the enum class's attribute
    # lookup hook, which no call counter above sees (it is no Python-level
    # call); the run path reads module constants bound once instead.
    ran = {}
    for name, text in (
        ("workload50", fixture_scn("workload50")), ("stream", FAULT_STREAM),
    ):
        ran.update(cli_run(tmp_path, name, text)[1])
    nodes = {}
    offenders = []
    for code, module, _ in source_functions(ran):
        if module not in nodes:
            nodes[module] = function_nodes(module)
        offenders += enum_member_reads(code, module, nodes[module])
    # The fault path ran.
    assert (Simulator._zero_level.__code__, "pagersim.schemes") in ran
    assert sorted(offenders) == []


def slow_shape(call: ast.Call) -> bool:
    """Whether ``call`` passes a keyword, ``*`` or ``**`` argument."""
    return bool(call.keywords) or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def slow_calls(code, module, nodes) -> list[str]:
    """``module:function line: call`` for each call in the body of the
    function that ``code`` runs, outside a ``raise``, that passes a keyword,
    ``*`` or ``**`` argument (see ``slow_shape``), and
    ``module:function (signature)`` if the function itself takes
    ``*args``, keyword-only arguments or ``**``."""
    name = f"{module.__name__}:{getattr(code, 'co_qualname', code.co_name)}"
    found = []
    extra_args = code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
    if extra_args or code.co_kwonlyargcount:
        found.append(f"{name} (signature)")
    raised = {
        id(sub)
        for node in body_nodes(code, nodes) if isinstance(node, ast.Raise)
        for sub in ast.walk(node)
    }
    for sub in body_nodes(code, nodes):
        if (
            isinstance(sub, ast.Call)
            and id(sub) not in raised
            and slow_shape(sub)
        ):
            found.append(f"{name} line {sub.lineno}: {ast.unparse(sub)}")
    return found


def slow_call_sites(sites, least: int) -> list[str]:
    """``module:function line: call`` for each call in a pagersim module's
    source that called Python functions at least ``least`` times (see
    ``functions_run``) and passes a keyword, ``*`` or ``**`` argument (see
    ``slow_shape``).  The call instruction's position ends where its call
    expression does."""
    modules = {
        m.__file__: m for name, m in list(sys.modules.items())
        if name.partition(".")[0] == "pagersim"
    }
    calls_by_end = {}
    found = []
    for (code, offset), calls in sites.items():
        module = modules.get(code.co_filename)
        # Python 3.10 keeps no instruction positions, and specializes no call.
        if calls < least or module is None or not hasattr(code, "co_positions"):
            continue
        if module not in calls_by_end:
            calls_by_end[module] = {
                (node.end_lineno, node.end_col_offset): node
                for node in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(node, ast.Call)
            }
        _, line, _, col = list(code.co_positions())[offset // 2]
        call = calls_by_end[module].get((line, col))
        if call is not None and slow_shape(call):
            name = getattr(code, "co_qualname", code.co_name)
            found.append(
                f"{module.__name__}:{name} line {call.lineno}: "
                f"{ast.unparse(call)}"
            )
    return found


def calls_off_the_fast_path(ran, sites, least: int):
    """The pagersim functions ``ran`` ran at least ``least`` times, and
    the slow calls in their bodies, their slow signatures and the slow
    call sites that made at least ``least`` calls."""
    nodes = {}
    hot = set()
    offenders = slow_call_sites(sites, least)
    for code, module, calls in source_functions(ran):
        if calls < least:
            continue
        hot.add(code)
        if module not in nodes:
            nodes[module] = function_nodes(module)
        offenders += slow_calls(code, module, nodes[module])
    return hot, sorted(set(offenders))


def test_per_fault_calls_stay_on_the_fast_call_path(tmp_path):
    # See the module docstring: no call counter above sees a call's shape.
    out, ran, sites = cli_run(tmp_path, "workload50", fixture_scn("workload50"))
    faults = sum(map(int, re.findall(r" faults=(\d+) ", out)))
    assert faults == 4 * 50
    per_fault, offenders = calls_off_the_fast_path(ran, sites, faults)
    # The fault path and the trace appends are among the guarded functions.
    assert {
        Simulator._zero_level.__code__, Simulator._build_actions.__code__,
        Trace.append.__code__,
    } <= per_fault
    for (code, name), calls in ran.items():
        if code.co_name == "<lambda>" and code.co_filename == "<string>":
            offenders.append(f"{name}.__new__ ran {calls} times")
    assert not offenders, "\n".join(offenders)


def test_per_space_calls_stay_on_the_fast_call_path():
    spaces = 100
    sf = parse_scenario(wide_spaces(spaces))
    sims, ran, sites = functions_run(
        lambda: [Simulator(sf, s) for s in ALL_SCHEMES]
    )
    # Every thread is registered, so registering runs per declared space;
    # building a space and assigning its regions run per faulting space.
    # The check covers everything set-up runs at least once per faulting
    # space, which includes what it runs per declared space.
    per_space, _ = calls_off_the_fast_path(ran, sites, len(sims) * spaces)
    assert Machine.register_thread.__code__ in per_space
    per_faulter, offenders = calls_off_the_fast_path(
        ran, sites, len(sims) * faulting_spaces(spaces)
    )
    assert {
        AddressSpace.__init__.__code__, RegionTable.assign.__code__,
    } <= per_faulter
    assert not offenders, "\n".join(offenders)


def test_per_line_parse_calls_stay_on_the_fast_call_path():
    # Parse reads every line through _read; a keyword or starred call there
    # would go the generic way once per line.
    text = fixture_scn("workload50")
    sf, ran, sites = functions_run(lambda: parse_scenario(text))
    per_line, offenders = calls_off_the_fast_path(ran, sites, len(sf.script))
    # Reading each line's fields is among the guarded functions.
    assert scenario._read.__code__ in per_line
    assert not offenders, "\n".join(offenders)


def test_check_and_verify_read_only_counters():
    # workload50 (50 faults, two expect lines) and FAULT_STREAM (800
    # faults, none): the budget holds per cycle at both scales.
    for text, faults in ((fixture_scn("workload50"), 50), (FAULT_STREAM, 800)):
        sf = parse_scenario(text)
        results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
        (failures, problems), calls, records = python_calls(
            lambda: (check_expectations(results, sf), verify_equivalence(results)),
            Trace.of_cycle.__code__,
            cycle_metrics.__code__,
            CycleMetrics.__new__.__code__,
        )
        assert failures == [] and problems == []
        # No event scan, no public per-cycle reader, no per-cycle record.
        assert records == [0, 0, 0]
        cycles = sum(len(res.cycles) for res in results.values())
        assert cycles == 4 * faults
        assert calls / cycles <= CHECK_CALLS_PER_CYCLE_BUDGET


class EntryReads(dict):
    """Page-table entries that count the entries read while ``counting``
    is set: one per key looked up, all of them per walk."""

    def __init__(self) -> None:
        super().__init__()
        self.counting = False
        self.reads = 0

    def _read(self, n: int) -> None:
        if self.counting:
            self.reads += n

    def get(self, key, default=None):
        self._read(1)
        return super().get(key, default)

    def __getitem__(self, key):
        self._read(1)
        return super().__getitem__(key)

    def __iter__(self):
        self._read(len(self))
        return super().__iter__()

    def items(self):
        self._read(len(self))
        return super().items()

    def values(self):
        self._read(len(self))
        return super().values()


REVOKED_PAGES = 4


def revoke_beside(outside: int) -> str:
    """One space of two regions: pager Q maps ``outside`` pages of region 1,
    then pager R maps REVOKED_PAGES pages of region 0 and revokes it."""
    lines = [
        "layout regions=2 pages_per_region=1024 page_size=4096",
        "thread T tid=1 asid=1 role=applicant",
        "thread R tid=2 asid=2 role=pager",
        "thread Q tid=3 asid=2 role=pager",
        f"pager R policy=anonymous revoke_after={REVOKED_PAGES}",
        "pager Q policy=anonymous",
        "assign asid=1 rid=0 pager=R",
        "assign asid=1 rid=1 pager=Q",
    ]
    lines += [f"access T {(1024 + p) * 4096:#x} read" for p in range(outside)]
    lines += [f"access T {p * 4096:#x} read" for p in range(REVOKED_PAGES)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "scheme", [Scheme.MONOLITHIC, Scheme.REGION_DISPATCH, Scheme.L4RE],
    ids=lambda s: s.value,
)
def test_a_revoke_reads_only_its_region(scheme, monkeypatch):
    # The entries a revoke reads follow the pages of its region, not the
    # pages its space holds elsewhere.
    change_memory = Simulator._change_memory

    def counted(self, pager, fault, action):
        entries = self.spaces[1].pages
        entries.counting = action is REVOKE
        try:
            change_memory(self, pager, fault, action)
        finally:
            entries.counting = False

    monkeypatch.setattr(Simulator, "_change_memory", counted)
    reads = []
    for outside in (40, 400):
        sim = Simulator(parse_scenario(revoke_beside(outside)), scheme)
        sim.spaces[1].pages = entries = EntryReads()
        result = sim.run()
        assert len(result.cycles) == outside + REVOKED_PAGES
        assert sim.spaces[1].present_pages_in_region(0) == []
        assert len(sim.spaces[1].present_pages_in_region(1)) == outside
        assert result.warnings == []
        reads.append(entries.reads)
    assert reads[0] == reads[1]
    assert 0 < reads[0] <= 2 * REVOKED_PAGES


def test_run_loop_calls_per_fault_stay_within_budget():
    sf = parse_scenario(fixture_scn("workload50"))
    sims = [Simulator(sf, s) for s in ALL_SCHEMES]
    results, calls, _ = python_calls(lambda: [sim.run() for sim in sims])
    faults = sum(len(res.cycles) for res in results)
    assert faults == 4 * 50
    assert calls / faults <= CALLS_PER_FAULT_BUDGET


def test_deliver_runs_once_per_delivered_message():
    # A pager whose actions are done is served again only if its mailbox
    # holds a message: no delivery attempt finds it empty.
    sf = parse_scenario(fixture_scn("workload50"))
    sims = [Simulator(sf, s) for s in ALL_SCHEMES]
    results, _, [delivers, receives] = python_calls(
        lambda: [sim.run() for sim in sims],
        FaultDispatcher.deliver.__code__,
        Machine.receive.__code__,
    )
    received = sum(
        res.trace.kinds.count(EventKind.IPC_RECEIVE) for res in results
    )
    assert received == (1 + 1 + 2) * 50  # l4-single, proposed, l4re
    assert delivers == receives == received


def test_a_pager_returns_to_its_receive_loop_once_per_reply_or_reflection():
    sf = parse_scenario(fixture_scn("workload50"))
    blocks = {}
    for scheme in ALL_SCHEMES:
        sim = Simulator(sf, scheme)
        res, _, [blocks[scheme]] = python_calls(
            sim.run, Machine.block_on_receive.__code__
        )
        syscalls = sum(
            kind is EventKind.IPC_SEND and args[2] in ("REPLY", "REFLECTION")
            for kind, args in zip(res.trace.kinds, res.trace.args)
        )
        assert blocks[scheme] == syscalls, scheme
    assert blocks == {
        Scheme.MONOLITHIC: 0,
        Scheme.L4_SINGLE: 50,
        Scheme.REGION_DISPATCH: 50,
        Scheme.L4RE: 100,
    }


def crossing_appends(module) -> list[str]:
    """``module line: call`` for each ``append`` call in the source of
    ``module`` whose first argument is a ``MODE_SWITCH_*`` event kind,
    named through ``EventKind`` or a module constant bound to it."""
    crossings = (EventKind.MODE_SWITCH_U2K, EventKind.MODE_SWITCH_K2U)
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and node.args
        ):
            continue
        kind = node.args[0]
        if isinstance(kind, ast.Attribute) and isinstance(kind.value, ast.Name):
            value = getattr(getattr(module, kind.value.id, None), kind.attr, None)
        elif isinstance(kind, ast.Name):
            value = getattr(module, kind.id, None)
        else:
            continue
        if any(value is c for c in crossings):
            found.append(f"{module.__name__} line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_dispatcher_appends_a_crossing():
    # The fault protocol's crossings have one writer, the dispatcher.
    found = crossing_appends(pagersim)
    for info in pkgutil.iter_modules(pagersim.__path__):
        if info.name != "__main__":  # importing it runs the command line
            found += crossing_appends(importlib.import_module(f"pagersim.{info.name}"))
    outside = [f for f in found if not f.startswith("pagersim.fault_dispatch ")]
    assert outside == []
    # The trap, the two syscalls and the two returns to user mode.
    assert len(found) == 5, found


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


FAULT_STREAM = fault_stream(800)


@pytest.mark.parametrize(
    "scheme", BYTES_PER_EVENT_BUDGET, ids=lambda s: s.value
)
def test_bytes_kept_per_event_stay_within_budget(scheme):
    sim = Simulator(parse_scenario(FAULT_STREAM), scheme)
    gc.collect()
    tracemalloc.start()
    try:
        result = sim.run()
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.cycles) == 800
    assert len(result.trace) >= 10_000
    assert kept / len(result.trace) <= BYTES_PER_EVENT_BUDGET[scheme]


def counted_bytes_per_fault(scheme: Scheme, faults: int) -> tuple[float, float]:
    """Bytes a counters-only run keeps per fault, and its events per fault."""
    sim = Simulator(parse_scenario(fault_stream(faults, 512)), scheme, False)
    gc.collect()
    tracemalloc.start()
    try:
        result = sim.run()
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.cycles) == faults
    return kept / faults, len(result.trace) / faults


def agree(a: float, b: float) -> bool:
    """Within 10% of the larger."""
    return abs(a - b) <= 0.1 * max(a, b)


def test_counters_only_bytes_per_fault_follow_faults_not_events():
    kept = {}
    events = {}
    for scheme in (Scheme.MONOLITHIC, Scheme.L4RE):
        for faults in (600, 6000):
            kept[scheme, faults], events[scheme] = counted_bytes_per_fault(
                scheme, faults
            )
    # The two schemes' events per fault differ about 4x, yet a
    # counters-only run keeps the same bytes per fault under both, at
    # either size.
    assert events[Scheme.L4RE] >= 3 * events[Scheme.MONOLITHIC]
    for scheme in (Scheme.MONOLITHIC, Scheme.L4RE):
        assert agree(kept[scheme, 600], kept[scheme, 6000]), kept
    for faults in (600, 6000):
        assert agree(kept[Scheme.MONOLITHIC, faults], kept[Scheme.L4RE, faults]), kept
    assert max(kept.values()) <= COUNTED_BYTES_PER_FAULT_BUDGET, kept


@pytest.mark.parametrize("faults", [600, 6000])
@pytest.mark.parametrize(
    "scheme", [Scheme.MONOLITHIC, Scheme.L4RE], ids=lambda s: s.value
)
def test_counters_only_tracked_objects_per_fault_stay_within_budget(
    scheme, faults
):
    # What a run keeps per fault once its events are only counted: each
    # tracked object is walked by every later full collection.
    sim = Simulator(parse_scenario(fault_stream(faults, 512)), scheme, False)
    gc.collect()
    before = len(gc.get_objects())
    result = sim.run()
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert len(result.cycles) == faults
    assert all(cycle.closed for cycle in result.cycles)
    assert tracked / faults <= TRACKED_OBJECTS_PER_FAULT_BUDGET


def test_gc_tracked_objects_per_event_stay_within_budget():
    sim = Simulator(parse_scenario(FAULT_STREAM), Scheme.L4RE)
    gc.collect()
    before = len(gc.get_objects())
    result = sim.run()
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert len(result.trace) >= 10_000
    assert tracked / len(result.trace) <= TRACKED_OBJECTS_PER_EVENT_BUDGET


def wide_spaces(spaces: int) -> str:
    """One applicant in each of ``spaces`` address spaces with two
    assigned regions, served by three pagers that share one more space;
    every fifth applicant faults once."""
    lines = [
        f"thread A{i} tid={i} asid={i} role=applicant pager=P{i % 3 + 1}"
        for i in range(1, spaces + 1)
    ]
    for j in (1, 2, 3):
        lines.append(
            f"thread P{j} tid={spaces + j} asid={spaces + 1} role=pager"
        )
        lines.append(f"pager P{j} policy=anonymous marker=page")
    for i in range(1, spaces + 1):
        rid = 7 * i % 1020
        lines += [
            f"assign asid={i} rid={r} pager=P{i % 3 + 1}"
            for r in (rid, (rid + 510) % 1020)
        ]
    # Regions of the default layout span 4 MiB.
    lines += [
        f"access A{i} {(7 * i % 1020 << 22) + 0x1000:#x} read"
        for i in range(5, spaces + 1, 5)
    ]
    return "\n".join(lines) + "\n"


def faulting_spaces(spaces: int) -> int:
    """Spaces of ``wide_spaces(spaces)`` whose applicant faults."""
    return spaces // 5


def test_verify_snapshots_only_tables_that_hold_an_entry():
    # One applicant in five faults, so 200 of the 1,001 spaces hold a
    # page under each of the four schemes: 800 table copies, not 4,004.
    sf = parse_scenario(wide_spaces(1000))
    results = {s.value: simulate(s, sf) for s in ALL_SCHEMES}
    assert verify_equivalence(results) == []
    mapped = set(range(5, 1001, 5))
    for result in results.values():
        assert set(result.page_snapshot()) == mapped


def test_a_page_snapshot_is_a_copy():
    result = simulate(Scheme.REGION_DISPATCH, parse_scenario(fixture_scn("table1")))
    pages = result.spaces[1].pages
    kept = dict(pages)
    snapshot = result.page_snapshot()
    assert snapshot == {1: kept}
    page = next(iter(pages))
    snapshot[1][page] = (False, 0, 1)
    snapshot[1][page + 1] = (True, 2, 3)
    assert pages == kept
    snapshot[1].clear()
    assert pages == kept
    assert result.page_snapshot() == {1: kept}


def test_set_up_calls_per_space_stay_within_budget():
    calls = {}
    for spaces in (0, 100, 1000):
        sf = parse_scenario(wide_spaces(spaces))
        sims, calls[spaces], _ = python_calls(
            lambda: [Simulator(sf, s) for s in ALL_SCHEMES]
        )
        assert all(len(sim.spaces) == faulting_spaces(spaces) for sim in sims)
    assert max(calls[100] / 100, calls[1000] / 1000) <= SETUP_CALLS_PER_SPACE_BUDGET
    # Linear in the spaces: net of the four builds' fixed cost (their
    # pagers, machines and dispatchers), ten times the spaces, the same
    # cost per space.
    small, large = ((calls[n] - calls[0]) / n for n in (100, 1000))
    assert abs(small - large) <= 0.05 * large


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_set_up_builds_one_space_per_faulting_space(scheme):
    sf = parse_scenario(wide_spaces(1000))
    _, _, [built] = python_calls(
        lambda: Simulator(sf, scheme), AddressSpace.__init__.__code__
    )
    assert built == faulting_spaces(1000) == 200


@pytest.mark.parametrize(
    "scheme", TRACKED_OBJECTS_PER_SPACE_BUDGET, ids=lambda s: s.value
)
def test_gc_tracked_objects_per_space_stay_within_budget(scheme):
    # Each tracked object a Simulator keeps is walked by every full
    # collection while later ones are built.
    for spaces in (100, 1000):
        sf = parse_scenario(wide_spaces(spaces))
        gc.collect()
        before = len(gc.get_objects())
        sim = Simulator(sf, scheme)
        gc.collect()
        tracked = len(gc.get_objects()) - before
        assert len(sim.spaces) == faulting_spaces(spaces)
        assert tracked / spaces <= TRACKED_OBJECTS_PER_SPACE_BUDGET[scheme]
        # Freed before the next count, which then sees its own build alone.
        del sim, sf


def test_parse_calls_per_line_stay_within_budget():
    text = fixture_scn("workload50")
    lines = sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())
    sf, calls, _ = python_calls(lambda: parse_scenario(text))
    assert len(sf.script) == 50
    assert calls / lines <= PARSE_CALLS_PER_LINE_BUDGET


SCRIPT_PATTERN = (
    "access T 0x1000 read hold", "dispatch T", "switch U",
    "access U {:#x} write", "yield",
)


def script_of(lines: int) -> str:
    """Two applicants and a pager, then a script of ``lines`` lines that
    repeats every script directive valid under all four schemes; the
    second access of each round touches a page of its own."""
    head = [
        "thread T tid=1 asid=1 role=applicant pager=P",
        "thread U tid=2 asid=1 role=applicant pager=P",
        "thread P tid=3 asid=2 role=pager",
        "pager P policy=anonymous",
        "assign asid=1 rid=0 pager=P",
    ]
    script = [
        SCRIPT_PATTERN[i % len(SCRIPT_PATTERN)].format(0x2000 + (i << 12))
        for i in range(lines)
    ]
    return "\n".join(head + script) + "\n"


def test_set_up_calls_per_script_line_stay_within_budget():
    # Parse plus four Simulator(...) builds, one per scheme, counted beyond
    # a one-round script: the same cost per script line at 500 and at
    # 2,000 lines, with no Python-level call per item over the script.
    def calls(lines):
        return python_calls(lambda: [
            Simulator(sf, s)
            for sf in [parse_scenario(script_of(lines))] for s in ALL_SCHEMES
        ])[1]

    base = len(SCRIPT_PATTERN)
    per_line = [
        (calls(lines) - calls(base)) / (lines - base) for lines in (500, 2000)
    ]
    assert max(per_line) <= SCRIPT_CALLS_PER_LINE_BUDGET, per_line
    small, large = per_line
    assert small == large


def records_of(sf) -> int:
    return sum(map(len, (
        sf.threads, sf.pagers, sf.assigns, sf.script, sf.expectations,
    )))


def test_a_parsed_scenario_keeps_one_tracked_object_per_record():
    # One tuple per line, with no __dict__ of its own and no record shared
    # between lines.
    text = FAULT_STREAM
    gc.collect()
    before = len(gc.get_objects())
    sf = parse_scenario(text)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert records_of(sf) >= 800
    assert tracked / records_of(sf) <= TRACKED_OBJECTS_PER_RECORD_BUDGET


def test_bytes_kept_per_parsed_record_stay_within_budget():
    text = FAULT_STREAM
    gc.collect()
    tracemalloc.start()
    try:
        sf = parse_scenario(text)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records_of(sf) >= 800
    assert kept / records_of(sf) <= BYTES_PER_RECORD_BUDGET


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


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_translate_hit_calls_stay_within_budget(scheme):
    # The difference between 200 re-reads and none is the hits' own cost.
    fault_only = Simulator(parse_scenario(reread_stream(0)), scheme)
    with_hits = Simulator(parse_scenario(reread_stream(200)), scheme)
    _, base, _ = python_calls(fault_only.run)
    result, calls, _ = python_calls(with_hits.run)
    assert len(result.cycles) == 1
    assert (calls - base) / 200 <= CALLS_PER_HIT_BUDGET


def test_rendering_makes_no_call_per_event():
    trace = simulate(Scheme.L4RE, parse_scenario(FAULT_STREAM)).trace
    text, calls, _ = python_calls(trace.to_text)
    assert text.count("\n") == len(trace) >= 10_000
    assert calls / len(trace) <= RENDER_CALLS_PER_EVENT_BUDGET


def prefix(trace: Trace, events: int) -> Trace:
    """A new trace holding the first ``events`` events of ``trace``."""
    out = Trace()
    for ev in trace[:events]:
        out.append(ev.kind, ev.args, ev.cycle)
    return out


@pytest.mark.parametrize(
    "events", [0, 1, RENDER_BLOCK, RENDER_BLOCK + 1, None],
    ids=["empty", "one-event", "one-block", "block-plus-one", "fault-stream"],
)
def test_block_rendering_equals_rendering_each_event(events):
    # Attributed and unattributed events of every kind but UNMAP_PAGE.
    trace = simulate(Scheme.L4RE, parse_scenario(FAULT_STREAM)).trace
    if events is not None:
        trace = prefix(trace, events)
        assert len(trace) == events
    assert trace.to_text() == "".join(ev.render() + "\n" for ev in trace)
