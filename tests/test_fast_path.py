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
does the same for ``Simulator(...)``, per faulting address space, and
fails if any function runs once per declared thread: setting up a space
is part of the design under test, and a keyword call into a dataclass
``__init__`` costs about twice a positional one (docs/architecture.md,
"Set-up costs").
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
from pagersim import cli, fault_dispatch, scenario
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
from pagersim.engine import AccessType, Machine, ThreadRole, ThreadState
from pagersim.errors import SchemeMismatchError, SimulationError
from pagersim.fault_dispatch import Classification, FaultDispatcher
from pagersim.pagers import REVOKE, MapAction, PagerBehavior
from pagersim.reproduce import FIXTURES
from pagersim.scenario import AccessItem, AssignDecl, Expectation, ThreadDecl
from pagersim.trace import RENDER_BLOCK, Trace, TraceEvent, step
from schedules import SCENARIOS, scenario as schedule
from support import (
    SELF_PAGER,
    SELF_PAGER_SCRIPTS,
    calls_per_hit,
    check_verify_calls,
    expect_heavy,
    fault_stream,
    fixture_scn,
    mutual_pagers,
    opened,
    python_calls,
    run_loop_calls,
)

# On Python 3.10 the attributes of an instance without slots live in a
# separate __dict__, which the collector tracks once it holds a tracked
# object; 3.11 keeps them in the instance.  The GC budgets below that count
# such instances have a 3.10 figure of their own.
PY310 = sys.version_info < (3, 11)

# Python-level calls per fault of one run of workload50 under every
# scheme: 10% above the 25.0 measured when the budget was set (Python
# 3.11.7), against 27.0 while every send queued its message at the
# receiver for a delivery step of its own, even to a receiver waiting in
# its receive loop, 34.1 while delivery, a reply and the return handed the
# CPU over through the scheduler's switch_to, a map answering a fault
# looked its region up again, each action of an answer was carried out by
# a call of its own, the trap opened its row through a call, an access by
# the thread holding the CPU called switch_to and the monolithic in-kernel
# resolution was a method of its own, 41.6 while each event of a protocol
# step was appended by a call of its own and the machine recorded sends
# and protocol context switches, 42.6 while delivery received a message
# through a machine method that fetched and checked the box again, 43.9
# while every pager answer went through a simulator method that checked
# the pager had a behavior, 44.1 while a region mapper kept a copy of its
# space's region table, 46.6 while the machine had methods that wrote
# thread states for the dispatcher, 47.6 while mode=auto queued every
# pager answer for the run loop to drain, 49.1 while delivery peeked at a
# mailbox through a machine method and the kernel looked a region's slot
# up again to write its contract, 51.1 while a map went through a
# page-table method that built a mutable entry record, and 55.1 while the
# machine wrote the syscall and return crossings and a pager went back to
# its receive loop twice per reply or reflection.
CALLS_PER_FAULT_BUDGET = 27.5

# Python-level calls per translate hit by the thread holding the CPU,
# under every scheme: 10% above the 2.0 measured when the budget was set
# (Python 3.11.7): the access and the translation, against 3.0 while each
# access also called switch_to.
CALLS_PER_HIT_BUDGET = 2.2

# Python-level calls per event of Trace.to_text: one call per block of
# events, not one per event (Python 3.11).
RENDER_CALLS_PER_EVENT_BUDGET = 0.01

# Python-level calls per fault cycle of check_expectations plus
# verify_equivalence over the four runs of one scenario: 10% above the
# 0.125 measured on workload50 when the budget was set (0.0078 on
# FAULT_STREAM; Python 3.11.7), against 0.135 (0.0084) while each expect
# line's row was judged afresh and page tables were compared as copies,
# and 1.745 (1.51) while the cost ordering judged every dispatched cycle's
# rows afresh and every empty page table was snapshotted.
CHECK_CALLS_PER_CYCLE_BUDGET = 0.138

# Python-level calls per fault cycle of check_expectations plus
# verify_equivalence over the four runs of expect_heavy(800), one
# cost-bearing expect line per fault: 10% above the 0.0106 measured when
# the budget was set (Python 3.11.7), against 0.758 while every expect
# line's counter row was unpacked and judged afresh.  Each distinct row is
# judged once per call, so the figure barely moves with the expect lines.
EXPECT_HEAVY_CHECK_CALLS_PER_CYCLE_BUDGET = 0.0117

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
# under monolithic and l4re: 10% above the 1.0 measured when the bound was
# set (the fault's FaultCycle), against 2.0 while each counter row was a
# list rather than one int, which the collector does not track, and 3.0
# while each page-table entry was a mutable record rather than a tuple of
# ints, which the collector untracks (Python 3.11).
TRACKED_OBJECTS_PER_FAULT_BUDGET = 1.1

# GC-tracked objects one l4re run of FAULT_STREAM keeps per trace event:
# 0.158 when the bound was set, against 1.16 for a store of one TraceEvent
# per event, so events must stay untracked column entries (Python 3.11).
TRACKED_OBJECTS_PER_EVENT_BUDGET = 0.2

# Python-level calls per declared address space of four Simulator(...)
# builds, one per scheme, of wide_spaces() at 100 and at 1,000 spaces: 10%
# above the 6.32 measured at 100 spaces when the budget was set (5.49 at
# 1,000; Python 3.11.7), against 7.91 (7.09) while each l4re region
# mapper got a mapping database copied from its space's region table,
# 16.19 while each build registered every declared thread with a call and
# a control block of its own, 38.5 while every declared space was built
# and given its regions, and 60.6 while assign also built a throwaway
# RegionSlot per region and set-up stepped a generator per thread.  A
# build adds the declared threads in one step and builds a space only for
# a thread that accesses memory, one space in five here.  The 100-space
# figure binds because the builds' fixed cost, 92 calls, is spread over
# fewer spaces; net of it both sizes cost 5.4 calls per space.
SETUP_CALLS_PER_SPACE_BUDGET = 6.95

# GC-tracked objects one Simulator(...) keeps per declared address space of
# wide_spaces(), at 100 and at 1,000 spaces, each build counted alone.  A
# build makes an AddressSpace, its page-table dict and its RegionTable only
# for a space whose thread accesses memory, one in five here, and l4re adds
# a region mapper thread for each such space; the mappers share one behavior
# and keep no database.  A declared thread adds no object: the machine keeps
# its parsed declaration and an untracked state entry.  The 100-space count
# binds, since a build's fixed objects are spread over fewer spaces: 1.40 on
# Python 3.11.7, 3.12.1 and 3.13.0 (1.61 under l4re, measured on 3.11.7),
# and 1.22 (1.42) at 1,000.  On Python 3.10.13 each AddressSpace and
# RegionTable adds its tracked __dict__: 1.88 (2.10 under l4re) at 100
# spaces, which binds, and 1.63 (1.83) at 1,000, against 3.88 (3.63) under
# l4re while each mapper kept a database.  Each bound is 10% above
# its binding figure, against 2.80 (2.62 at 1,000) under l4re on 3.11.7
# while each region mapper kept a behavior and a mapping database of its
# own, 2.43 (3.83) at 100 spaces on 3.11.7 while every thread had a control
# block of its own, 6.03 (7.43) kept per space by a lone 1,000-space build
# on 3.11 while every declared space was built, 7.03 (8.43) while each page
# table was an object wrapping its dict, and 8.03 (9.63) while every thread
# got its mailbox deque at registration.
TRACKED_OBJECTS_PER_SPACE_BUDGET = {
    Scheme.MONOLITHIC: 2.07 if PY310 else 1.54,
    Scheme.L4_SINGLE: 2.07 if PY310 else 1.54,
    Scheme.REGION_DISPATCH: 2.07 if PY310 else 1.54,
    Scheme.L4RE: 2.31 if PY310 else 1.77,
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
    # The fault path, the pagers' answers, the trap, which opens the
    # cycle's row, and the trace's step recorder are among the guarded
    # functions.
    assert {
        Simulator._zero_level.__code__, PagerBehavior.on_page_fault.__code__,
        Simulator._carry_out.__code__, FaultDispatcher.begin_fault.__code__,
        Trace.record.__code__,
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
    # A thread is its declaration, and a build adds the declared threads in
    # one step: no Python function runs once per declared thread.
    per_thread = sorted(
        f"{module}:{code.co_name} ran {calls} times"
        for (code, module), calls in ran.items()
        if calls >= len(sims) * len(sf.threads)
    )
    assert not per_thread, "\n".join(per_thread)
    # Building a space and assigning its regions run per faulting space.
    # The check covers everything set-up runs at least once per faulting
    # space.
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


def test_expect_heavy_check_and_verify_calls_stay_within_budget():
    # 800 expect lines, each with its cycle's cost under one scheme: the
    # bound holds per cycle, so an expect line costs no call of its own.
    (failures, problems), calls, cycles = check_verify_calls(expect_heavy(800))
    assert failures == [] and problems == []
    assert cycles == 4 * 800
    assert calls / cycles <= EXPECT_HEAVY_CHECK_CALLS_PER_CYCLE_BUDGET


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
    # pages its space holds elsewhere.  An answer is carried out in one
    # call, and its map and reply read no entry, so the reads counted over
    # an answer with a revoke are the revoke's.
    carry_out = Simulator._carry_out

    def counted(self, pager, fault, actions):
        entries = self.spaces[1].pages
        entries.counting = REVOKE in actions
        try:
            return carry_out(self, pager, fault, actions)
        finally:
            entries.counting = False

    monkeypatch.setattr(Simulator, "_carry_out", counted)
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
    calls, faults = run_loop_calls(fixture_scn("workload50"))
    assert faults == 4 * 50
    assert calls / faults <= CALLS_PER_FAULT_BUDGET


def queued_and_delivered(monkeypatch, texts) -> tuple[int, list[bool]]:
    """Run each of ``texts`` under every scheme it fits, a run that stops
    kept up to where it stops; return the messages ``Machine.send``
    queued and, per ``FaultDispatcher.deliver`` call, whether the
    receiver's mailbox held a message when it was called."""
    sends, found = [0], []
    send, deliver = Machine.send, FaultDispatcher.deliver

    def counted_send(machine, receiver, kind, payload):
        send(machine, receiver, kind, payload)
        sends[0] += 1

    def checked_deliver(dispatcher, target):
        found.append(bool(dispatcher.machine.mailboxes.get(target)))
        return deliver(dispatcher, target)

    monkeypatch.setattr(Machine, "send", counted_send)
    monkeypatch.setattr(FaultDispatcher, "deliver", checked_deliver)
    for text in texts:
        sf = parse_scenario(text)
        for scheme in ALL_SCHEMES:
            try:
                Simulator(sf, scheme).run()
            except SimulationError:  # SchemeMismatchError among them
                pass
    return sends[0], found


def test_every_run_path_deliver_finds_a_queued_message(monkeypatch):
    # A pager waiting in its receive loop takes a fault in the step that
    # sends it; only a busy receiver's messages queue, and a pager whose
    # actions are done is served again only if its mailbox holds one.
    # Under mode=auto no receiver is ever busy: workload50 queues nothing,
    # and every receive is a direct transfer's.
    sf = parse_scenario(fixture_scn("workload50"))
    sims = [Simulator(sf, s) for s in ALL_SCHEMES]
    results, _, [sends, delivers] = python_calls(
        lambda: [sim.run() for sim in sims],
        Machine.send.__code__, FaultDispatcher.deliver.__code__,
    )
    received = sum(
        res.trace.kinds.count(EventKind.IPC_RECEIVE) for res in results
    )
    assert received == (1 + 1 + 2) * 50  # l4-single, proposed, l4re
    assert sends == delivers == 0
    texts = [fixture_scn(name) for name in FIXTURES]
    texts += [schedule(seed) for seed in range(SCENARIOS)]
    _, found = queued_and_delivered(monkeypatch, texts)
    assert found and all(found)


def test_the_seeded_schedules_queue_at_a_busy_receiver(monkeypatch):
    # The busy-receiver path, a queued send and its later delivery, stays
    # covered: mode=manual schedules send faults to pagers still holding
    # an answer.
    sends, found = queued_and_delivered(
        monkeypatch, [schedule(seed) for seed in range(SCENARIOS)]
    )
    assert sends > 0 and found
    assert len(found) <= sends  # a message can be left queued when a run ends


def appends_one_of(module, node, kinds) -> bool:
    """Whether ``node`` is an ``append`` call whose first argument is one
    of the event ``kinds``, named through ``EventKind`` or a constant of
    ``module`` bound to it."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and node.args
    ):
        return False
    kind = node.args[0]
    if isinstance(kind, ast.Attribute) and isinstance(kind.value, ast.Name):
        value = getattr(getattr(module, kind.value.id, None), kind.attr, None)
    elif isinstance(kind, ast.Name):
        value = getattr(module, kind.id, None)
    else:
        return False
    return any(value is k for k in kinds)


def recorded_step(module, node, kinds) -> str | None:
    """If ``node`` is a ``record`` call whose step, ``STEPS["name"]`` read
    in ``module``, has an event of one of the ``kinds``: the step's name,
    its "+switch" row named as the step.  ``"?"`` for a ``record`` call
    whose step is not written so, whatever its kinds."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "record"
        and node.args
    ):
        return None
    step = node.args[0]
    if not (
        isinstance(step, ast.Subscript)
        and isinstance(step.value, ast.Name)
        and isinstance(step.slice, ast.Constant)
        and step.slice.value in getattr(module, step.value.id, {})
    ):
        return "?"
    name = step.slice.value
    recorded_kinds = getattr(module, step.value.id)[name][0]
    if any(k is kind for k in recorded_kinds for kind in kinds):
        return name.partition("+")[0]
    return None


def nodes_in(module):
    """``(function, node)`` for each node of ``module``'s source, with the
    name of the function whose body holds it (``None`` outside any)."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                yield function, child
                yield from walk(child, function)

    return walk(ast.parse(inspect.getsource(module)), None)


def package_appends(kinds) -> list[str]:
    """``module line: call`` for each ``append`` call in the package's
    source whose first argument is one of the event ``kinds``."""
    return [
        f"{module.__name__} line {node.lineno}: {ast.unparse(node)}"
        for module in package_modules()
        for _, node in nodes_in(module)
        if appends_one_of(module, node, kinds)
    ]


def package_records(kinds) -> list[str]:
    """``module function: step`` for each protocol step with an event of
    one of the ``kinds`` that a ``record`` call in the package's source
    names, each step once."""
    return sorted({
        f"{module.__name__} {function}: {step}"
        for module in package_modules()
        for function, node in nodes_in(module)
        if (step := recorded_step(module, node, kinds))
    })


def package_modules() -> list:
    """``pagersim`` and each of its modules but ``__main__``, whose import
    runs the command line."""
    return [pagersim] + [
        importlib.import_module(f"pagersim.{info.name}")
        for info in pkgutil.iter_modules(pagersim.__path__)
        if info.name != "__main__"
    ]


def steps_in(table, kind, alone=()) -> list[str]:
    """The names of the ``STEPS`` rows with an event of ``kind`` among the
    rows of ``table``, a table of row pairs as ``_DELIVERY`` and ``_RETURN``
    are, and the rows named in ``alone``."""
    rows = {row for pair in table.values() for row in pair}
    return sorted(
        name for name, row in fault_dispatch.STEPS.items()
        if (name in alone or row in rows) and kind in row[0]
    )


def transfer_steps(kind) -> list[str]:
    """The names of the ``STEPS`` rows with an event of ``kind`` that
    ``FaultDispatcher._transfer``, one of the scan's two ``"?"``, can
    record: a send's row, alone when its message queues, and a delivery's
    row from ``_DELIVERY``, joined with the send in the same step or alone."""
    return steps_in(fault_dispatch._DELIVERY, kind, ("send", "reflect"))


def return_steps(kind) -> list[str]:
    """The names of the ``STEPS`` rows with an event of ``kind`` that
    ``FaultDispatcher.return_to_faulter``, the scan's other ``"?"``, can
    record: a return's row from ``_RETURN``, joined with a reply or alone."""
    return steps_in(fault_dispatch._RETURN, kind)


def test_only_the_dispatcher_appends_a_crossing():
    # The fault protocol's crossings have one writer, the dispatcher: no
    # module appends one, and only the dispatcher's steps record one.
    crossings = (EventKind.MODE_SWITCH_U2K, EventKind.MODE_SWITCH_K2U)
    assert package_appends(crossings) == []
    found = package_records(crossings)
    # The trap and the two hand-offs, whose rows the scan cannot name: the
    # one helper that records a send and a delivery, and the return to the
    # faulter, which records a reply with it.
    assert found == [
        "pagersim.fault_dispatch _transfer: ?",
        "pagersim.fault_dispatch begin_fault: trap",
        "pagersim.fault_dispatch return_to_faulter: ?",
    ]
    # A reflection and a reply enter the kernel, and every delivery and
    # return leaves it.
    assert transfer_steps(EventKind.MODE_SWITCH_U2K) == [
        "reflect", "reflect+deliver", "reflect+deliver+switch",
    ]
    assert transfer_steps(EventKind.MODE_SWITCH_K2U) == [
        "deliver", "deliver+switch", "reflect+deliver", "reflect+deliver+switch",
        "send+deliver", "send+deliver+switch",
    ]
    assert return_steps(EventKind.MODE_SWITCH_U2K) == ["reply", "reply+switch"]
    assert return_steps(EventKind.MODE_SWITCH_K2U) == [
        "reply", "reply+switch", "return", "return+switch",
    ]


def test_only_the_dispatcher_appends_a_receive():
    # A delivery records the receive, joined with the send when the
    # receiver was waiting for it: one helper, the dispatcher's, which
    # deliver and the two sends share.  The scan reads the return to the
    # faulter's rows as "?" too, and none of them has a receive.
    assert package_appends((EventKind.IPC_RECEIVE,)) == []
    found = package_records((EventKind.IPC_RECEIVE,))
    assert found == [
        "pagersim.fault_dispatch _transfer: ?",
        "pagersim.fault_dispatch return_to_faulter: ?",
    ]
    assert transfer_steps(EventKind.IPC_RECEIVE) == [
        "deliver", "deliver+switch", "reflect+deliver", "reflect+deliver+switch",
        "send+deliver", "send+deliver+switch",
    ]
    assert return_steps(EventKind.IPC_RECEIVE) == []


def state_writes(module) -> list[str]:
    """``module line: code (in function)`` for each store into a
    ``state[...]`` subscript and each ``append`` call whose first argument
    is ``SUSPEND`` or ``RESUME``, and ``module step: name (in function)``
    for each protocol step with one of them that a ``record`` call names,
    each step once, in the source of ``module``."""
    changes = (EventKind.SUSPEND, EventKind.RESUME)
    found = []
    for function, node in nodes_in(module):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            hit = any(
                isinstance(t, ast.Subscript)
                and getattr(t.value, "attr", getattr(t.value, "id", None))
                == "state"
                for t in targets
            )
        else:
            hit = appends_one_of(module, node, changes)
        if hit:
            found.append(
                f"{module.__name__} line {node.lineno}: "
                f"{ast.unparse(node)} (in {function})"
            )
        step = recorded_step(module, node, changes)
        if step:
            found.append(f"{module.__name__} step: {step} (in {function})")
    return list(dict.fromkeys(found))


def test_only_the_dispatcher_writes_a_thread_state():
    # After registration, every change of a thread's state is a step of
    # the fault protocol, and the dispatcher is its one writer.
    found = [f for module in package_modules() for f in state_writes(module)]
    outside = [
        f for f in found
        if not f.startswith("pagersim.fault_dispatch ")
        and not (f.startswith("pagersim.engine ") and f.endswith("(in add_threads)"))
    ]
    assert outside == []
    # park, suspend_and_send, _transfer (the receiver's wake-up),
    # back_to_receive, reflect and return_to_faulter's two (a reply's)
    # store states; the two suspensions and the resume are recorded by
    # steps: park's, a fault's send, which _transfer records with or
    # without its delivery, and a reply's, which return_to_faulter records
    # with its return (each read by the scan as "?").
    dispatcher = [f for f in found if f.startswith("pagersim.fault_dispatch ")]
    assert len(dispatcher) == 10, dispatcher
    assert transfer_steps(EventKind.SUSPEND) == [
        "send", "send+deliver", "send+deliver+switch",
    ]
    assert transfer_steps(EventKind.RESUME) == []
    assert return_steps(EventKind.SUSPEND) == []
    assert return_steps(EventKind.RESUME) == ["reply", "reply+switch"]
    assert "pagersim.fault_dispatch step: ? (in _transfer)" in dispatcher
    assert "pagersim.fault_dispatch step: ? (in return_to_faulter)" in dispatcher

    # A pager goes back to its receive loop once per reply or reflection
    # it sends: once per fault under l4-single and proposed, twice under
    # l4re.
    class Returns(dict):
        count = 0

        def __setitem__(self, tid, state):
            if state is ThreadState.BLOCKED_ON_RECEIVE:
                Returns.count += 1
            super().__setitem__(tid, state)

    sf = parse_scenario(fixture_scn("workload50"))
    returns = {}
    for scheme in ALL_SCHEMES:
        sim = Simulator(sf, scheme)
        sim.machine.state = Returns(sim.machine.state)
        Returns.count = 0
        res = sim.run()
        returns[scheme] = Returns.count
        syscalls = sum(
            kind is EventKind.IPC_SEND and args[2] in ("REPLY", "REFLECTION")
            for kind, args in zip(res.trace.kinds, res.trace.args)
        )
        assert returns[scheme] == syscalls, scheme
    assert returns == {
        Scheme.MONOLITHIC: 0,
        Scheme.L4_SINGLE: 50,
        Scheme.REGION_DISPATCH: 50,
        Scheme.L4RE: 100,
    }


def occupant_writes(module) -> list[str]:
    """``module function`` for each store into an ``occupant`` attribute,
    a tuple target's element among them, and each ``setattr`` of one, in
    the source of ``module``."""
    found = []
    for function, node in nodes_in(module):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = list(getattr(node, "targets", None) or [node.target])
            for t in list(targets):
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets += t.elts
            hit = any(
                isinstance(t, ast.Attribute) and t.attr == "occupant"
                for t in targets
            )
        else:
            hit = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) == "occupant"
            )
        if hit:
            found.append(f"{module.__name__} {function}")
    return found


def test_only_switch_to_and_the_hand_offs_write_the_occupant():
    # The scheduler's switch_to makes scripted switches and yields; the
    # fault protocol's two hand-offs write the occupant themselves, right
    # after the state write that readies the thread.  The hand-off to a
    # message's receiver is one helper, _transfer, which deliver and a send
    # to a waiting receiver share; the hand-off to a faulter is
    # return_to_faulter, which a reply shares.
    found = sorted(f for module in package_modules() for f in occupant_writes(module))
    assert found == [
        "pagersim.engine __init__",
        "pagersim.engine switch_to",
        "pagersim.fault_dispatch _transfer",
        "pagersim.fault_dispatch return_to_faulter",
    ]


def check_each_switch(machine) -> Counter:
    """Make ``machine``'s trace assert, after each step or scripted switch
    that records a ``CONTEXT_SWITCH``, that the thread switched to holds
    the CPU and is READY; the returned counter counts the switches checked
    by how they were recorded."""
    trace, checked = machine.trace, Counter()
    record, append = trace.record, trace.append

    def check(how, args):
        new = args[1]
        assert machine.occupant == new, (how, args)
        assert machine.state[new] is ThreadState.READY, (how, args)
        checked[how] += 1

    def checked_record(step, args, cycle):
        record(step, args, cycle)
        for kind, a in zip(step[0], args):
            if kind is EventKind.CONTEXT_SWITCH:
                check("step", a)

    def checked_append(kind, args=()):
        append(kind, args)
        if kind is EventKind.CONTEXT_SWITCH:
            check("scripted", args)

    trace.record, trace.append = checked_record, checked_append
    return checked


# Seeded scripts of two pagers that serve each other's spaces.
MUTUAL_PAGERS = 200


def test_every_context_switch_hands_the_cpu_to_a_ready_thread():
    # Over the fixtures, the seeded schedules, the self-serving pager's
    # scripts and the seeded scripts of two pagers that serve each other,
    # under every scheme that fits each: a run that stops (l4re at a
    # manual pager-step, a pager stepped with a held fault) is checked up
    # to where it stops.  The hand-offs do not check the thread they hand
    # the CPU to; the pagers' faults are what could make it unable to run.
    texts = [fixture_scn(name) for name in FIXTURES]
    texts += [schedule(seed) for seed in range(SCENARIOS)]
    texts += [SELF_PAGER + script for script in SELF_PAGER_SCRIPTS.values()]
    texts += [mutual_pagers(seed) for seed in range(MUTUAL_PAGERS)]
    checked, runs = Counter(), 0
    for text in texts:
        sf = parse_scenario(text)
        for scheme in ALL_SCHEMES:
            try:
                sim = Simulator(sf, scheme)
            except SchemeMismatchError:
                continue
            counts = check_each_switch(sim.machine)
            try:
                sim.run()
            except SimulationError:
                pass
            checked += counts
            runs += 1
    assert runs >= len(FIXTURES) + 2 * (SCENARIOS + MUTUAL_PAGERS)
    assert checked["step"] > 1000 and checked["scripted"] > 100, checked


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
    # Twice: a tuple that nests another is untracked only by the second
    # collection that sees it.  After one, such tuples are left for the
    # parse's own collections to untrack, and the count moves with when
    # those fall (by up to 10 objects on Python 3.10).
    gc.collect()
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


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_translate_hit_calls_stay_within_budget(scheme):
    assert calls_per_hit(scheme) <= CALLS_PER_HIT_BUDGET


def test_rendering_makes_no_call_per_event():
    trace = simulate(Scheme.L4RE, parse_scenario(FAULT_STREAM)).trace
    text, calls, _ = python_calls(trace.to_text)
    assert text.count("\n") == len(trace) >= 10_000
    assert calls / len(trace) <= RENDER_CALLS_PER_EVENT_BUDGET


def prefix(trace: Trace, events: int) -> Trace:
    """A new trace holding the first ``events`` events of ``trace``, with
    as many cycles opened."""
    out = opened(Trace(), len(trace.cycle_counts))
    for ev in trace[:events]:
        out.record(step(ev.kind), (ev.args,), ev.cycle)  # one-event steps
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
