"""Counting span tracer wrapped around pagersim's public entry points.

The benchmark's traced run installs a wrapper on each entry point listed in
``ENTRY_POINTS`` for the duration of one ``cli.main`` call.  Every call
becomes a span (id, parent id, name, start, end) whose self time - its
duration minus the time its child spans cover - is summed per name.  Some
wrappers also add to a named counter, from the call's arguments or result.
Spans of the first traced call can be kept in memory and written out when
the benchmark ends.  Nothing in pagersim is edited: wrappers replace class
attributes and module globals and are removed again afterwards.
"""

import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _slots_allocated(counts, args, _result):
    # Slots the region table holds right after construction.
    regions = args[0].regions
    counts["address_space.region_slots"] += len(
        getattr(regions, "_slots", range(regions.region_count))
    )


def _translate_hit(counts, _args, result):
    if isinstance(result, int):
        counts["mmu.translate.hits"] += 1


def _events_scanned(counts, args, _result):
    counts["trace.of_cycle.events_scanned"] += len(args[0])


def _render_bytes(counts, _args, result):
    counts["trace.render_bytes"] += len(result.encode())


# (module, attribute path, span name, counter hook).  A dotted path names a
# method, patched on its class; a plain name is a module-level function,
# patched in every pagersim module that imported it.
ENTRY_POINTS = (
    ("pagersim.cli", "main", "cli.main", None),
    ("pagersim.scenario", "parse_scenario", "scenario.parse", None),
    ("pagersim.address_space", "AddressSpace.__init__", "address_space.init",
     _slots_allocated),
    ("pagersim.address_space", "RegionTable.lookup", "address_space.lookup", None),
    ("pagersim.schemes", "Simulator.__init__", "schemes.setup", None),
    ("pagersim.schemes", "Simulator.run", "schemes.run", None),
    ("pagersim.schemes", "cycle_metrics", "schemes.cycle_metrics", None),
    ("pagersim.schemes", "check_expectations", "schemes.check", None),
    ("pagersim.schemes", "verify_equivalence", "schemes.verify", None),
    ("pagersim.schemes", "overhead_report", "schemes.report", None),
    ("pagersim.mmu", "translate", "mmu.translate", _translate_hit),
    ("pagersim.fault_dispatch", "classify", "fault_dispatch.classify", None),
    ("pagersim.engine", "Machine.switch_to", "engine.switch_to", None),
    ("pagersim.engine", "Machine.send", "engine.send", None),
    ("pagersim.pagers", "PagerBehavior.on_page_fault", "pagers.on_page_fault", None),
    ("pagersim.pagers", "FrameAllocator.allocate", "pagers.allocate", None),
    ("pagersim.pagers", "MappingDatabase.lookup", "pagers.db_lookup", None),
    ("pagersim.trace", "Trace.append", "trace.append", None),
    ("pagersim.trace", "Trace.of_cycle", "trace.of_cycle", _events_scanned),
    ("pagersim.trace", "Trace.to_text", "trace.render", _render_bytes),
)


class Tracer:
    """Span recorder.  ``self_s`` and ``calls`` are keyed by span name;
    ``counts`` holds the hook counters.  Set ``spans`` to a list to keep
    every span as ``(id, parent, name, start, end)``."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] | None = None
        self._child_s: list[float] = []  # child time of each open span
        self._current = 0  # id of the innermost open span, 0 at top level
        self._next_id = 0

    def wrap(self, name: str, fn, hook=None):
        perf = time.perf_counter
        child_s = self._child_s

        def traced(*args, **kwargs):
            self._next_id += 1
            sid, parent = self._next_id, self._current
            self._current = sid
            child_s.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                self.self_s[name] += dur - child_s.pop()
                self.calls[name] += 1
                if child_s:
                    child_s[-1] += dur
                self._current = parent
                if self.spans is not None:
                    self.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        try:
            for module_name, path, name, hook in ENTRY_POINTS:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
                    continue
                original = getattr(module, path)
                traced = self.wrap(name, original, hook)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("pagersim")
                            and getattr(mod, path, None) is original):
                        undo.append((mod, path, original))
                        setattr(mod, path, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write the kept spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, t0, t1 in self.spans or ():
                out.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
