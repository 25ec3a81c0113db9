#!/usr/bin/env python3
"""pagersim benchmark: end-to-end timings and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fault-stream --seed 1 --seconds 30 --trace 0

The workload's scenario is generated from ``--seed`` (see workloads.py) and
handed to pagersim as text only.  The run repeats its measurements until
``--seconds`` have passed (at least three repetitions) and reports medians
of host times rescaled by a calibration kernel (see ``Clock``).  With
``--trace 0`` it times each public stage separately and the whole
``cli.main --check --verify-equivalence --report table --trace`` command;
with ``--trace 1`` it times ``cli.main`` with every public entry point
wrapped by the span tracer (tracer.py), alternating with untraced calls
that give the tracing overhead.  Every run checks that the program's
outputs are correct.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count correctness checks.

``--write-golden`` records the per-scheme totals and trace digests of each
workload's seed-0 scenario in golden.json; every run compares against them.
Only rerun it for a change that is meant to alter what is simulated.

Single process, single thread, standard library only.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0
MIN_REPS = 3
# A stage that can be repeated is, within one repetition, until its calls
# add up to SHORT_S seconds or SHORT_N calls.
SHORT_S = 0.15
SHORT_N = 8

sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer  # noqa: E402
from workloads import SCHEMES, WORKLOADS, generate  # noqa: E402

# End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {
    "cli_s": "s",
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "verify_s": "s",
    "report_s": "s",
    "render_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run.  Self times: metric -> span name.
LAYER_TIMES = {
    "cli.self_s": "cli.main",
    "scenario.parse_s": "scenario.parse",
    "address_space.init_s": "address_space.init",
    "address_space.lookup_s": "address_space.lookup",
    "schemes.setup_s": "schemes.setup",
    "schemes.run_s": "schemes.run",
    "schemes.check_s": "schemes.check",
    "schemes.verify_s": "schemes.verify",
    "schemes.cycle_metrics_s": "schemes.cycle_metrics",
    "schemes.report_s": "schemes.report",
    "trace.append_s": "trace.append",
    "trace.of_cycle_s": "trace.of_cycle",
    "trace.render_s": "trace.render",
    "engine.switch_s": "engine.switch_to",
    "fault_dispatch.classify_s": "fault_dispatch.classify",
    "mmu.translate_s": "mmu.translate",
    "pagers.on_page_fault_s": "pagers.on_page_fault",
}
# Call counts per cli.main: metric -> span name.
LAYER_CALLS = {
    "address_space.region_lookups": "address_space.lookup",
    "schemes.simulations": "schemes.run",
    "schemes.cycle_metrics.calls": "schemes.cycle_metrics",
    "trace.events": "trace.append",
    "trace.of_cycle.calls": "trace.of_cycle",
    "engine.switch_to.calls": "engine.switch_to",
    "engine.send.calls": "engine.send",
    "mmu.translate.calls": "mmu.translate",
    "pagers.frames_allocated": "pagers.allocate",
    "pagers.db_lookups": "pagers.db_lookup",
}
# Counters kept by the tracer's hooks, per cli.main.
LAYER_HOOKS = {
    "address_space.region_slots": "count",
    "trace.of_cycle.events_scanned": "count",
    "trace.render_bytes": "bytes",
}
VERDICTS = ("KERNEL_RANGE", "NO_PAGER", "NOT_ACCEPTED", "RESUMED_PRESENT",
            "DISPATCHED")
SIM_STATS = ("mode_switches", "context_switches", "ipc_messages",
             "pager_invocations")


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"scenario.lines": "count"}
    units.update({m: "s" for m in LAYER_TIMES})
    units.update({m: "count" for m in LAYER_CALLS})
    units.update(LAYER_HOOKS)
    units["mmu.hit_ratio"] = "ratio"
    units.update({f"fault_dispatch.cycles.{v}": "count" for v in VERDICTS})
    units.update({
        f"sim.{token}.{stat}": "count"
        for token in SCHEMES for stat in SIM_STATS
    })
    units["bench.cli_untraced_s"] = "s"
    units["bench.cli_traced_s"] = "s"
    units["bench.tracing_overhead_ratio"] = "ratio"
    return units


def load_pagersim():
    """Import pagersim from this checkout's sources, never from elsewhere."""
    if not (SRC / "pagersim" / "__init__.py").is_file():
        sys.exit(f"bench: no pagersim sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import pagersim
    import pagersim.cli

    if Path(pagersim.__file__).resolve().parent != SRC / "pagersim":
        sys.exit(f"bench: imported pagersim from {pagersim.__file__}, not {SRC}")
    return pagersim


class Checks:
    """Correctness checks of one run: attempted count and failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class _Kind(Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class _Event:
    seq: int
    kind: _Kind
    args: tuple
    cycle: int | None = None

    def render(self) -> str:
        parts = [str(self.seq), self.kind.value]
        parts.extend(str(a) for a in self.args)
        if self.cycle is not None:
            parts.append(f"cycle={self.cycle}")
        return " ".join(parts)


def calibration_kernel() -> int:
    """Fixed pure-Python work that shares no code with pagersim but is made
    of the same kinds of operation: integer arithmetic, frozen-dataclass
    allocation, attribute scans and string formatting."""
    x = 0
    for i in range(130_000):
        x += i * i % 7
    kinds = tuple(_Kind)
    events = [
        _Event(i, kinds[i % 3], (f"x={i:#x}", i & 7), i >> 3)
        for i in range(6_000)
    ]
    for c in range(0, 750, 75):
        x += sum(1 for e in events if e.cycle == c and e.kind is _Kind.A)
    items = [(i, i & 15) for i in range(30_000)]
    x += len([it for it in items if it[1] == 3])
    x += len("".join(f"{i} k={k}\n" for i, k in items[:8_000]))
    return x + len("".join(e.render() + "\n" for e in events[:3_000]))


class Clock:
    """Times stages on a shared host whose speed drifts.

    Host slowdowns last from under a second to minutes and can stretch a
    stage by half, so raw medians of two runs disagree.  Each timed call is
    therefore bracketed by two runs of ``calibration_kernel``, after a full
    garbage collection, and its time is rescaled to a host on which the
    kernel takes ``CALIBRATION_S``.  A change to pagersim moves the scaled
    time as it moves the raw one; a change in host speed moves the kernel
    too and largely cancels.
    """

    CALIBRATION_S = 0.04

    def __init__(self) -> None:
        self.raw: defaultdict[str, list[float]] = defaultdict(list)
        self.scaled: defaultdict[str, list[float]] = defaultdict(list)

    def timed(self, name: str, fn, min_s: float = 0.0, max_n: int = 1):
        """Call ``fn`` until the calls add up to ``min_s`` raw seconds or
        ``max_n`` calls, recording each call's raw and rescaled time under
        ``name``; repeating short stages gives their median as many samples
        as a long stage gets.  Returns ``(last result, scale)``, where
        ``scale`` converts raw seconds measured meanwhile into rescaled
        ones."""
        gc.collect()
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        raw = []
        while True:
            start = time.perf_counter()
            result = fn()
            raw.append(time.perf_counter() - start)
            if sum(raw) >= min_s or len(raw) >= max_n:
                break
        t2 = time.perf_counter()
        calibration_kernel()
        t3 = time.perf_counter()
        scale = 2 * self.CALIBRATION_S / ((t1 - t0) + (t3 - t2))
        self.raw[name].extend(raw)
        self.scaled[name].extend(r * scale for r in raw)
        return result, scale

    def median(self, name: str) -> float:
        return statistics.median(self.scaled[name])


def golden_entry(ps, name: str) -> dict:
    """Per-scheme totals and trace digest of the workload's seed-0 scenario."""
    sf = ps.parse_scenario(generate(name, GOLDEN_SEED).text)
    entry = {}
    for scheme in ps.ALL_SCHEMES:
        res = ps.simulate(scheme, sf)
        totals = ps.totals_of(res)
        entry[scheme.value] = {stat: getattr(totals, stat) for stat in SIM_STATS}
        entry[scheme.value]["trace_sha256"] = hashlib.sha256(
            res.trace.to_text().encode()
        ).hexdigest()
    return entry


def run_static_checks(ps, w, checks: Checks) -> None:
    """Once per run: the parse/serialize round trip and the golden values."""
    sf = ps.parse_scenario(w.text)
    checks.expect(
        ps.parse_scenario(ps.serialize_scenario(sf)) == sf,
        "parse_scenario(serialize_scenario(sf)) differs from sf",
    )
    want = json.loads(GOLDEN.read_text())[w.name]
    got = golden_entry(ps, w.name)
    for token in SCHEMES:
        checks.expect(
            got.get(token) == want.get(token),
            f"seed {GOLDEN_SEED} {token}: {got.get(token)} differs from "
            f"golden {want.get(token)}",
        )


class CliRunner:
    """Runs the user's command on the workload, in a temporary directory
    under ``.bench_out``, and checks what it printed and wrote."""

    def __init__(self, ps, w, workdir: Path) -> None:
        self.ps = ps
        self.workdir = workdir
        scenario = workdir / f"{w.name}.scn"
        scenario.write_text(w.text)
        self.argv = [
            "--scenario", str(scenario), "--check", "--verify-equivalence",
            "--report", "table", "--trace", str(workdir / "cli.trace"),
        ]
        self.expectations = len(ps.parse_scenario(w.text).expectations)

    def __call__(self) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ps.cli.main(self.argv)
        return rc, buf.getvalue()

    def check(self, checks: Checks, rc: int, out: str, table: str | None,
              texts: dict[str, str] | None) -> None:
        checks.expect(rc == 0, f"cli.main exited {rc}")
        checks.expect(
            f"check: {self.expectations} expectation line(s), 0 failure(s)" in out
            and "equivalence: ok" in out,
            "cli output lacks a clean check or equivalence line",
        )
        if table is not None:
            checks.expect(out.endswith(table), "cli report differs from "
                          "overhead_report(...).as_table()")
        if texts is not None:
            for token, text in texts.items():
                written = (self.workdir / f"cli.{token}.trace").read_text()
                checks.expect(written == text,
                              f"cli trace for {token} differs from to_text()")


def run_stages(ps, w, clock: Clock, checks: Checks):
    """One untraced pass over the public stages; returns the report table
    and the rendered traces."""
    def setup():
        sf = ps.parse_scenario(w.text)
        return sf, [ps.Simulator(sf, s) for s in ps.ALL_SCHEMES]

    (sf, sims), _ = clock.timed("setup_s", setup, SHORT_S, SHORT_N)
    results, _ = clock.timed("run_s", lambda: {s.scheme.value: s.run() for s in sims})
    del sims
    (failures, problems), _ = clock.timed("verify_s", lambda: (
        ps.check_expectations(results, sf), ps.verify_equivalence(results)
    ), SHORT_S, SHORT_N)
    report, _ = clock.timed(
        "report_s", lambda: ps.overhead_report(sf), SHORT_S, SHORT_N
    )
    texts, _ = clock.timed(
        "render_s",
        lambda: {token: res.trace.to_text() for token, res in results.items()},
        SHORT_S, SHORT_N,
    )

    checks.expect(not failures, f"check_expectations: {failures[:3]}")
    checks.expect(not problems, f"verify_equivalence: {problems[:3]}")
    checks.expect(
        all(len(res.cycles) == w.faults for res in results.values()),
        f"fault counts differ from the generator's {w.faults}",
    )
    if w.exact_third:
        third = Fraction(1, 3)
        checks.expect(
            report.reduction_mode == third and report.reduction_ctx == third,
            f"reduction {report.reduction_mode}/{report.reduction_ctx}, "
            "expected exactly 1/3",
        )
    return report.as_table(), texts


def measure_end_to_end(ps, w, seconds: float, checks: Checks, cli) -> dict:
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while len(clock.raw["cli_s"]) < MIN_REPS or time.perf_counter() < deadline:
        table, texts = run_stages(ps, w, clock, checks)
        (rc, out), _ = clock.timed("cli_s", cli)
        cli.check(checks, rc, out, table, texts)
        del table, texts
    values = {name: clock.median(name) for name in END_TO_END if name in clock.raw}
    values["accesses_per_s"] = (
        w.accesses * len(ps.ALL_SCHEMES) / clock.median("run_s")
    )
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print_samples(clock)
    for name, unit in END_TO_END.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return values


def print_samples(clock: Clock) -> None:
    for name, raw in clock.raw.items():
        print(f"  {name}: {len(raw)} samples, median {clock.median(name):.6g} s "
              f"rescaled, {statistics.median(raw):.6g} s raw")


def result_counts(ps, w) -> dict:
    """Per-layer counts read off one untraced simulation of every scheme."""
    sf = ps.parse_scenario(w.text)
    results = {s.value: ps.simulate(s, sf) for s in ps.ALL_SCHEMES}
    verdicts = [c.verdict.value for c in results["proposed"].cycles]
    counts = {f"fault_dispatch.cycles.{v}": verdicts.count(v) for v in VERDICTS}
    for token, res in results.items():
        totals = ps.totals_of(res)
        for stat in SIM_STATS:
            counts[f"sim.{token}.{stat}"] = getattr(totals, stat)
    return counts


def _rep_counts(tracer: Tracer) -> dict:
    counts = {m: tracer.calls[span] for m, span in LAYER_CALLS.items()}
    counts.update({m: tracer.counts[m] for m in LAYER_HOOKS})
    counts["mmu.translate.hits"] = tracer.counts["mmu.translate.hits"]
    return counts


def measure_layers(ps, w, seconds: float, checks: Checks, cli) -> dict:
    clock = Clock()
    tracers, scales = [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_REPS or time.perf_counter() < deadline:
        tracer = Tracer()
        if not tracers:
            tracer.spans = []
        # Alternate which side goes first so drift hits both alike.
        for traced in ((False, True) if len(tracers) % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    (rc, out), scale = clock.timed("bench.cli_traced_s", cli)
                scales.append(scale)
            else:
                (rc, out), _ = clock.timed("bench.cli_untraced_s", cli)
            cli.check(checks, rc, out, None, None)
        tracers.append(tracer)

    first = _rep_counts(tracers[0])
    checks.expect(
        all(_rep_counts(t) == first for t in tracers[1:]),
        "per-layer counts differ between traced repetitions",
    )
    metrics = result_counts(ps, w)
    metrics["scenario.lines"] = len(w.text.splitlines())
    metrics.update(first)
    hits = metrics.pop("mmu.translate.hits")
    metrics["mmu.hit_ratio"] = hits / max(1, metrics["mmu.translate.calls"])
    for m, span in LAYER_TIMES.items():
        metrics[m] = statistics.median(
            t.self_s[span] * scale for t, scale in zip(tracers, scales)
        )
    for m in ("bench.cli_untraced_s", "bench.cli_traced_s"):
        metrics[m] = clock.median(m)
    metrics["bench.tracing_overhead_ratio"] = (
        metrics["bench.cli_traced_s"] / metrics["bench.cli_untraced_s"] - 1
    )
    print_samples(clock)
    spans_path = OUT_DIR / f"{w.name}.spans.tsv.gz"
    tracers[0].write_spans(spans_path)
    print(f"traced {len(tracers)} cli.main calls; spans of the first in "
          f"{spans_path.relative_to(ROOT)}")
    return metrics


def run_benchmark(ps, w, seconds: float, trace: int) -> dict:
    """Measure workload ``w`` and return the result object."""
    checks = Checks()
    run_static_checks(ps, w, checks)
    workdir = OUT_DIR / f"run-{w.name}-{w.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = CliRunner(ps, w, workdir)
        measure = measure_layers if trace else measure_end_to_end
        values = measure(ps, w, seconds, checks, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in checks.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    units = layer_units() if trace else END_TO_END
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden.json for every workload and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ps = load_pagersim()
    if args.write_golden:
        golden = {name: golden_entry(ps, name) for name in WORKLOADS}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    w = generate(args.workload, args.seed)
    print(f"workload {w.name} seed {w.seed}: {w.accesses} accesses, "
          f"{w.faults} faults, {w.spaces} spaces")
    print(json.dumps(run_benchmark(ps, w, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
