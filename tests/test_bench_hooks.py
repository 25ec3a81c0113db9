"""Guard on the names the benchmark's tracer patches.

``bench/tracer.py`` wraps pagersim entry points by name for one
``cli.main`` call.  Renaming one of them breaks the traced benchmark run;
this test makes such a rename fail here instead.  The bench modules are
loaded by path and left unedited.
"""

import re

import pagersim.cli
from pagersim import ALL_SCHEMES, parse_scenario
from pagersim.scenario import AccessItem
from support import load_bench_module


def traced_cli_run(tmp_path, name: str):
    """Run ``cli.main`` under the bench tracer on a generated workload at
    scale 0.02; returns the workload, the exit code and the tracer."""
    tracer_mod = load_bench_module("tracer")
    workloads = load_bench_module("workloads")
    w = workloads.generate(name, 5, 0.02)
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(w.text)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        rc = pagersim.cli.main([
            "--scenario", str(scenario), "--check", "--verify-equivalence",
            "--report", "table", "--trace", str(tmp_path / "cli.trace"),
        ])
    return w, rc, tracer


def test_traced_cli_run_on_fault_stream(tmp_path, capsys):
    w, rc, tracer = traced_cli_run(tmp_path, "fault-stream")
    out = capsys.readouterr().out
    expectations = len(parse_scenario(w.text).expectations)
    assert rc == 0
    assert f"check: {expectations} expectation line(s), 0 failure(s)" in out
    assert "equivalence: ok" in out
    assert tracer.calls["schemes.run"] == len(ALL_SCHEMES)
    # The benchmark's trace.events counts wrapped appends; every event the
    # runs recorded went through Trace.append.
    events = sum(map(int, re.findall(r" events=(\d+) ", out)))
    assert events > 0
    assert tracer.calls["trace.append"] == events


def test_traced_wide_spaces_run_allocates_no_region_slots(tmp_path, capsys):
    # The tracer counts ``RegionTable._slots`` after each AddressSpace is
    # built and falls back to ``region_count`` per space if that attribute
    # is gone, so a rename shows up here as a non-zero count.
    w, rc, tracer = traced_cli_run(tmp_path, "wide-spaces")
    out = capsys.readouterr().out
    assert rc == 0
    assert "equivalence: ok" in out
    # Each of the four set-ups builds a space only for a thread that
    # accesses memory.
    sf = parse_scenario(w.text)
    asid = {t.name: t.asid for t in sf.threads}
    faulting = {asid[i.thread] for i in sf.script if isinstance(i, AccessItem)}
    assert 0 < len(faulting) < w.spaces
    assert tracer.calls["address_space.init"] == len(ALL_SCHEMES) * len(faulting)
    assert tracer.counts["address_space.region_slots"] == 0


def test_traced_hot_mix_run_counts_translate_hits(tmp_path, capsys):
    # The hit-ratio hook counts each int that ``translate`` returns; a
    # change to what ``translate`` reads or returns shows up here as no hits.
    w, rc, tracer = traced_cli_run(tmp_path, "hot-mix")
    out = capsys.readouterr().out
    assert rc == 0
    assert "equivalence: ok" in out
    hits = tracer.counts["mmu.translate.hits"]
    assert 0 < hits < tracer.calls["mmu.translate"]
