"""Guard on the names the benchmark's tracer patches.

``bench/tracer.py`` wraps pagersim entry points by name for one
``cli.main`` call.  Renaming one of them breaks the traced benchmark run;
this test makes such a rename fail here instead.  The bench modules are
loaded by path and left unedited.
"""

import importlib.util
import sys
from pathlib import Path

import pagersim.cli
from pagersim import ALL_SCHEMES, parse_scenario

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_cli_run_on_fault_stream(tmp_path, capsys):
    tracer_mod = load_bench_module("tracer")
    workloads = load_bench_module("workloads")
    w = workloads.generate("fault-stream", 5, 0.02)
    scenario = tmp_path / "fault-stream.scn"
    scenario.write_text(w.text)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        rc = pagersim.cli.main([
            "--scenario", str(scenario), "--check", "--verify-equivalence",
            "--report", "table", "--trace", str(tmp_path / "cli.trace"),
        ])
    out = capsys.readouterr().out
    expectations = len(parse_scenario(w.text).expectations)
    assert rc == 0
    assert f"check: {expectations} expectation line(s), 0 failure(s)" in out
    assert "equivalence: ok" in out
    assert tracer.calls["schemes.run"] == len(ALL_SCHEMES)
