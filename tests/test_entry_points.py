"""Smoke test of what runs only as a program: the demos, whose stdout must
equal its golden under ``tests/golden/demos/``, ``python -m pagersim`` and
``python -m pagersim.reproduce``, each in a fresh interpreter with ``src``
on the import path, and the README's library example."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from support import GOLDEN_DIR, fixture_scn, golden

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(
    *args: str, timeout: float = 60, text: bool = True
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=text, timeout=timeout,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    # A demo's stdout is pinned byte for byte; after an intended change,
    # regenerate its golden with
    #   PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.out
    proc = run(str(demo), text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN_DIR / "demos" / f"{demo.stem}.out").read_bytes()


def test_module_entry_point_checks_a_fixture():
    scn = SRC / "pagersim" / "fixtures" / "table1.scn"
    proc = run("-m", "pagersim", "--scenario", str(scn), "--check")
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_reports_a_missing_file(tmp_path):
    proc = run("-m", "pagersim", "--scenario", str(tmp_path / "missing.scn"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize("arg", ["-v", "--bogus"])
def test_reproduce_takes_no_arguments(arg):
    proc = run("-m", "pagersim.reproduce", arg, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: python -m pagersim.reproduce\n")
    assert proc.stdout == ""  # not one claim ran


# Reflection loops under l4re.  A reflection forwards the fault unchanged,
# so a loop would run (and grow the trace) forever; the run must stop with
# an error instead.  The timeout turns a hang into a failure.
REFLECTION_LOOPS = {
    "self": (
        "pager R policy=reflecting\n"
        "dbrange pager=R start=0x0 end=0x10000 target=R\n"
        "dbrange asid=1 start=0x0 end=0x10000 target=R\n",
        "error: reflection loop: pager 'R' would reflect fault 0 (thread 'T' "
        "at 0x1000) to 'R', which the fault already reached\n",
    ),
    "pair": (
        "pager R policy=reflecting\n"
        "pager Q policy=reflecting\n"
        "dbrange pager=R start=0x0 end=0x10000 target=Q\n"
        "dbrange pager=Q start=0x0 end=0x10000 target=R\n"
        "dbrange asid=1 start=0x0 end=0x10000 target=R\n",
        "error: reflection loop: pager 'Q' would reflect fault 0 (thread 'T' "
        "at 0x1000) to 'R', which the fault already reached\n",
    ),
}


@pytest.mark.parametrize("shape", REFLECTION_LOOPS)
def test_reflection_loop_is_a_simulation_error(shape, tmp_path):
    pagers, error = REFLECTION_LOOPS[shape]
    scn = tmp_path / "loop.scn"
    scn.write_text(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread R tid=2 asid=2 role=pager\n"
        "thread Q tid=3 asid=2 role=pager\n"
        + pagers
        + "assign asid=1 rid=0 pager=R\n"
        "access T 0x1000 read\n"
    )
    proc = run(
        "-m", "pagersim", "--scenario", str(scn), "--scheme", "l4re",
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr == error


def readme_block(heading: str) -> str:
    """The first Python block under a ``## heading`` of README.md."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n")[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # Run as written, with table1 as its case.scn, so that an API the
    # example shows cannot be deleted while the README still uses it.
    (tmp_path / "case.scn").write_text(fixture_scn("table1"))
    monkeypatch.chdir(tmp_path)
    exec(readme_block("Library use"), {})
    assert capsys.readouterr().out == (
        golden("table1.proposed.trace") + "\n"
        "CycleMetrics(mode_switches=4, context_switches=2, ipc_messages=2,"
        " pager_invocations=1)\n"
    )
