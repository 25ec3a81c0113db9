"""Smoke test of what runs only as a program: the demos and
``python -m pagersim``, each in a fresh interpreter with ``src`` on the
import path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = run(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_checks_a_fixture():
    scn = SRC / "pagersim" / "fixtures" / "table1.scn"
    proc = run("-m", "pagersim", "--scenario", str(scn), "--check")
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_reports_a_missing_file(tmp_path):
    proc = run("-m", "pagersim", "--scenario", str(tmp_path / "missing.scn"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:"), proc.stderr
