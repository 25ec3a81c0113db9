import pytest

from pagersim import ALL_SCHEMES, Simulator, cli, overhead_report, parse_scenario
from mutants import FIXTURES, mutant
from support import fixture_scn


@pytest.fixture
def scn(tmp_path):
    path = tmp_path / "case.scn"
    path.write_text(fixture_scn("table1"))
    return path


def test_single_scheme_run(scn, capsys):
    rc = cli.main(["--scenario", str(scn), "--scheme", "proposed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "proposed: faults=1 events=13 warnings=0" in out


def test_all_schemes_run_in_report_order(scn, capsys):
    rc = cli.main(["--scenario", str(scn)])
    out = capsys.readouterr().out
    assert rc == 0
    tokens = [line.split(":")[0] for line in out.splitlines() if "faults=" in line]
    assert tokens == ["monolithic", "l4-single", "proposed", "l4re"]


def test_trace_file_single_scheme(scn, tmp_path, capsys):
    target = tmp_path / "out.trace"
    rc = cli.main(
        ["--scenario", str(scn), "--scheme", "monolithic", "--trace", str(target)]
    )
    assert rc == 0
    assert "trace written to" in capsys.readouterr().out
    body = target.read_text()
    assert body.startswith("0 MODE_SWITCH_U2K cycle=0\n")
    assert body.endswith("3 MODE_SWITCH_K2U cycle=0\n")


def test_trace_files_fan_out_per_scheme(scn, tmp_path):
    target = tmp_path / "out.trace"
    rc = cli.main(["--scenario", str(scn), "--trace", str(target)])
    assert rc == 0
    for token in ("monolithic", "l4-single", "proposed", "l4re"):
        assert (tmp_path / f"out.{token}.trace").exists()
    assert not target.exists()


def test_trace_files_without_a_suffix_get_the_scheme_appended(scn, tmp_path):
    target = tmp_path / "out"
    rc = cli.main(["--scenario", str(scn), "--scheme", "all", "--trace", str(target)])
    assert rc == 0
    for token in ("monolithic", "l4-single", "proposed", "l4re"):
        assert (tmp_path / f"out.{token}").read_text().startswith("0 ")
    assert not target.exists()


def test_check_pass_and_fail(scn, tmp_path, capsys):
    assert cli.main(["--scenario", str(scn), "--check"]) == 0
    out = capsys.readouterr().out
    assert "check: 4 expectation line(s), 0 failure(s)" in out

    bad = tmp_path / "bad.scn"
    bad.write_text(
        fixture_scn("table1")
        + "expect scheme=proposed fault=0 verdict=NO_PAGER\n"
    )
    assert cli.main(["--scenario", str(bad), "--check"]) == 1
    out = capsys.readouterr().out
    assert "failure(s)" in out
    assert "expected NO_PAGER" in out


def test_check_skips_an_expect_line_for_a_scheme_that_did_not_run(
    tmp_path, capsys
):
    path = tmp_path / "l4re-off.scn"
    text = fixture_scn("table1")
    wrong = text.replace("scheme=l4re       mode=6", "scheme=l4re       mode=5")
    assert wrong != text
    path.write_text(wrong)
    rc = cli.main(["--scenario", str(path), "--scheme", "proposed", "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check: 4 expectation line(s), 0 failure(s)" in out.splitlines()

    rc = cli.main(["--scenario", str(path), "--check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "check: [l4re] fault 0: mode_switches=6, expected 5" in out.splitlines()


def test_undispatched_held_fault_fails_its_check(tmp_path, capsys):
    path = tmp_path / "held.scn"
    path.write_text(
        "".join(
            line for line in fixture_scn("classify").splitlines(keepends=True)
            if not line.startswith("dispatch E")
        )
    )
    rc = cli.main(["--scenario", str(path), "--check"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    assert (
        "check: [proposed] fault 5: verdict none (fault held, never "
        "dispatched), expected RESUMED_PRESENT" in captured.out
    )


def test_warnings_are_printed_in_full(tmp_path, capsys):
    path = tmp_path / "unbacked.scn"
    path.write_text(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=fixed\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "proposed"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines == [
        "proposed: faults=1 events=7 warnings=1",
        "proposed: warning: fixed-backing pager has no frame for page 0; "
        "fault of thread 1 left unanswered",
    ]


def test_verify_equivalence_ok(scn, capsys):
    rc = cli.main(["--scenario", str(scn), "--verify-equivalence"])
    assert rc == 0
    assert "equivalence: ok" in capsys.readouterr().out


def test_equivalence_problems_are_printed_and_exit_1(scn, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "verify_equivalence", lambda results: ["first wrong", "second wrong"]
    )
    rc = cli.main(["--scenario", str(scn), "--verify-equivalence"])
    assert rc == 1
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("equivalence:")
    ]
    assert lines == [
        "equivalence: first wrong",
        "equivalence: second wrong",
        "equivalence: 2 problem(s)",
    ]


def test_report_table(scn, capsys):
    rc = cli.main(["--scenario", str(scn), "--report", "table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme" in out and "mode_switches" in out
    assert "reduction l4re->proposed:" in out


def test_report_kv(scn, capsys):
    rc = cli.main(["--scenario", str(scn), "--report", "kv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=l4re" in out
    assert "reduction_mode_switches=1/3" in out
    assert "reduction_context_switches=1/3" in out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["--scenario", str(tmp_path / "nope.scn")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "utf16.scn"
    path.write_bytes(b"\xff\xfe" + "access T 0x0 read\n".encode("utf-16-le"))
    rc = cli.main(["--scenario", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read scenario: ")
    assert len(captured.err.splitlines()) == 1


def test_scenario_error_is_reported(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("thread T tid=0 asid=1 role=applicant\n")
    rc = cli.main(["--scenario", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_scheme_mismatch_is_reported(tmp_path, capsys):
    path = tmp_path / "mismatch.scn"
    path.write_text(
        "layout regions=8 pages_per_region=4 page_size=4096\n"
        "option mode=manual\n"
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x0 read\n"
        "pager-step P\n"
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "monolithic"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_scheme_rejected_by_argparse(scn):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", str(scn), "--scheme", "mach"])
    assert exc.value.code == 2


def test_invalid_layout_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "layout.scn"
    path.write_text("layout regions=0\n")
    rc = cli.main(["--scenario", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line 1:")


def test_negative_expect_fault_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "negative.scn"
    path.write_text(
        fixture_scn("table1") + "expect fault=-1 verdict=DISPATCHED mode=2\n"
    )
    rc = cli.main(["--scenario", str(path), "--check"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_trace_path_is_an_error(scn, tmp_path, capsys):
    target = tmp_path / "missing" / "out.trace"
    rc = cli.main(["--scenario", str(scn), "--trace", str(target)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot write trace:")


def test_each_scheme_is_simulated_once(scn, monkeypatch, capsys):
    runs = []
    original = Simulator.run

    def counting_run(self):
        runs.append(self.scheme)
        return original(self)

    monkeypatch.setattr(Simulator, "run", counting_run)
    rc = cli.main(
        ["--scenario", str(scn), "--check", "--verify-equivalence",
         "--report", "table"]
    )
    assert rc == 0
    assert runs == list(ALL_SCHEMES)


@pytest.mark.parametrize("name", ["table1", "classify", "workload50"])
def test_report_equals_overhead_report(name, tmp_path, capsys):
    path = tmp_path / f"{name}.scn"
    path.write_text(fixture_scn(name))
    for style in ("table", "kv"):
        assert cli.main(["--scenario", str(path), "--report", style]) == 0
        report = overhead_report(parse_scenario(fixture_scn(name)))
        want = report.as_table() if style == "table" else report.as_kv()
        assert capsys.readouterr().out.endswith(want)


def test_access_by_a_thread_with_a_held_fault_is_an_error(tmp_path, capsys):
    path = tmp_path / "held_twice.scn"
    path.write_text(
        "thread A tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access A 0x1000 read hold\n"
        "access A 0x2000 read\n"
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "proposed"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: thread 'A' has a held fault; dispatch it first\n"
    )


@pytest.mark.parametrize(
    "policy, script, error",
    [
        ("anonymous", "access P 0x1000 read\n",
         "thread 'P' (tid 2) is blocked_on_receive, cannot run"),
        ("rejecting", "access T 0x1000 read\naccess T 0x2000 read\n",
         "thread 'T' (tid 1) is suspended, cannot run"),
    ],
    ids=["access-by-a-pager", "access-after-a-rejected-fault"],
)
def test_an_unschedulable_thread_is_named(
    policy, script, error, tmp_path, capsys
):
    path = tmp_path / "unschedulable.scn"
    path.write_text(
        "thread T tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        f"pager P policy={policy}\n"
        "assign asid=1 rid=0 pager=P\n" + script
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "proposed"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {error}\n"


def test_a_reflection_to_a_thread_without_a_pager_line_is_an_error(
    tmp_path, capsys
):
    # B is an applicant that never had a message, so it has no mailbox
    # until the region mapper's reflection makes one.
    path = tmp_path / "reflect_to_applicant.scn"
    path.write_text(
        "thread A tid=1 asid=1 role=applicant\n"
        "thread P tid=2 asid=2 role=pager\n"
        "thread B tid=3 asid=1 role=applicant\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "dbrange asid=1 start=0x0 end=0x400000 target=B\n"
        "access A 0x1000 read\n"
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "l4re"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: thread 3 received a fault but has no pager behavior\n"
    )


def deep_queue(applicants: int) -> str:
    """``applicants`` threads fault once each, on distinct pages of one
    region, while its fixed pager waits for a pager-step; only page 0 has
    backing, so every later fault leaves the pager no action."""
    lines = [
        "layout regions=8 pages_per_region=1024 page_size=4096",
        "option mode=manual",
        f"thread P tid={applicants + 1} asid=2 role=pager",
        "pager P policy=fixed",
        "backing P vaddr=0x0 frame=7",
        "assign asid=1 rid=0 pager=P",
    ]
    lines += [
        f"thread T{i} tid={i + 1} asid=1 role=applicant"
        for i in range(applicants)
    ]
    lines += [f"access T{i} {i * 4096:#x} read" for i in range(applicants)]
    lines.append("pager-step P 2")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scheme", ["l4-single", "proposed"])
def test_a_deep_mailbox_is_served_without_recursion(scheme, tmp_path, capsys):
    # The step answers the first fault; the pager is then handed the 999
    # queued ones in turn, each left unanswered with a warning.
    path = tmp_path / "deep.scn"
    path.write_text(deep_queue(1000))
    rc = cli.main(["--scenario", str(path), "--scheme", scheme])
    first = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    assert first.startswith(f"{scheme}: faults=1000 ")
    assert first.endswith(" warnings=999")


CLI_FUZZ_MUTANTS = 84  # per fixture: about 500 in all


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_scenarios_keep_the_exit_code_contract(name, tmp_path, capsys):
    base = fixture_scn(name)
    path = tmp_path / "mutant.scn"
    for index in range(CLI_FUZZ_MUTANTS):
        path.write_text(mutant(base, f"cli:{name}:{index}"))
        rc = cli.main([
            "--scenario", str(path), "--check", "--verify-equivalence",
            "--report", "kv",
        ])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (index, path.read_text())
        for line in err.splitlines():
            assert line.startswith("error: "), (index, line, path.read_text())
