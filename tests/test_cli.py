import hashlib

import pytest

from pagersim import (
    ALL_SCHEMES,
    CountingTrace,
    Scheme,
    SemanticError,
    SimulationError,
    Simulator,
    Trace,
    cli,
    overhead_report,
    parse_scenario,
    simulate,
)
from pagersim.pagers import MappingDatabase
from mutants import FIXTURES, mutant
from support import SELF_PAGER, SELF_PAGER_SCRIPTS, fixture_scn, golden_digests


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
    assert out.splitlines()[-2:] == [
        "check: 4 expectation line(s), 0 failure(s)",
        "check: 3 expectation line(s) not checked: scheme did not run "
        "(l4-single, l4re, monolithic)",
    ]

    rc = cli.main(["--scenario", str(path), "--check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "check: [l4re] fault 0: mode_switches=6, expected 5" in out.splitlines()
    assert "not checked" not in out


def test_check_names_no_skipped_line_when_every_line_ran(tmp_path, capsys):
    # Unqualified expect lines apply to whatever scheme ran.
    path = tmp_path / "classify.scn"
    path.write_text(fixture_scn("classify"))
    rc = cli.main(["--scenario", str(path), "--scheme", "l4re", "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1].startswith("check: ")
    assert "not checked" not in out


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


def test_an_order_under_a_round_robin_schedule_is_refused(tmp_path, capsys):
    # The shuffle would replace the order, so the pair is an error, not a
    # silently dropped list.
    path = tmp_path / "order.scn"
    path.write_text(
        "option schedule=round-robin seed=3 order=B,A\n"
        "thread A tid=1 asid=1 role=applicant\n"
        "thread B tid=2 asid=1 role=applicant\n"
        "yield\n"
    )
    rc = cli.main(["--scenario", str(path), "--report", "kv"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: option order= needs schedule=deterministic, not round-robin\n"
    )


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


def test_seed_is_not_an_option(scn, capsys):
    # Only the scenario's "option seed=" seeds a round-robin schedule.
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "3", "--scenario", str(scn)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 3" in captured.err


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


def test_empty_trace_path_is_a_usage_error(scn, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", str(scn), "--scheme", "proposed", "--trace", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --trace: expected a file name, got ''" in captured.err
    assert list(tmp_path.iterdir()) == [scn]


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


def run_error(tmp_path, capsys, text: str, scheme: str) -> tuple[int, str]:
    """Exit code and standard error of one run of ``text`` under ``scheme``."""
    path = tmp_path / "run.scn"
    path.write_text(text)
    rc = cli.main(["--scenario", str(path), "--scheme", scheme])
    return rc, capsys.readouterr().err


def test_a_map_by_a_pager_that_does_not_manage_the_region_is_refused(
    tmp_path, capsys
):
    # Under l4-single the fault goes to T's pager, Q, and the region's
    # manager is P: the kernel refuses Q's map into the region that the
    # fault's classification resolved.
    text = (
        "thread T tid=1 asid=1 role=applicant pager=Q\n"
        "thread P tid=2 asid=2 role=pager\n"
        "thread Q tid=3 asid=2 role=pager\n"
        "pager P policy=anonymous\n"
        "pager Q policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x1000 read\n"
    )
    assert run_error(tmp_path, capsys, text, "l4-single") == (
        2, "error: thread 3 does not manage region 0 of space 1\n"
    )


@pytest.mark.parametrize("scheme", ["l4-single", "proposed"])
def test_a_map_into_a_region_revoked_while_its_fault_waited_is_refused(
    scheme, tmp_path, capsys
):
    # U's fault is dispatched while P still holds T's answer, whose revoke
    # then flips region 0 to REVOKED; P's map answering U is refused.
    text = (
        "option mode=manual\n"
        "thread T tid=1 asid=1 role=applicant pager=P\n"
        "thread U tid=2 asid=1 role=applicant pager=P\n"
        "thread P tid=3 asid=2 role=pager\n"
        "pager P policy=anonymous revoke_after=1\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x1000 read\n"
        "access U 0x2000 read\n"
        "pager-step P 3\n"
        "pager-step P 1\n"
    )
    assert run_error(tmp_path, capsys, text, scheme) == (
        2, "error: region 0 of space 1 was revoked; reassign before mapping\n"
    )


@pytest.mark.parametrize("script", [SELF_PAGER_SCRIPTS["reply"]], ids=["reply"])
@pytest.mark.parametrize("scheme", ["l4-single", "proposed"])
def test_a_hand_off_to_a_thread_that_cannot_run_is_refused(
    script, scheme, tmp_path, capsys
):
    # P's own fault parks it before its answer to T is carried out: its
    # first pager step is refused, before any hand-off of the CPU to P.
    assert run_error(tmp_path, capsys, SELF_PAGER + script, scheme) == (
        2, "error: thread 'P' (tid 2) is suspended, cannot run\n"
    )


@pytest.mark.parametrize(
    "script",
    [SELF_PAGER_SCRIPTS["delivery"], SELF_PAGER_SCRIPTS["return"]],
    ids=["delivery", "return"],
)
@pytest.mark.parametrize("scheme", ["l4-single", "proposed"])
def test_a_pager_with_a_held_fault_takes_no_step(script, scheme, tmp_path, capsys):
    # A thread that trapped makes no syscall until its fault is dispatched,
    # as it makes no access: P's first pager step is refused, so the
    # kernel never hands the CPU to P while it cannot run.
    assert run_error(tmp_path, capsys, SELF_PAGER + script, scheme) == (
        2, "error: thread 'P' has a held fault; dispatch it first\n"
    )


@pytest.mark.parametrize("scheme", ["l4-single", "proposed"])
def test_a_pager_parked_by_its_own_protection_fault_takes_no_step(
    scheme, tmp_path, capsys
):
    # P holds its answer to T when its own access, to a page of its space
    # that no pager serves (NO_PAGER), parks it for good: the map and the
    # reply it still holds are refused at its first pager step.
    text = (
        "option mode=manual\n"
        "thread T tid=1 asid=1 role=applicant pager=P\n"
        "thread U tid=3 asid=1 role=applicant pager=P\n"
        "thread P tid=2 asid=2 role=pager pager=P\n"
        "pager P policy=anonymous\n"
        "assign asid=1 rid=0 pager=P\n"
        "access T 0x1000 read\n"
        "access P 0x800000 read\n"
        "pager-step P 2\n"
        "access U 0x2000 read\n"
        "pager-step P 2\n"
    )
    assert run_error(tmp_path, capsys, text, scheme) == (
        2, "error: thread 'P' (tid 2) is suspended, cannot run\n"
    )


def test_a_reflection_to_a_thread_without_a_pager_line_is_an_error(
    tmp_path, capsys
):
    # B is an applicant: a fault can only ever reach a pager, so the
    # database is refused at parse, before any run.
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
    assert captured.err == "error: dbrange target 'B' is not a pager\n"


DBRANGE_TARGETS = """\
thread A tid=1 asid=1 role=applicant
thread RM tid=2 asid=1 role=region_mapper
thread Q tid=3 asid=2 role=pager
thread R tid=4 asid=2 role=pager
thread P tid=5 asid=2 role=pager
pager R policy=reflecting
pager P policy=anonymous
assign asid=1 rid=0 pager=P
dbrange {owner} start=0x0 end=0x400000 target={target}
access A 0x1000 read
"""


@pytest.mark.parametrize("owner", ["asid=1", "pager=R"])
@pytest.mark.parametrize(
    "target", ["A", "RM", "Q", "Ghost"],
    ids=["applicant", "region-mapper", "pager-role-without-pager-line",
         "undeclared"],
)
def test_a_dbrange_target_that_is_not_a_declared_pager_is_refused_at_parse(
    owner, target, tmp_path, capsys
):
    text = DBRANGE_TARGETS.format(owner=owner, target=target)
    message = f"dbrange target {target!r} is not a pager"
    with pytest.raises(SemanticError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    path = tmp_path / "target.scn"
    path.write_text(text)
    rc = cli.main(["--scenario", str(path), "--scheme", "l4re"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"


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


def reflection_chain(hops: int) -> str:
    """One fault under l4re that the region mapper reflects to ``P0``,
    which reflects it to ``P1``, and so on to ``P<hops>``, the anonymous
    manager of the region."""
    lines = [
        "layout regions=8 pages_per_region=1024 page_size=4096",
        "thread T tid=1 asid=1 role=applicant",
    ]
    lines += [f"thread P{i} tid={i + 2} asid=2 role=pager" for i in range(hops + 1)]
    lines += [f"pager P{i} policy=reflecting" for i in range(hops)]
    lines.append(f"pager P{hops} policy=anonymous")
    lines += [
        f"dbrange pager=P{i} start=0x0 end=0x400000 target=P{i + 1}"
        for i in range(hops)
    ]
    lines += [
        "dbrange asid=1 start=0x0 end=0x400000 target=P0",
        f"assign asid=1 rid=0 pager=P{hops}",
        "access T 0x1000 read",
    ]
    return "\n".join(lines) + "\n"


def test_a_long_reflection_chain_is_served_without_recursion(tmp_path, capsys):
    # The mapper and 600 pagers each reflect once: 601 reflections, then
    # the manager maps and replies, all in one loop of constant stack.
    path = tmp_path / "chain.scn"
    path.write_text(
        reflection_chain(600) + "expect fault=0 verdict=DISPATCHED "
        "scheme=l4re mode=1206 ctx=603 ipc=603 invocations=602\n"
    )
    rc = cli.main(["--scenario", str(path), "--scheme", "l4re", "--check"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("l4re: faults=1 ")
    assert out[1] == "check: 1 expectation line(s), 0 failure(s)"


def test_a_reflection_chain_looks_each_hop_up_once(monkeypatch):
    # Each of the 601 reflections looks its target up once; re-walking the
    # fault's path before every reflection made about n**2 / 2 lookups
    # (180,901 here).
    lookups = 0
    lookup = MappingDatabase.lookup

    def counted(db, vaddr):
        nonlocal lookups
        lookups += 1
        return lookup(db, vaddr)

    monkeypatch.setattr(MappingDatabase, "lookup", counted)
    result = Simulator(parse_scenario(reflection_chain(600)), Scheme.L4RE).run()
    assert result.cycles[0].closed
    assert lookups == 601

    # A loop closed at the end of the chain is still refused by name.
    looped = reflection_chain(600).replace(
        "pager P600 policy=anonymous\n",
        "pager P600 policy=reflecting\n"
        "dbrange pager=P600 start=0x0 end=0x400000 target=P0\n",
    )
    with pytest.raises(SimulationError) as err:
        Simulator(parse_scenario(looped), Scheme.L4RE).run()
    assert str(err.value) == (
        "reflection loop: pager 'P600' would reflect fault 0 (thread 'T' at "
        "0x1000) to 'P0', which the fault already reached"
    )


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


# ---- where events go: counted without --trace, kept with it ----------------


def spy_simulate(monkeypatch, force_keep: bool | None = None) -> list:
    """Record the ``keep_events`` each simulation of ``cli.main`` gets and
    the class of the trace it built (None if it stopped); with
    ``force_keep`` set, run every simulation with that value instead, as
    every run did before counters-only traces."""
    seen = []

    def spy(scheme, scenario, keep_events=True):
        seen.append([keep_events, None])
        keep = keep_events if force_keep is None else force_keep
        result = simulate(scheme, scenario, keep)
        seen[-1][1] = type(result.trace)
        return result

    monkeypatch.setattr(cli, "simulate", spy)
    return seen


UNTRACED_COMMANDS = (
    ("--check", "--verify-equivalence", "--report", "table"),
    ("--check", "--verify-equivalence", "--report", "kv"),
)


@pytest.mark.parametrize("name", FIXTURES)
def test_untraced_commands_print_the_same_from_counters_only_runs(
    name, tmp_path, monkeypatch, capsys
):
    path = tmp_path / f"{name}.scn"
    path.write_text(fixture_scn(name))
    for command in UNTRACED_COMMANDS:
        argv = ["--scenario", str(path), *command]
        kept = spy_simulate(monkeypatch, force_keep=True)
        kept_rc = cli.main(argv)
        kept_out = capsys.readouterr()
        counted = spy_simulate(monkeypatch)
        counted_rc = cli.main(argv)
        counted_out = capsys.readouterr()
        assert counted_rc == kept_rc
        assert counted_out == kept_out
        # The same simulations ran to the end both ways; one that stopped
        # (a scheme the fixture does not fit) built no trace.
        assert kept
        assert [t is None for _, t in counted] == [t is None for _, t in kept]
        assert {t for _, t in kept} <= {Trace, None}
        assert {t for _, t in counted} <= {CountingTrace, None}
        assert {keep for keep, _ in counted} == {False}


@pytest.mark.parametrize("name", FIXTURES)
def test_traced_runs_keep_their_events(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.scn"
    path.write_text(fixture_scn(name))
    digests = {
        key.split(".", 1)[1]: digest
        for key, digest in golden_digests().items()
        if key.startswith(f"{name}.")
    }
    assert digests
    for token, digest in digests.items():
        target = tmp_path / f"{token}.trace"
        seen = spy_simulate(monkeypatch)
        rc = cli.main([
            "--scenario", str(path), "--scheme", token, "--check",
            "--trace", str(target),
        ])
        assert rc == 0, capsys.readouterr()
        assert seen == [[True, Trace]]
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, token
