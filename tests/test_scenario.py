import re
from pathlib import Path

import pytest

from pagersim import ParseError, SemanticError, parse_scenario, serialize_scenario
from pagersim.engine import AccessType, ThreadRole
from pagersim.fault_dispatch import VerdictCode
from pagersim.pagers import MarkerKind, PagerPolicy
from pagersim.scenario import (
    GRAMMAR,
    AccessItem,
    DispatchItem,
    Expectation,
    PagerStepItem,
    SwitchItem,
    ThreadDecl,
    YieldItem,
)
from mutants import FIXTURES, outcome_line, recorded_mutants
from support import GOLDEN_DIR, fixture_scn, load_bench_module

MINIMAL = """\
thread T1 tid=1 asid=1 role=applicant
thread P tid=2 asid=2 role=pager
pager P policy=anonymous
assign asid=1 rid=0 pager=P
access T1 0x1000 read
"""


def test_minimal_scenario_parses_with_defaults():
    sf = parse_scenario(MINIMAL)
    assert sf.layout.region_count == 1020
    assert sf.options.mode == "auto"
    assert [t.tid for t in sf.threads] == [1, 2]
    assert sf.pagers[0].policy is PagerPolicy.ANONYMOUS
    assert sf.assigns[0].rid == 0
    assert sf.script == [AccessItem(thread="T1", vaddr=0x1000, access=AccessType.READ)]


def test_numbers_accept_hex_and_decimal():
    sf = parse_scenario(
        "layout regions=8 pages_per_region=4 page_size=0x1000\n"
        "thread T tid=0x10 asid=2 role=applicant\n"
        "access T 4096 write\n"
    )
    assert sf.threads[0].tid == 16
    assert sf.script[0].vaddr == 4096
    assert sf.script[0].access is AccessType.WRITE


def test_comments_and_blank_lines_ignored():
    sf = parse_scenario(
        "# a comment\n"
        "\n"
        "thread T tid=1 asid=1 role=applicant  # trailing comment\n"
        "yield\n"
    )
    assert len(sf.threads) == 1
    assert sf.script == [YieldItem()]


def test_full_round_trip_is_identity():
    text = """\
layout regions=8 pages_per_region=4 page_size=4096
option mode=manual schedule=round-robin seed=5 frames=64 order=T1,P
thread T1 tid=1 asid=1 role=applicant pager=P
thread RM tid=2 asid=1 role=region_mapper
thread P tid=3 asid=2 role=pager
pager P policy=fixed marker=fixed:7 accepts=no revoke_after=3
backing P vaddr=0x1000 frame=9
dbrange asid=1 start=0x0 end=0x4000 target=P
assign asid=1 rid=0 pager=P
access T1 0x1000 read hold
dispatch T1
pager-step P 2
switch T1
yield
expect fault=0 verdict=DISPATCHED scheme=proposed mode=4 ctx=2 ipc=2 invocations=1
"""
    once = parse_scenario(text)
    rendered = serialize_scenario(once)
    again = parse_scenario(rendered)
    assert again == once
    assert serialize_scenario(again) == rendered


def test_section_fields_come_in_constructor_order():
    # parse_scenario builds a section's records positionally from the
    # values _read lists in GRAMMAR order.
    sections = {w: d for w, d in GRAMMAR.items() if d.section is not None}
    assert set(sections) == {
        "thread", "assign", "access", "dispatch", "pager-step", "switch",
        "yield", "expect",
    }
    for word, d in sections.items():
        attrs = [f.attr for f in d.fields]
        names = list(d.record._fields)
        assert attrs == names[:len(attrs)], word


@pytest.mark.parametrize(
    "shuffled, canonical",
    [
        (
            "expect scheme=proposed fault=0 verdict=DISPATCHED mode=4 ctx=2 "
            "ipc=2 invocations=1",
            "expect fault=0 verdict=DISPATCHED scheme=proposed mode=4 ctx=2 "
            "ipc=2 invocations=1",
        ),
        (
            "expect invocations=1 ctx=2 verdict=DISPATCHED fault=0",
            "expect fault=0 verdict=DISPATCHED ctx=2 invocations=1",
        ),
        (
            "thread T2 pager=P role=applicant asid=1 tid=9",
            "thread T2 tid=9 asid=1 role=applicant pager=P",
        ),
        ("assign pager=P rid=0 asid=1", "assign asid=1 rid=0 pager=P"),
    ],
)
def test_keyed_fields_in_any_order_parse_to_the_same_record(shuffled, canonical):
    first = parse_scenario(MINIMAL + shuffled + "\n")
    assert first == parse_scenario(MINIMAL + canonical + "\n")
    assert first != parse_scenario(MINIMAL)


def test_equal_lines_give_equal_records_not_one_shared_record():
    sf = parse_scenario(MINIMAL + "access T1 0x1000 read\n" * 2)
    first, second, third = sf.script
    assert first == second == third
    assert first is not second and second is not third


def test_a_repeated_token_is_converted_once_per_parse():
    # A converted token repeated in the same place is looked up, not
    # converted again; each line still gets a record of its own.
    sf = parse_scenario(MINIMAL + "access T1 0x123456 read\n" * 2)
    first, second = sf.script[-2:]
    assert first.vaddr == 0x123456
    assert first.vaddr is second.vaddr
    assert first is not second


def test_records_equal_only_records_of_their_own_class():
    # Records are tuples, yet a dispatch and a switch naming the same
    # thread differ, and no record equals the plain tuple of its values.
    read = AccessType.READ
    assert DispatchItem("T") != SwitchItem("T")
    assert not DispatchItem("T") == SwitchItem("T")
    assert AccessItem("T", 0x1000, read) != ("T", 0x1000, read, False)
    assert not AccessItem("T", 0x1000, read) == ("T", 0x1000, read, False)
    assert ("T", 0x1000, read, False) != AccessItem("T", 0x1000, read)
    assert AccessItem("T", 0x1000, read) == AccessItem("T", 0x1000, read, False)
    assert not AccessItem("T", 0x1000, read) != AccessItem("T", 0x1000, read)
    assert AccessItem("T", 0x1000, read) != AccessItem("T", 0x1000, read, True)


def test_equal_records_hash_equal():
    sf = parse_scenario(MINIMAL + "access T1 0x1000 read\nyield\nyield\n")
    first, second, y1, y2 = sf.script
    assert first == second and hash(first) == hash(second)
    assert y1 == y2 == YieldItem() and hash(y1) == hash(y2)
    assert hash(sf.threads[0]) == hash(
        ThreadDecl("T1", 1, 1, ThreadRole.APPLICANT)
    )
    assert len({first, second, y1, y2}) == 2
    expect = Expectation(0, VerdictCode.DISPATCHED, "proposed", 4)
    assert {expect: 1}[Expectation(0, VerdictCode.DISPATCHED, "proposed", 4)]


def test_round_trip_on_the_fixtures_and_the_bench_workloads():
    generate = load_bench_module("workloads").generate
    texts = [fixture_scn(name) for name in FIXTURES]
    texts += [
        generate(name, seed).text
        for name in ("fault-stream", "wide-spaces", "hot-mix")
        for seed in (0, 13)
    ]
    for text in texts:
        sf = parse_scenario(text)
        again = parse_scenario(serialize_scenario(sf))
        assert again == sf
        for section in ("threads", "assigns", "script", "expectations"):
            assert list(map(type, getattr(again, section))) == list(
                map(type, getattr(sf, section))
            ), section


def test_a_parsed_scenario_keeps_each_name_once():
    # Every positional name field shares one memo, so a thread's
    # declaration and each access line naming it hold one string.
    text = load_bench_module("workloads").generate("hot-mix", 0).text
    sf = parse_scenario(text)
    names = [item.thread for item in sf.script if type(item) is AccessItem]
    assert len(names) == 3000
    assert len(set(map(id, names))) == len(set(names)) == 9
    declared = {t.name: t.name for t in sf.threads}
    assert all(name is declared[name] for name in names)


@pytest.mark.parametrize(
    "line, message",
    [
        # The first key, in line order, that comes twice, whether the
        # repeat has a value of its own or repeats the token.
        (
            "expect fault=0 verdict=DISPATCHED mode=1 ctx=1 ctx=2 mode=2",
            "duplicate key 'mode'",
        ),
        (
            "expect fault=0 verdict=DISPATCHED mode=1 ctx=1 ctx=1 mode=1",
            "duplicate key 'mode'",
        ),
        # A bad value later on the line is reported before a repeated key.
        ("expect fault=0 fault=1 verdict=BOGUS", "bad verdict: 'BOGUS'"),
        ("expect fault=0 fault=0 verdict=BOGUS", "bad verdict: 'BOGUS'"),
        ("expect fault=0 fault=1", "duplicate key 'fault'"),
        ("expect verdict=DISPATCHED mode=1", "missing fault"),
        ("access T1 0x1000", "missing access"),
        ("access T1 0x1000 read write", "expected key=value, got 'write'"),
    ],
)
def test_a_bad_line_reports_its_first_fault(line, message):
    with pytest.raises(ParseError) as exc:
        parse_scenario(MINIMAL + line + "\n")
    assert (exc.value.line, exc.value.message) == (6, message)


@pytest.mark.parametrize(
    "script, message",
    [
        (
            "access Ghost1 0x1000 read\npager-step Ghost2\ndispatch Ghost3\n",
            "undeclared thread 'Ghost1'",
        ),
        (
            "yield\npager-step Ghost2\naccess Ghost1 0x1000 read\n",
            "pager-step names undeclared pager 'Ghost2'",
        ),
        ("switch T1\npager-step T1\n", "pager-step names undeclared pager 'T1'"),
    ],
)
def test_the_first_wrong_name_in_the_script_is_reported(script, message):
    with pytest.raises(SemanticError) as exc:
        parse_scenario(MINIMAL + script)
    assert str(exc.value) == message


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_scenario("thread T tid=1 asid=1 role=applicant\nbogus directive\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_scenario("thread T tid=x asid=1 role=applicant\n")
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        (
            "thread X tid=1 asid=1 role=applicant\naccess T 0x0 read\n",
            "undeclared thread",
        ),
        ("", "no threads declared"),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "thread T tid=2 asid=1 role=applicant\n",
            "duplicate thread name",
        ),
        (
            "thread A tid=1 asid=1 role=applicant\n"
            "thread B tid=1 asid=1 role=applicant\n",
            "duplicate tid",
        ),
        ("thread T tid=1 asid=0 role=applicant\n", "asid must be positive"),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "pager T policy=anonymous\n",
            "role is applicant",
        ),
        (
            "thread P tid=1 asid=1 role=pager\n"
            "pager P policy=anonymous\n"
            "backing P vaddr=0x0 frame=1\n",
            "non-fixed pager",
        ),
        (
            "thread P tid=1 asid=1 role=pager\n"
            "pager P policy=anonymous\n"
            "dbrange pager=P start=0x0 end=0x1000 target=P\n",
            "non-reflecting pager",
        ),
        (
            "thread P tid=1 asid=1 role=pager\n"
            "thread Q tid=2 asid=1 role=pager\n"
            "pager P policy=reflecting\n"
            "dbrange pager=P start=0x0 end=0x2000 target=Q\n"
            "dbrange pager=P start=0x1000 end=0x3000 target=Q\n",
            "overlapping",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "thread P tid=2 asid=2 role=pager\n"
            "pager P policy=anonymous\n"
            "assign asid=1 rid=2000 pager=P\n",
            "outside layout",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "assign asid=1 rid=0 pager=Ghost\n",
            "undeclared pager",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "pager-step Ghost\n",
            "undeclared pager",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "option order=T,Ghost\n",
            "undeclared thread",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "backing Ghost vaddr=0x0 frame=1\n",
            "undeclared pager",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "dbrange pager=Ghost start=0x0 end=0x1000 target=T\n",
            "dbrange for undeclared pager 'Ghost'",
        ),
        (
            "thread T tid=1 asid=1 role=applicant\n"
            "dbrange asid=7 start=0x0 end=0x1000 target=T\n",
            "dbrange for unknown asid 7",
        ),
    ],
)
def test_semantic_errors(text, fragment):
    with pytest.raises(SemanticError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "thread T tid=1 asid=1\n",  # missing role
        "thread T tid=1 asid=1 role=astronaut\n",
        "option mode=sideways\n",
        "pager P\n",
        "access T 0x0 sideways\n",
        "access T 0x100000000 read\n",  # past the 32-bit space
        "expect fault=0 verdict=NONSENSE\n",
        "expect fault=0 verdict=DISPATCHED scheme=hurd\n",
        "layout regions=8\nlayout regions=9\n",  # duplicate
        "yield now\n",
        "dbrange start=0x0 end=0x1000 target=P\n",  # no asid/pager owner
        "pager-step P 0\n",
    ],
)
def test_parse_rejects_bad_lines(text):
    with pytest.raises(ParseError):
        parse_scenario(text)


def test_role_and_marker_spellings():
    sf = parse_scenario(
        "thread RM tid=1 asid=1 role=region_mapper\n"
        "thread P tid=2 asid=2 role=pager\n"
        "pager P policy=anonymous marker=page\n"
    )
    assert sf.threads[0].role is ThreadRole.REGION_MAPPER
    assert sf.pagers[0].marker_rule.kind is MarkerKind.PAGE


def test_pager_step_default_count():
    sf = parse_scenario(
        "thread P tid=1 asid=1 role=pager\n"
        "pager P policy=anonymous\n"
        "pager-step P\n"
        "pager-step P 3\n"
    )
    assert sf.script == [PagerStepItem(pager="P"), PagerStepItem(pager="P", count=3)]


@pytest.mark.parametrize(
    "layout",
    [
        "layout regions=0",
        "layout page_size=3",
        "layout pages_per_region=6",
        "layout user_base=0x1000",
    ],
)
def test_invalid_layout_is_a_parse_error_on_its_line(layout):
    with pytest.raises(ParseError) as exc:
        parse_scenario("# geometry\n" + layout + "\nbogus directive\n")
    assert exc.value.line == 2


def test_negative_fault_index_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_scenario("expect fault=-1 verdict=DISPATCHED\n")
    assert exc.value.line == 1


def test_negative_frames_is_a_parse_error():
    thread = "thread T tid=1 asid=1 role=applicant\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(thread + "option frames=-1\n")
    assert exc.value.line == 2
    assert parse_scenario(thread + "option frames=0\n").options.frames == 0


@pytest.mark.parametrize(
    "dbrange, message",
    [
        ("dbrange asid=1 start=0x1g end=0x2000 target=P", "bad start: '0x1g'"),
        ("dbrange asid=1 start=0x1000 end=top target=P", "bad end: 'top'"),
        ("dbrange asid=one start=0x1000 end=0x2000 target=P", "bad asid: 'one'"),
        ("dbrange pager=P start=0x2000 end=0x1000 target=P", "empty dbrange"),
    ],
)
def test_bad_dbrange_value_reports_its_own_line(dbrange, message):
    # The later bad line must not be the one reported.
    text = "thread P tid=1 asid=1 role=pager\n" + dbrange + "\nbogus directive\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.message) == (2, message)


def test_mutant_parse_outcomes_match_the_record():
    """Parse outcome of every recorded mutant of the fixtures: the digest of
    its canonical text, or its error class and line."""
    expected = (GOLDEN_DIR / "parse_outcomes.txt").read_text().splitlines()
    mutants = list(recorded_mutants())
    assert len(mutants) == len(expected)
    changed = [
        f"{want}\n     now {got}\n{text}"
        for (name, index, text), want in zip(mutants, expected)
        if (got := outcome_line(name, index, text)) != want
    ]
    assert not changed, f"{len(changed)} outcome(s) changed:\n" + "\n".join(changed[:5])


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            "layout regions=8 pages_per_region=4 page_size=4096 user_base=-0x4000",
            "user_base must not be negative",
        ),
        ("backing P vaddr=0x1000 frame=-1", "frame must be at least 0"),
        ("backing P vaddr=0x100000000 frame=1", "vaddr must be below 0x100000000"),
        ("backing P vaddr=-0x1000 frame=1", "vaddr must be at least 0"),
        ("expect fault=0 verdict=DISPATCHED mode=-1", "mode must be at least 0"),
        ("expect fault=0 verdict=DISPATCHED ctx=-1", "ctx must be at least 0"),
        ("expect fault=0 verdict=DISPATCHED ipc=-1", "ipc must be at least 0"),
        (
            "expect fault=0 verdict=DISPATCHED invocations=-1",
            "invocations must be at least 0",
        ),
        ("pager P policy=fixed revoke_after=0", "revoke_after must be at least 1"),
        ("pager P policy=fixed marker=fixed:-1", "marker must be at least 0"),
        (
            "pager P policy=fixed marker=fixed:0x80000000",
            "marker must be below 0x80000000",
        ),
    ],
)
def test_out_of_range_value_is_rejected_on_its_own_line(bad, message):
    text = "thread P tid=1 asid=1 role=pager\n" + bad + "\nbogus directive\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.message) == (2, message)


def test_every_directive_key_and_choice_is_documented():
    doc = (Path(__file__).parent.parent / "docs" / "scenario-format.md").read_text()
    for word, directive in GRAMMAR.items():
        assert re.search(rf"`{re.escape(word)}[ `]", doc), word
        for key in directive.slot:  # as key=... or in the option table
            assert f"{key}=" in doc or f"`{key}`" in doc, (word, key)
        for f in directive.fields:
            if isinstance(f.conv, dict):
                for token in f.conv:
                    assert token in doc, (word, f.key, token)
