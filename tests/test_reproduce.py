from pagersim import reproduce
from pagersim.trace import CountingTrace, EventKind, Trace, step


def test_all_claims_reproduce(capsys):
    rc = reproduce.reproduce_all()
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 9
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "9/9 claims reproduced"


def test_claim_ids_are_stable():
    ids = [c.claim_id for c in reproduce.build_claims()]
    assert ids == [
        "cycle-costs",
        "reduction-exact",
        "region-forms",
        "verdict-classes",
        "race-attribution",
        "contract-revocation",
        "table-footprint",
        "scheme-equivalence",
        "replay-identical",
    ]


def test_broken_kernel_entry_fails_claims(monkeypatch, capsys):
    # A simulator that loses its kernel entries (the trap and the reply
    # and reflection syscalls) must not still pass, whether its traces
    # keep events or only count them (cli.main without --trace and
    # overhead_report build counters-only traces).  The protocol records
    # them in its steps.
    def lossy_steps(record):
        def record_all_but_kernel_entries(self, recorded, args, cycle):
            kept = [
                (kind, a) for kind, a in zip(recorded[0], args)
                if kind is not EventKind.MODE_SWITCH_U2K
            ]
            kinds = tuple(kind for kind, _ in kept)
            record(self, step(*kinds), tuple(a for _, a in kept), cycle)

        return record_all_but_kernel_entries

    for cls in (Trace, CountingTrace):
        monkeypatch.setattr(cls, "record", lossy_steps(cls.__dict__["record"]))
    rc = reproduce.reproduce_all()
    out = capsys.readouterr().out
    assert rc == 1
    assert any(ln.startswith("FAIL  cycle-costs") for ln in out.splitlines())
    assert "9/9" not in out.splitlines()[-1]


def test_fixture_paths_resolve():
    for name in reproduce.FIXTURES:
        assert reproduce.fixture_path(name).is_file()


def test_missing_fixture_raises():
    import pytest

    with pytest.raises(reproduce.MissingFixtureError):
        reproduce.fixture_path("nonexistent")
