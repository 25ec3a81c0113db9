from pagersim import reproduce
from pagersim.trace import EventKind, Trace


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
    # and reflection syscalls) must not still pass.
    append = Trace.append

    def lossy(self, kind, args=(), cycle=None):
        if kind is not EventKind.MODE_SWITCH_U2K:
            append(self, kind, args, cycle)

    monkeypatch.setattr(Trace, "append", lossy)
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
