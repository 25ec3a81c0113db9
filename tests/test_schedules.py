"""Replay of the seeded yield/switch scenarios of ``schedules.py`` against
the recorded trace digests and error classes."""

from schedules import outcome_lines
from support import GOLDEN_DIR


def test_schedule_outcomes_match_the_record():
    expected = (GOLDEN_DIR / "schedule_outcomes.txt").read_text().splitlines()
    got = list(outcome_lines())
    assert len(got) == len(expected)
    changed = [f"{want}\n     now {now}" for want, now in zip(expected, got) if now != want]
    assert not changed, f"{len(changed)} outcome(s) changed:\n" + "\n".join(changed[:5])
