"""Seeded mutations of scenario text, for the parse-outcome and CLI fuzz tests.

``mutant(text, seed)`` applies one or two random edits to a scenario: drop,
insert or replace a token, replace the value of a ``key=value`` token,
duplicate or delete a line, or insert a whole directive line.  The
vocabularies below lean on the values the grammar treats specially
(negative numbers, zero, the 32-bit boundary, empty values, every choice
spelling), so that most mutants sit just inside or just outside what the
parser accepts.  The same seed always gives the same mutant.

Run as a script to print the parse outcome of every recorded mutant, the
format of ``tests/golden/parse_outcomes.txt``::

    PYTHONPATH=src python tests/mutants.py > tests/golden/parse_outcomes.txt

Rewrite that file only for a change meant to alter what parses, and list
the entries that changed in ``CHANGES.md``.
"""

import hashlib
import random
import re

from pagersim import ParseError, SemanticError, parse_scenario, serialize_scenario
from support import fixture_scn

FIXTURES = ("table1", "fig6", "classify", "revoke", "l4re-reflect", "workload50")
MUTANTS_PER_FIXTURE = 200

VALUES = (
    "-1", "0", "1", "2", "3", "7", "0x1000", "0x3000", "-0x4000", "0x4000",
    "0xffffffff", "0x100000000", "0x1g", "x", "", "yes", "no", "read",
    "write", "hold", "auto", "manual", "deterministic", "round-robin",
    "DISPATCHED", "NO_PAGER", "KERNEL_RANGE", "monolithic", "l4-single",
    "proposed", "l4re", "zero", "page", "fixed:7", "fixed:", "fixed:x",
    "anonymous", "fixed", "rejecting", "reflecting", "applicant", "pager",
    "region_mapper", "kernel_internal", "{A}", "{P}", "{A},{P}", ",",
)

TOKENS = (
    "hold", "2", "0", "-1", "read", "x", "=", "key=", "tid=9", "asid=3",
    "role=pager", "pager={P}", "policy=fixed", "marker=page", "accepts=no",
    "revoke_after=0", "revoke_after=1", "frame=-1", "vaddr=0x100000000",
    "user_base=-0x4000", "user_base=0x4000", "mode=-1", "ctx=-1", "ipc=-1",
    "invocations=-1", "scheme=l4re", "start=0x0", "end=0x1000",
    "target={P}", "frames=0", "frames=-1", "order={A}", "seed=3",
    "regions=8", "regions=0", "page_size=3", "rid=1", "fault=1",
    "verdict=NO_PAGER",
)

LINES = (
    "layout regions=8 pages_per_region=4 page_size=4096",
    "layout regions=8 pages_per_region=4 page_size=4096 user_base=-0x4000",
    "layout regions=4 pages_per_region=4 page_size=4096 user_base=0x10000",
    "option mode=manual schedule=round-robin seed=5 frames=64 order={A},{P}",
    "option frames=-1",
    "option order=",
    "thread X tid=99 asid=1 role=applicant pager={P}",
    "thread RM tid=98 asid=1 role=region_mapper",
    "pager {P} policy=fixed marker=fixed:7 accepts=no revoke_after=3",
    "pager {P} policy=anonymous revoke_after=0",
    "pager {P} policy=reflecting",
    "backing {P} vaddr=0x1000 frame=9",
    "backing {P} vaddr=0x100000000 frame=1",
    "backing {P} vaddr=0x1000 frame=-1",
    "dbrange asid=1 start=0x0 end=0x4000 target={P}",
    "dbrange pager={P} start=0x0 end=0x1000 target={P}",
    "dbrange asid=1 pager={P} start=0x0 end=0x1000 target={P}",
    "assign asid=1 rid=1 pager={P}",
    "access {A} 0x3000 write hold",
    "access {A} 0x2000 read",
    "dispatch {A}",
    "pager-step {P} 2",
    "pager-step {P}",
    "switch {A}",
    "yield",
    "expect fault=0 verdict=DISPATCHED scheme=proposed mode=4 ctx=2 ipc=2 "
    "invocations=1",
    "expect fault=1 verdict=NO_PAGER mode=-1",
    "expect fault=0 verdict=DISPATCHED ipc=-1 invocations=0",
)

_THREAD = re.compile(r"^thread\s+(\S+).*\brole=(\S+)", re.M)


def _names(text: str) -> dict[str, str]:
    """A declared applicant and pager to put into inserted tokens."""
    roles = {role: name for name, role in reversed(_THREAD.findall(text))}
    return {"A": roles.get("applicant", "T"), "P": roles.get("pager", "P")}


def mutant(text: str, seed: str) -> str:
    rng = random.Random(seed)
    names = _names(text)

    def pick(pool):
        return rng.choice(pool).format_map(names)

    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 1, 2))):
        op = rng.randrange(7)
        if op >= 4 or not lines:  # whole-line edits
            at = rng.randrange(len(lines) + 1)
            if op == 4 and lines:
                lines.insert(at, lines[min(at, len(lines) - 1)])
            elif op == 5 and lines:
                del lines[min(at, len(lines) - 1)]
            else:
                lines.insert(at, pick(LINES))
            continue
        code = [i for i, ln in enumerate(lines) if ln.split("#", 1)[0].split()]
        if not code:
            continue
        i = rng.choice(code)
        tokens = lines[i].split("#", 1)[0].split()
        at = rng.randrange(len(tokens))
        if op == 0:
            del tokens[at]
        elif op == 1:
            tokens.insert(rng.randrange(len(tokens) + 1), pick(TOKENS))
        elif op == 2 and "=" in tokens[at]:
            tokens[at] = tokens[at].split("=", 1)[0] + "=" + pick(VALUES)
        else:
            tokens[at] = pick(VALUES)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def recorded_mutants():
    """``(fixture, index, text)`` for every mutant the golden file records."""
    for name in FIXTURES:
        base = fixture_scn(name)
        for index in range(MUTANTS_PER_FIXTURE):
            yield name, index, mutant(base, f"{name}:{index}")


def parse_outcome(text: str) -> str:
    """SHA-256 of the canonical text if ``text`` parses, else the error
    class, with the line number for a ``ParseError``."""
    try:
        sf = parse_scenario(text)
    except ParseError as exc:
        return f"ParseError {exc.line}"
    except SemanticError:
        return "SemanticError"
    return hashlib.sha256(serialize_scenario(sf).encode()).hexdigest()


def outcome_line(name: str, index: int, text: str) -> str:
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"{name} {index} {digest} {parse_outcome(text)}"


if __name__ == "__main__":
    for name, index, text in recorded_mutants():
        print(outcome_line(name, index, text))
