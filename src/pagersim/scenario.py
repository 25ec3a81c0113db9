"""Line-oriented scenario files.

A scenario declares the world (layout, threads, pager behaviors, region
assignments) and a script of memory accesses plus interleaving directives,
followed by optional expectations that ``--check`` verifies.  ``#`` starts
a comment; blank lines are ignored.  Example::

    # one thread, one pager, one fault
    thread T1 tid=1 asid=1 role=applicant
    thread P  tid=2 asid=2 role=pager
    pager P policy=anonymous
    assign asid=1 rid=0 pager=P
    access T1 0x1000 read
    expect fault=0 verdict=DISPATCHED scheme=proposed mode=4 ctx=2

Directive lines (`switch`, `yield`, `dispatch`, `pager-step`, the `hold`
suffix on an access) exist so races can be replayed exactly: an access
with ``hold`` stops after the trap, ``dispatch`` runs the deferred
zero-level step, and ``pager-step`` executes one queued pager action.

Numbers are decimal or ``0x`` hex.  Parse errors carry the line number;
semantic errors (undeclared names, overlaps) are raised after the file
has been read.  Every directive's fields are listed once, in ``GRAMMAR``,
which both ``parse_scenario`` and ``serialize_scenario`` read.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from math import inf
from typing import NamedTuple

from .address_space import ADDRESS_SPACE_SIZE, LayoutConfig
from .engine import AccessType, ThreadDecl, ThreadRole, _record
from .errors import OverlappingRangeError
from .fault_dispatch import VerdictCode
from .mmu import MARKER_LIMIT
from .pagers import MappingDatabase, MarkerKind, MarkerRule, PagerPolicy


# Members that parsing and validation read, bound once: a read through the
# enum class runs its metaclass's lookup hook (docs/architecture.md,
# "Run-path costs").
_FIXED_MARKER = MarkerKind.FIXED
_PAGER = ThreadRole.PAGER
_FIXED_POLICY = PagerPolicy.FIXED
_REFLECTING = PagerPolicy.REFLECTING


class ScenarioError(Exception):
    """Base class for problems with a scenario file."""


class ParseError(ScenarioError):
    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class SemanticError(ScenarioError):
    pass


@dataclass(frozen=True)
class DbRange:
    start: int
    end: int
    target: str


@dataclass(frozen=True)
class PagerDecl:
    name: str
    policy: PagerPolicy
    marker_rule: MarkerRule = MarkerRule()
    revoke_after: int | None = None
    accepts: bool = True
    backing: tuple[tuple[int, int], ...] = ()  # (vaddr, frame)
    dbranges: tuple[DbRange, ...] = ()


@_record
class AssignDecl(NamedTuple):
    asid: int
    rid: int
    pager_name: str


@_record
class AccessItem(NamedTuple):
    thread: str
    vaddr: int
    access: AccessType
    hold: bool = False


@_record
class DispatchItem(NamedTuple):
    thread: str


@_record
class PagerStepItem(NamedTuple):
    pager: str
    count: int = 1


@_record
class SwitchItem(NamedTuple):
    thread: str


@_record
class YieldItem(NamedTuple):
    pass


ScriptItem = AccessItem | DispatchItem | PagerStepItem | SwitchItem | YieldItem


@_record
class Expectation(NamedTuple):
    fault: int
    verdict: VerdictCode
    scheme: str | None = None  # None: applies to every scheme run
    mode: int | None = None
    ctx: int | None = None
    ipc: int | None = None
    invocations: int | None = None


@dataclass(frozen=True)
class Options:
    mode: str = "auto"  # auto | manual pager servicing
    schedule: str = "deterministic"  # deterministic | round-robin
    seed: int = 0
    frames: int | None = None
    order: tuple[str, ...] = ()


@dataclass(slots=True)  # slots: no separate __dict__ to keep (Python 3.10)
class ScenarioFile:
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    options: Options = field(default_factory=Options)
    threads: list[ThreadDecl] = field(default_factory=list)
    pagers: list[PagerDecl] = field(default_factory=list)
    space_dbranges: dict[int, tuple[DbRange, ...]] = field(default_factory=dict)
    assigns: list[AssignDecl] = field(default_factory=list)
    script: list[ScriptItem] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)
    # What validation resolved and set-up reads (see ``_validate``).
    declared: tuple = field(default=None, compare=False, repr=False)


# ---- grammar -------------------------------------------------------------

# Field converters: one of these, or a dict mapping each accepted token to
# its value.  ``_read`` converts inline, not through a function per field,
# because parsing is most of a run's set-up time.
TEXT = "text"  # the token as written
INT = "int"  # decimal or 0x hex
NONNEG = (0, inf)  # an int with bounds (low, high): low <= n < high
POS = (1, inf)
ADDR = (0, ADDRESS_SPACE_SIZE)
NAMES = "comma-separated names, empty ones dropped"
MARKER = "zero, page or fixed:N"

REQUIRED = True


@dataclass(frozen=True, slots=True)  # slots: attribute reads are cheaper
class Field:
    key: str  # the key of key=value; a positional field's name in messages
    attr: str  # attribute of the record
    conv: object
    required: bool
    fmt: Callable[[object], str]


@dataclass(frozen=True, slots=True)
class Directive:
    section: str | None  # the ScenarioFile list its records are appended to
    record: type | None
    fields: tuple[Field, ...]  # the positional ones, then the keyed ones
    npos: int  # how many are positional
    slot: dict[str, int]  # each key's index in fields
    defaults: tuple  # what an absent optional field reads as, by index


_ABSENT = object()  # a field no token has given yet


def _field(key, conv, required=False, attr=None, fmt=None) -> Field:
    if fmt is None:
        if isinstance(conv, dict):
            fmt = {v: k for k, v in conv.items()}.__getitem__
        else:
            fmt = ",".join if conv is NAMES else str
    return Field(key, attr or key, conv, required, fmt)


def _directive(section, record, positional=(), keyed=()) -> Directive:
    """A section directive's fields are its record's leading fields, in
    order, so ``_read`` hands back the record's leading values and an
    absent optional field reads as the record's default.
    Any other directive's absent field reads as None, and parse_scenario
    applies its structural rule to what was given."""
    fields = positional + keyed
    defaults = [None] * len(fields)
    if section is not None:
        defaults = [record._field_defaults.get(f.attr) for f in fields]
    npos = len(positional)
    return Directive(
        section, record, fields, npos,
        {f.key: i for i, f in enumerate(fields) if i >= npos}, tuple(defaults),
    )


def _name(key="thread"):
    return (_field(key, TEXT, REQUIRED),)


# One entry per directive, in the order serialize_scenario writes sections.
# Optional fields take the record class's default when absent; the
# serializer writes every field except one that is None or empty.  Only the
# structural rules are spelled out in parse_scenario: one layout line,
# option lines merging key by key, the owner and the range of a dbrange,
# the hold suffix of an access, and attaching backing and dbrange lines to
# their pager.
GRAMMAR: dict[str, Directive] = {
    "layout": _directive(None, LayoutConfig, keyed=(
        _field("regions", INT, attr="region_count"),
        _field("pages_per_region", INT),
        _field("page_size", INT),
        _field("user_base", INT, fmt=hex),
    )),
    "option": _directive(None, Options, keyed=(
        _field("mode", {"auto": "auto", "manual": "manual"}),
        _field("schedule", {
            "deterministic": "deterministic", "round-robin": "round-robin",
        }),
        _field("seed", INT),
        _field("frames", NONNEG),
        _field("order", NAMES),
    )),
    "thread": _directive("threads", ThreadDecl, _name("name"), (
        _field("tid", INT, REQUIRED),
        _field("asid", INT, REQUIRED),
        _field("role", {r.value: r for r in ThreadRole}, REQUIRED),
        _field("pager", TEXT, attr="pager_name"),
    )),
    "pager": _directive(None, PagerDecl, _name("name"), (
        _field("policy", {p.value: p for p in PagerPolicy}, REQUIRED),
        _field("marker", MARKER, attr="marker_rule", fmt=lambda rule: (
            f"fixed:{rule.value}" if rule.kind is _FIXED_MARKER
            else rule.kind.value
        )),
        _field("accepts", {"yes": True, "no": False}),
        _field("revoke_after", POS),
    )),
    "backing": _directive(None, None, _name("pager"), (
        _field("vaddr", ADDR, REQUIRED, fmt=hex),
        _field("frame", NONNEG, REQUIRED),
    )),
    "dbrange": _directive(None, DbRange, keyed=(
        _field("asid", INT),
        _field("pager", TEXT),
        _field("start", INT, REQUIRED, fmt=hex),
        _field("end", INT, REQUIRED, fmt=hex),
        _field("target", TEXT, REQUIRED),
    )),
    "assign": _directive("assigns", AssignDecl, keyed=(
        _field("asid", INT, REQUIRED),
        _field("rid", INT, REQUIRED),
        _field("pager", TEXT, REQUIRED, attr="pager_name"),
    )),
    "access": _directive("script", AccessItem, _name() + (
        _field("vaddr", ADDR, REQUIRED, fmt=hex),
        _field("access", {"read": AccessType.READ, "write": AccessType.WRITE},
               REQUIRED),
    )),
    "dispatch": _directive("script", DispatchItem, _name()),
    "pager-step": _directive("script", PagerStepItem, (
        _field("pager", TEXT, REQUIRED), _field("count", POS),
    )),
    "switch": _directive("script", SwitchItem, _name()),
    "yield": _directive("script", YieldItem),
    "expect": _directive("expectations", Expectation, keyed=(
        _field("fault", NONNEG, REQUIRED),
        _field("verdict", {v.value: v for v in VerdictCode}, REQUIRED),
        _field("scheme", {
            s: s for s in ("monolithic", "l4-single", "l4re", "proposed")
        }),
        _field("mode", NONNEG),
        _field("ctx", NONNEG),
        _field("ipc", NONNEG),
        _field("invocations", NONNEG),
    )),
}

_SCRIPT_WORDS = {d.record: w for w, d in GRAMMAR.items() if d.section == "script"}

# Builds a record from its values in field order: one C call, where calling
# the class would run its generated Python __new__ (docs/architecture.md,
# "Set-up costs").
_new = tuple.__new__


# ---- parsing -------------------------------------------------------------


def _read(
    d: Directive, tokens: list[str], line: int, memos: list[dict | None],
) -> list:
    """The values of ``d.fields`` given by one line's tokens after the
    directive word, absent optional ones filled from ``d.defaults``.
    ``memos`` holds one dict per positional field, mapping each token the
    directive has read there before to its value, and then a dict for the
    key=value tokens, mapping each to its field's index and value: most
    tokens repeat, values are immutable, and a name is kept once."""
    fields, npos = d.fields, d.npos
    keyed = memos[npos]
    vals = [_ABSENT] * len(fields)
    dup = False
    for i, tok in enumerate(tokens):
        if i < npos:
            val = memos[i].get(tok)
            if val is not None:
                vals[i] = val
                continue
            j, text = i, tok
        else:
            hit = keyed.get(tok)
            if hit is not None:
                j, val = hit
                if vals[j] is not _ABSENT:
                    dup = True
                vals[j] = val
                continue
            key, eq, text = tok.partition("=")
            if not eq:
                raise ParseError(line, f"expected key=value, got {key!r}")
            j = d.slot.get(key)
            if j is None:
                raise ParseError(line, f"unknown key {key!r}")
        f = fields[j]
        conv = f.conv
        try:
            if conv is TEXT:
                val = text
            elif conv.__class__ is dict:
                val = conv[text]
            elif conv is INT:
                val = int(text, 0)
            elif conv.__class__ is tuple:
                val = int(text, 0)
                lo, hi = conv
                if val < lo:
                    raise ParseError(line, f"{f.key} must be at least {lo}")
                if val >= hi:
                    raise ParseError(line, f"{f.key} must be below {hi:#x}")
            elif conv is NAMES:
                val = tuple(filter(None, text.split(",")))
            elif text[:6] == "fixed:":  # MARKER
                val = int(text[6:], 0)
                if not 0 <= val < MARKER_LIMIT:
                    bound = "at least 0" if val < 0 else f"below {MARKER_LIMIT:#x}"
                    raise ParseError(line, f"{f.key} must be {bound}")
                val = MarkerRule(_FIXED_MARKER, val)
            elif text == "zero" or text == "page":
                val = MarkerRule(MarkerKind(text))
            else:
                raise ValueError(text)
        except (KeyError, ValueError):
            raise ParseError(line, f"bad {f.key}: {text!r}") from None
        if i < npos:
            memos[i][tok] = val
        else:
            keyed[tok] = (j, val)
            if vals[j] is not _ABSENT:
                dup = True
        vals[j] = val
    if dup:
        keys = [tok.partition("=")[0] for tok in tokens[npos:]]
        first = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(line, f"duplicate key {first!r}")
    if len(tokens) < len(fields):  # some field is absent
        for j, f in enumerate(fields):
            if vals[j] is _ABSENT:
                if f.required:
                    raise ParseError(line, f"missing {f.key}")
                vals[j] = d.defaults[j]
    return vals


def _given(d: Directive, vals: list) -> dict:
    """The attributes a non-section directive's line gave, by name."""
    return {f.attr: v for f, v in zip(d.fields, vals) if v is not None}


def parse_scenario(text: str) -> ScenarioFile:
    """Parse scenario text; raises ParseError (with a line number) for
    syntax problems and SemanticError for inconsistent declarations."""
    sf = ScenarioFile()
    pager_kws: list[dict] = []
    # Keyed by pager name; a pager's backing and dbrange lines may come
    # before or after its pager line.
    backing: dict[str, list[tuple[int, int]]] = {}
    dbranges: dict[str | int, list[DbRange]] = {}  # by pager name or asid
    layout_line = 0  # line number of the layout line, 0 if there is none
    # Per directive word: its grammar entry, the memos _read keeps for it,
    # and the append of the ScenarioFile list its records go to (None for
    # the directives whose structural rules are spelled out below).  Every
    # positional name shares one memo, so each name is kept as one string.
    names: dict[str, str] = {}
    table = {
        word: (
            d,
            [names if f.conv is TEXT else {} for f in d.fields[:d.npos]] + [{}],
            d.section and getattr(sf, d.section).append,
        )
        for word, d in GRAMMAR.items()
    }

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        word = tokens[0]
        entry = table.get(word)
        if entry is None:
            raise ParseError(lineno, f"unknown directive {word!r}")
        d, memos, add = entry
        access = word == "access"
        hold = access and tokens[-1] == "hold"
        if hold:
            tokens.pop()
        vals = _read(d, tokens[1:], lineno, memos)

        if add is not None:
            if access:
                vals.append(hold)
            add(_new(d.record, vals))
        elif word == "layout":
            if layout_line:
                raise ParseError(lineno, "duplicate layout line")
            layout_line = lineno
            try:
                sf.layout = LayoutConfig(**_given(d, vals))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif word == "option":
            sf.options = replace(sf.options, **_given(d, vals))
        elif word == "pager":
            pager_kws.append(_given(d, vals))
        elif word == "backing":
            pager, vaddr, frame = vals
            backing.setdefault(pager, []).append((vaddr, frame))
        else:  # dbrange
            asid, pager, start, end, target = vals
            if (asid is None) == (pager is None):
                raise ParseError(lineno, "dbrange needs asid= or pager= (not both)")
            if start >= end:
                raise ParseError(lineno, "empty dbrange")
            owner = pager if asid is None else asid
            dbranges.setdefault(owner, []).append(DbRange(start, end, target))

    sf.pagers = [
        PagerDecl(
            **kw,
            backing=tuple(backing.pop(kw["name"], ())),
            dbranges=tuple(dbranges.pop(kw["name"], ())),
        )
        for kw in pager_kws
    ]
    if backing:
        raise SemanticError(f"backing for undeclared pager {next(iter(backing))!r}")
    for owner in dbranges:
        if isinstance(owner, str):
            raise SemanticError(f"dbrange for undeclared pager {owner!r}")
    sf.space_dbranges = {asid: tuple(r) for asid, r in dbranges.items()}
    sf.declared = _validate(sf)
    return sf


def _validate(sf: ScenarioFile) -> tuple:
    """Check every name and bound; return what set-up reads: the threads
    by name, the names of those that access memory in order of first
    access, the assign lines of their spaces as ``(asid, rid, manager
    tid)`` in file order, the tids of ``option order=``, whether a
    pager-step line exists, and the mapping database of each set of
    dbrange lines.  Without dbrange lines only the map stays tracked by
    the collector."""
    if not sf.threads:
        raise SemanticError("no threads declared")
    by_name: dict[str, ThreadDecl] = {}
    tids: set[int] = set()
    for t in sf.threads:
        if t.name in by_name:
            raise SemanticError(f"duplicate thread name {t.name!r}")
        by_name[t.name] = t
        if t.tid in tids:
            raise SemanticError(f"duplicate tid {t.tid}")
        tids.add(t.tid)
        if t.tid <= 0:
            raise SemanticError(f"thread {t.name!r}: tid must be positive")
        if t.asid <= 0:
            raise SemanticError(f"thread {t.name!r}: asid must be positive")

    def thread(name: str) -> ThreadDecl:
        if name not in by_name:
            raise SemanticError(f"undeclared thread {name!r}")
        return by_name[name]

    pager_names: set[str] = set()
    for p in sf.pagers:
        if p.name in pager_names:
            raise SemanticError(f"duplicate pager declaration {p.name!r}")
        pager_names.add(p.name)
        decl = thread(p.name)
        if decl.role is not _PAGER:
            raise SemanticError(
                f"pager behavior declared for {p.name!r}, whose role is "
                f"{decl.role.value}"
            )
        if p.backing and p.policy is not _FIXED_POLICY:
            raise SemanticError(
                f"backing declared for non-fixed pager {p.name!r}"
            )
        if p.dbranges and p.policy is not _REFLECTING:
            raise SemanticError(
                f"dbrange declared for non-reflecting pager {p.name!r}"
            )

    def database(ranges, what: str) -> MappingDatabase:
        """The mapping database of ``ranges``, each target a declared
        pager's tid; every build of this parse shares it."""
        db = MappingDatabase()
        for r in ranges:
            if r.target not in pager_names:
                raise SemanticError(f"dbrange target {r.target!r} is not a pager")
            try:
                db.insert(r.start, r.end, by_name[r.target].tid)
            except OverlappingRangeError as exc:
                raise SemanticError(
                    f"overlapping db ranges in {what}: {exc}"
                ) from None
        return db

    # By pager name or asid, as parse_scenario keys the ranges.  A reflecting
    # pager without dbrange lines gets an empty database: each of its
    # reflections is then a NoDatabaseEntryError.
    dbs: dict[str | int, MappingDatabase] = {
        p.name: database(p.dbranges, f"pager {p.name!r}")
        for p in sf.pagers if p.policy is _REFLECTING
    }

    for t in sf.threads:
        if t.pager_name is not None and t.pager_name not in pager_names:
            raise SemanticError(
                f"thread {t.name!r} names undeclared pager {t.pager_name!r}"
            )

    declared_asids = {t.asid for t in sf.threads}
    for asid, ranges in sf.space_dbranges.items():
        if asid not in declared_asids:
            raise SemanticError(f"dbrange for unknown asid {asid}")
        dbs[asid] = database(ranges, f"asid {asid}")

    for a in sf.assigns:
        if a.asid not in declared_asids:
            raise SemanticError(f"assign names unknown asid {a.asid}")
        if not 0 <= a.rid < sf.layout.region_count:
            raise SemanticError(
                f"assign rid {a.rid} outside layout of "
                f"{sf.layout.region_count} regions"
            )
        if a.pager_name not in pager_names:
            raise SemanticError(
                f"assign names undeclared pager {a.pager_name!r}"
            )

    # Membership tests inline: no Python-level call per script item.  A
    # class test and an index read are each quicker than isinstance and a
    # field read by name on a tuple record.
    faulters: dict[str, int] = {}  # name -> asid
    pager_step = False
    for item in sf.script:
        cls = item.__class__
        if cls is AccessItem:
            name = item[0]
            if name not in faulters:
                faulters[name] = thread(name).asid
        elif cls is PagerStepItem:
            pager_step = True
            if item.pager not in pager_names:
                raise SemanticError(
                    f"pager-step names undeclared pager {item.pager!r}"
                )
        elif cls is not YieldItem and item.thread not in by_name:
            thread(item.thread)

    if sf.options.order and sf.options.schedule == "round-robin":
        raise SemanticError(
            "option order= needs schedule=deterministic, not round-robin"
        )
    order = tuple([thread(name).tid for name in sf.options.order])
    faulting = set(faulters.values())
    assigns = tuple([
        (a.asid, a.rid, by_name[a.pager_name].tid)
        for a in sf.assigns if a.asid in faulting
    ])
    return by_name, tuple(faulters), assigns, order, pager_step, dbs


# ---- serialization -------------------------------------------------------


def _line(word: str, values: dict) -> str:
    d = GRAMMAR[word]
    parts = [word]
    parts += [f.fmt(values[f.attr]) for f in d.fields[:d.npos]]
    for f in d.fields[d.npos:]:
        val = values.get(f.attr)
        if val is not None and val != ():
            parts.append(f"{f.key}={f.fmt(val)}")
    return " ".join(parts)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a scenario back to canonical text.  Parsing the output gives
    a structurally equal ScenarioFile (defaults are written explicitly, so
    the second round trip is the identity)."""
    out = [_line("layout", vars(sf.layout)), _line("option", vars(sf.options))]
    out += [_line("thread", t._asdict()) for t in sf.threads]
    for p in sf.pagers:
        out.append(_line("pager", vars(p)))
        out += [
            _line("backing", {"pager": p.name, "vaddr": vaddr, "frame": frame})
            for vaddr, frame in p.backing
        ]
        out += [_line("dbrange", {"pager": p.name, **vars(r)}) for r in p.dbranges]
    for asid in sorted(sf.space_dbranges):
        out += [
            _line("dbrange", {"asid": asid, **vars(r)})
            for r in sf.space_dbranges[asid]
        ]
    out += [_line("assign", a._asdict()) for a in sf.assigns]
    for item in sf.script:
        line = _line(_SCRIPT_WORDS[type(item)], item._asdict())
        out.append(line + " hold" if getattr(item, "hold", False) else line)
    out += [_line("expect", e._asdict()) for e in sf.expectations]
    return "\n".join(out) + "\n"
