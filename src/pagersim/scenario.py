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
has been read.
"""

from dataclasses import dataclass, field, replace

from .address_space import (
    ADDRESS_SPACE_SIZE,
    DEFAULT_PAGE_SIZE,
    DEFAULT_PAGES_PER_REGION,
    DEFAULT_REGION_COUNT,
    LayoutConfig,
)
from .engine import AccessType, ThreadRole
from .fault_dispatch import VerdictCode
from .pagers import MarkerKind, MarkerRule, PagerPolicy


class ScenarioError(Exception):
    """Base class for problems with a scenario file."""


class ParseError(ScenarioError):
    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class SemanticError(ScenarioError):
    pass


SCHEME_TOKENS = ("monolithic", "l4-single", "l4re", "proposed")


@dataclass(frozen=True)
class ThreadDecl:
    name: str
    tid: int
    asid: int
    role: ThreadRole
    pager_name: str | None = None


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


@dataclass(frozen=True)
class AssignDecl:
    asid: int
    rid: int
    pager_name: str


@dataclass(frozen=True)
class AccessItem:
    thread: str
    vaddr: int
    access: AccessType
    hold: bool = False


@dataclass(frozen=True)
class DispatchItem:
    thread: str


@dataclass(frozen=True)
class PagerStepItem:
    pager: str
    count: int = 1


@dataclass(frozen=True)
class SwitchItem:
    thread: str


@dataclass(frozen=True)
class YieldItem:
    pass


ScriptItem = AccessItem | DispatchItem | PagerStepItem | SwitchItem | YieldItem


@dataclass(frozen=True)
class Expectation:
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


@dataclass
class ScenarioFile:
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    options: Options = field(default_factory=Options)
    threads: list[ThreadDecl] = field(default_factory=list)
    pagers: list[PagerDecl] = field(default_factory=list)
    space_dbranges: dict[int, tuple[DbRange, ...]] = field(default_factory=dict)
    assigns: list[AssignDecl] = field(default_factory=list)
    script: list[ScriptItem] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)


# ---- parsing -------------------------------------------------------------


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(line, f"bad {what}: {tok!r}") from None


def _kv(tokens: list[str], line: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(line, f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in out:
            raise ParseError(line, f"duplicate key {key!r}")
        out[key] = val
    return out


def _take(kv: dict[str, str], key: str, line: int) -> str:
    try:
        return kv.pop(key)
    except KeyError:
        raise ParseError(line, f"missing {key}=") from None


def _reject_extra(kv: dict[str, str], line: int) -> None:
    if kv:
        raise ParseError(line, f"unknown key {next(iter(kv))!r}")


_ROLES = {r.value: r for r in ThreadRole if r is not ThreadRole.KERNEL_INTERNAL}
_POLICIES = {p.value: p for p in PagerPolicy}
_VERDICTS = {v.value: v for v in VerdictCode}


def _parse_marker(tok: str, line: int) -> MarkerRule:
    if tok == "zero":
        return MarkerRule(MarkerKind.ZERO)
    if tok == "page":
        return MarkerRule(MarkerKind.PAGE)
    if tok.startswith("fixed:"):
        return MarkerRule(MarkerKind.FIXED, _int(tok[6:], line, "marker value"))
    raise ParseError(line, f"bad marker rule {tok!r}")


def parse_scenario(text: str) -> ScenarioFile:
    """Parse scenario text; raises ParseError (with a line number) for
    syntax problems and SemanticError for inconsistent declarations."""
    layout_kw: dict[str, int] = {}
    options = Options()
    threads: list[ThreadDecl] = []
    pager_decls: list[dict] = []
    # Keyed by pager name; a pager's backing and dbrange lines may come
    # before or after its pager line.
    backing: dict[str, list[tuple[int, int]]] = {}
    pager_dbs: dict[str, list[DbRange]] = {}
    space_dbs: dict[int, list[DbRange]] = {}
    assigns: list[AssignDecl] = []
    script: list[ScriptItem] = []
    expectations: list[Expectation] = []
    layout_line = 0  # line number of the layout line, 0 if there is none

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word, rest = tokens[0], tokens[1:]

        if word == "layout":
            if layout_line:
                raise ParseError(lineno, "duplicate layout line")
            layout_line = lineno
            kv = _kv(rest, lineno)
            for key in ("regions", "pages_per_region", "page_size", "user_base"):
                if key in kv:
                    layout_kw[key] = _int(kv.pop(key), lineno, key)
            _reject_extra(kv, lineno)

        elif word == "option":
            kv = _kv(rest, lineno)
            fields = {}
            if "mode" in kv:
                val = kv.pop("mode")
                if val not in ("auto", "manual"):
                    raise ParseError(lineno, f"bad mode {val!r}")
                fields["mode"] = val
            if "schedule" in kv:
                val = kv.pop("schedule")
                if val not in ("deterministic", "round-robin"):
                    raise ParseError(lineno, f"bad schedule {val!r}")
                fields["schedule"] = val
            if "seed" in kv:
                fields["seed"] = _int(kv.pop("seed"), lineno, "seed")
            if "frames" in kv:
                fields["frames"] = _int(kv.pop("frames"), lineno, "frames")
                if fields["frames"] < 0:
                    raise ParseError(lineno, "frames must not be negative")
            if "order" in kv:
                fields["order"] = tuple(
                    t for t in kv.pop("order").split(",") if t
                )
            _reject_extra(kv, lineno)
            options = replace(options, **fields)

        elif word == "thread":
            if not rest:
                raise ParseError(lineno, "thread needs a name")
            name, kv = rest[0], _kv(rest[1:], lineno)
            tid = _int(_take(kv, "tid", lineno), lineno, "tid")
            asid = _int(_take(kv, "asid", lineno), lineno, "asid")
            role_tok = _take(kv, "role", lineno)
            if role_tok not in _ROLES:
                raise ParseError(lineno, f"bad role {role_tok!r}")
            pager_name = kv.pop("pager", None)
            _reject_extra(kv, lineno)
            threads.append(
                ThreadDecl(name=name, tid=tid, asid=asid,
                           role=_ROLES[role_tok], pager_name=pager_name)
            )

        elif word == "pager":
            if not rest:
                raise ParseError(lineno, "pager needs a thread name")
            name, kv = rest[0], _kv(rest[1:], lineno)
            policy_tok = _take(kv, "policy", lineno)
            if policy_tok not in _POLICIES:
                raise ParseError(lineno, f"bad policy {policy_tok!r}")
            decl = {
                "name": name,
                "policy": _POLICIES[policy_tok],
                "marker_rule": (
                    _parse_marker(kv.pop("marker"), lineno)
                    if "marker" in kv else MarkerRule()
                ),
            }
            if "revoke_after" in kv:
                decl["revoke_after"] = _int(
                    kv.pop("revoke_after"), lineno, "revoke_after"
                )
            if "accepts" in kv:
                val = kv.pop("accepts")
                if val not in ("yes", "no"):
                    raise ParseError(lineno, f"bad accepts {val!r}")
                decl["accepts"] = val == "yes"
            _reject_extra(kv, lineno)
            pager_decls.append(decl)

        elif word == "backing":
            if not rest:
                raise ParseError(lineno, "backing needs a pager name")
            name, kv = rest[0], _kv(rest[1:], lineno)
            vaddr = _int(_take(kv, "vaddr", lineno), lineno, "vaddr")
            frame = _int(_take(kv, "frame", lineno), lineno, "frame")
            _reject_extra(kv, lineno)
            backing.setdefault(name, []).append((vaddr, frame))

        elif word == "dbrange":
            kv = _kv(rest, lineno)
            if ("asid" in kv) == ("pager" in kv):
                raise ParseError(lineno, "dbrange needs asid= or pager= (not both)")
            owner = kv.pop("pager", None)
            start_tok = _take(kv, "start", lineno)
            end_tok = _take(kv, "end", lineno)
            target = _take(kv, "target", lineno)
            asid_tok = kv.pop("asid", None)
            _reject_extra(kv, lineno)
            start = _int(start_tok, lineno, "start")
            end = _int(end_tok, lineno, "end")
            if start >= end:
                raise ParseError(lineno, "empty dbrange")
            rng = DbRange(start=start, end=end, target=target)
            if owner is None:
                asid = _int(asid_tok, lineno, "asid")
                space_dbs.setdefault(asid, []).append(rng)
            else:
                pager_dbs.setdefault(owner, []).append(rng)

        elif word == "assign":
            kv = _kv(rest, lineno)
            asid = _int(_take(kv, "asid", lineno), lineno, "asid")
            rid = _int(_take(kv, "rid", lineno), lineno, "rid")
            pager_name = _take(kv, "pager", lineno)
            _reject_extra(kv, lineno)
            assigns.append(AssignDecl(asid=asid, rid=rid, pager_name=pager_name))

        elif word == "access":
            if len(rest) < 3:
                raise ParseError(lineno, "access needs: thread vaddr read|write")
            name = rest[0]
            vaddr = _int(rest[1], lineno, "vaddr")
            if rest[2] == "read":
                acc = AccessType.READ
            elif rest[2] == "write":
                acc = AccessType.WRITE
            else:
                raise ParseError(lineno, f"bad access kind {rest[2]!r}")
            hold = False
            if len(rest) == 4:
                if rest[3] != "hold":
                    raise ParseError(lineno, f"unexpected token {rest[3]!r}")
                hold = True
            elif len(rest) > 4:
                raise ParseError(lineno, "trailing tokens after access")
            if not 0 <= vaddr < ADDRESS_SPACE_SIZE:
                raise ParseError(lineno, f"address {vaddr:#x} outside 32-bit space")
            script.append(AccessItem(thread=name, vaddr=vaddr, access=acc, hold=hold))

        elif word == "dispatch":
            if len(rest) != 1:
                raise ParseError(lineno, "dispatch needs exactly a thread name")
            script.append(DispatchItem(thread=rest[0]))

        elif word == "pager-step":
            if not rest or len(rest) > 2:
                raise ParseError(lineno, "pager-step needs: pager [count]")
            count = _int(rest[1], lineno, "count") if len(rest) == 2 else 1
            if count < 1:
                raise ParseError(lineno, "count must be at least 1")
            script.append(PagerStepItem(pager=rest[0], count=count))

        elif word == "switch":
            if len(rest) != 1:
                raise ParseError(lineno, "switch needs exactly a thread name")
            script.append(SwitchItem(thread=rest[0]))

        elif word == "yield":
            if rest:
                raise ParseError(lineno, "yield takes no arguments")
            script.append(YieldItem())

        elif word == "expect":
            kv = _kv(rest, lineno)
            fault = _int(_take(kv, "fault", lineno), lineno, "fault index")
            if fault < 0:
                raise ParseError(lineno, "fault index must not be negative")
            verdict_tok = _take(kv, "verdict", lineno)
            if verdict_tok not in _VERDICTS:
                raise ParseError(lineno, f"bad verdict {verdict_tok!r}")
            exp = {
                "fault": fault,
                "verdict": _VERDICTS[verdict_tok],
            }
            if "scheme" in kv:
                tok = kv.pop("scheme")
                if tok not in SCHEME_TOKENS:
                    raise ParseError(lineno, f"bad scheme {tok!r}")
                exp["scheme"] = tok
            for key, attr in (
                ("mode", "mode"), ("ctx", "ctx"),
                ("ipc", "ipc"), ("invocations", "invocations"),
            ):
                if key in kv:
                    exp[attr] = _int(kv.pop(key), lineno, key)
            _reject_extra(kv, lineno)
            expectations.append(Expectation(**exp))

        else:
            raise ParseError(lineno, f"unknown directive {word!r}")

    try:
        layout = LayoutConfig(
            region_count=layout_kw.get("regions", DEFAULT_REGION_COUNT),
            pages_per_region=layout_kw.get(
                "pages_per_region", DEFAULT_PAGES_PER_REGION
            ),
            page_size=layout_kw.get("page_size", DEFAULT_PAGE_SIZE),
            user_base=layout_kw.get("user_base", 0),
        )
    except ValueError as exc:
        raise ParseError(layout_line, str(exc)) from None

    pagers = [
        PagerDecl(
            **decl,
            backing=tuple(backing.pop(decl["name"], ())),
            dbranges=tuple(pager_dbs.pop(decl["name"], ())),
        )
        for decl in pager_decls
    ]
    if backing:
        raise SemanticError(f"backing for undeclared pager {next(iter(backing))!r}")
    if pager_dbs:
        raise SemanticError(f"dbrange for undeclared pager {next(iter(pager_dbs))!r}")

    sf = ScenarioFile(
        layout=layout,
        options=options,
        threads=threads,
        pagers=pagers,
        space_dbranges={a: tuple(r) for a, r in space_dbs.items()},
        assigns=assigns,
        script=script,
        expectations=expectations,
    )
    _validate(sf)
    return sf


def _check_no_overlap(ranges, what: str) -> None:
    ordered = sorted(ranges, key=lambda r: r.start)
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.start:
            raise SemanticError(
                f"overlapping db ranges in {what}: "
                f"[{a.start:#x},{a.end:#x}) and [{b.start:#x},{b.end:#x})"
            )


def _validate(sf: ScenarioFile) -> None:
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
        if decl.role is not ThreadRole.PAGER:
            raise SemanticError(
                f"pager behavior declared for {p.name!r}, whose role is "
                f"{decl.role.value}"
            )
        if p.backing and p.policy is not PagerPolicy.FIXED:
            raise SemanticError(
                f"backing declared for non-fixed pager {p.name!r}"
            )
        if p.dbranges:
            if p.policy is not PagerPolicy.REFLECTING:
                raise SemanticError(
                    f"dbrange declared for non-reflecting pager {p.name!r}"
                )
            for r in p.dbranges:
                thread(r.target)
            _check_no_overlap(p.dbranges, f"pager {p.name!r}")
        if p.revoke_after is not None and p.revoke_after < 1:
            raise SemanticError(f"pager {p.name!r}: revoke_after must be >= 1")

    for t in sf.threads:
        if t.pager_name is not None and t.pager_name not in pager_names:
            raise SemanticError(
                f"thread {t.name!r} names undeclared pager {t.pager_name!r}"
            )

    declared_asids = {t.asid for t in sf.threads}
    for asid, ranges in sf.space_dbranges.items():
        if asid not in declared_asids:
            raise SemanticError(f"dbrange for unknown asid {asid}")
        for r in ranges:
            thread(r.target)
        _check_no_overlap(ranges, f"asid {asid}")

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

    for item in sf.script:
        if isinstance(item, (AccessItem, DispatchItem, SwitchItem)):
            thread(item.thread)
        elif isinstance(item, PagerStepItem) and item.pager not in pager_names:
            raise SemanticError(
                f"pager-step names undeclared pager {item.pager!r}"
            )

    for name in sf.options.order:
        thread(name)


# ---- serialization -------------------------------------------------------


def _fmt_marker(rule: MarkerRule) -> str:
    if rule.kind is MarkerKind.ZERO:
        return "zero"
    if rule.kind is MarkerKind.PAGE:
        return "page"
    return f"fixed:{rule.value}"


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a scenario back to canonical text.  Parsing the output gives
    a structurally equal ScenarioFile (defaults are written explicitly, so
    the second round trip is the identity)."""
    out: list[str] = []
    lay = sf.layout
    out.append(
        f"layout regions={lay.region_count} "
        f"pages_per_region={lay.pages_per_region} "
        f"page_size={lay.page_size} user_base={lay.user_base:#x}"
    )
    opt = sf.options
    line = (
        f"option mode={opt.mode} schedule={opt.schedule} seed={opt.seed}"
    )
    if opt.frames is not None:
        line += f" frames={opt.frames}"
    if opt.order:
        line += f" order={','.join(opt.order)}"
    out.append(line)
    for t in sf.threads:
        line = f"thread {t.name} tid={t.tid} asid={t.asid} role={t.role.value}"
        if t.pager_name is not None:
            line += f" pager={t.pager_name}"
        out.append(line)
    for p in sf.pagers:
        line = (
            f"pager {p.name} policy={p.policy.value} "
            f"marker={_fmt_marker(p.marker_rule)} "
            f"accepts={'yes' if p.accepts else 'no'}"
        )
        if p.revoke_after is not None:
            line += f" revoke_after={p.revoke_after}"
        out.append(line)
        for vaddr, frame in p.backing:
            out.append(f"backing {p.name} vaddr={vaddr:#x} frame={frame}")
        for r in p.dbranges:
            out.append(
                f"dbrange pager={p.name} start={r.start:#x} "
                f"end={r.end:#x} target={r.target}"
            )
    for asid in sorted(sf.space_dbranges):
        for r in sf.space_dbranges[asid]:
            out.append(
                f"dbrange asid={asid} start={r.start:#x} "
                f"end={r.end:#x} target={r.target}"
            )
    for a in sf.assigns:
        out.append(f"assign asid={a.asid} rid={a.rid} pager={a.pager_name}")
    for item in sf.script:
        if isinstance(item, AccessItem):
            line = (
                f"access {item.thread} {item.vaddr:#x} "
                f"{'read' if item.access is AccessType.READ else 'write'}"
            )
            if item.hold:
                line += " hold"
            out.append(line)
        elif isinstance(item, DispatchItem):
            out.append(f"dispatch {item.thread}")
        elif isinstance(item, PagerStepItem):
            out.append(f"pager-step {item.pager} {item.count}")
        elif isinstance(item, SwitchItem):
            out.append(f"switch {item.thread}")
        elif isinstance(item, YieldItem):
            out.append("yield")
    for e in sf.expectations:
        line = f"expect fault={e.fault} verdict={e.verdict.value}"
        if e.scheme is not None:
            line += f" scheme={e.scheme}"
        for key, val in (
            ("mode", e.mode), ("ctx", e.ctx),
            ("ipc", e.ipc), ("invocations", e.invocations),
        ):
            if val is not None:
                line += f" {key}={val}"
        out.append(line)
    return "\n".join(out) + "\n"
