"""Text formats: component specs, tables, networks, traces, and DOT export.

Four line-oriented formats, all UTF-8 with LF endings and ``#`` comments.
Parsers are total: any byte sequence either parses or produces a list of
located errors, never an uncaught exception.  Printers are canonical: equal
values print to identical bytes, and parsing a printed value gives the value
back.

Parsers check syntax only.  Every reference error comes located from
:mod:`tstd.model` (the rules of ``validate_spec``) or
:func:`tstd.network.build_network`, and the parsers map each location
(declaration, transition clause, wire, instance) to its line.  They refuse a
second component name or initial state themselves, since a spec holds one.

Component text (``*.tstd``)::

    component NAME
    in chan NAME
    out chan NAME
    var NAME = INT
    state NAME [initial]
    trans SRC -> DST
      when CH: PATTERN[, VAR REL INT ...]
      emit CH: MSG ... | pass(CH) | -
      set VAR := VAR + INT | VAR - INT | INT

with PATTERN one of ``any``, ``empty``, ``nonempty``, ``contains(tag[:int])``,
``len=K``, ``len>=K``, ``first=tag[:int]`` and messages written ``tag`` or
``tag:int``.  Clause lines are indented; everything else starts in column 1.

Component table (``*.ttab``): preamble lines ``@component``, ``@in``, ``@out``,
``@var NAME = INT``, ``@state NAME``, ``@initial NAME``, then a header row
``source, when:CH..., guard, emit:CH..., set, target`` (one ``when:`` column
per input channel, one ``emit:`` column per output channel, declaration
order) and one comma-separated row per transition.  Cells reuse the textual
clause syntax; multiple guards or updates within a cell are separated by
``;`` since the comma is the column separator.  An empty cell means
unconstrained / no emission / no update.

Network (``*.tnet``)::

    use ID = file PATH | delay D | merge
    wire A.out -> B.in
    wire extern NAME -> B.in
    wire A.out -> extern NAME

:func:`parse_network` and its helpers import :mod:`tstd.network` when called,
so parsing the other formats does not load it.

Trace (``*.trc``): a header ``ticks CH...`` followed by one line per tick,
``CH: m1 m2 | CH2: -`` where ``-`` is the empty interval.  Canonical form
lists channels sorted by name.  A comment-only line is not a tick.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._value import value
from .executor import Trace
from .model import (
    ChannelDecl,
    ComponentSpec,
    Direction,
    IntervalGuard,
    IntervalPattern,
    OutputAction,
    Relation,
    Severity,
    Transition,
    UpdateOp,
    VarDecl,
    VarGuard,
    VarUpdate,
    _spec_errors,
    validate_spec,
)
from .streams import IDENT_RE, Message, StreamPrefix, TimeInterval

__all__ = [
    "ParseFailure",
    "ParseIssue",
    "SourceSpan",
    "export_dot",
    "parse_component",
    "parse_network",
    "parse_table",
    "parse_trace",
    "print_component",
    "print_table",
    "print_trace",
]


@value(slots=True)
class SourceSpan:
    """1-based line/column position of a parse diagnostic."""

    line: int
    column: int

    def render(self) -> str:
        return f"{self.line}:{self.column}"


@value(slots=True)
class ParseIssue:
    span: SourceSpan
    message: str

    def render(self) -> str:
        return f"{self.span.render()}: {self.message}"


class ParseFailure(ValueError):
    """Parsing failed; ``issues`` lists every located problem found."""

    def __init__(self, issues: Sequence[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(i.render() for i in self.issues))


class _LongInteger(ValueError):
    """An integer literal with more digits than ``int`` converts."""


def _int(digits: str) -> int:
    """``int`` of a ``-?\\d+`` literal; raises _LongInteger past the digit limit."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("-"))
        raise _LongInteger(
            f"integer literal of {count} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


class _Issues:
    """Error accumulator shared by all the parsers."""

    def __init__(self) -> None:
        self.items: List[ParseIssue] = []

    def add(self, line: int, column: int, message: str) -> None:
        self.items.append(ParseIssue(SourceSpan(line, column), message))

    def __bool__(self) -> bool:
        return bool(self.items)

    def raise_if_any(self) -> None:
        if self.items:
            raise ParseFailure(self.items)

    @contextmanager
    def located(self, line: int, column: int = 1) -> Iterator[None]:
        """Report an integer too long to convert, raised in the block, at (line, column)."""
        try:
            yield
        except _LongInteger as exc:
            self.add(line, column, str(exc))


_MESSAGE_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?::(-?\d+))?\Z")
_INT_RE = re.compile(r"-?\d+\Z")
_LEN_RE = re.compile(r"len\s*(>=|=)\s*(-?\d+)\Z")
_FIRST_RE = re.compile(r"first\s*=\s*(\S+)\Z")
_CONTAINS_RE = re.compile(r"contains\(\s*(\S+?)\s*\)\Z")
_VARGUARD_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*(<=|>=|!=|==|=|<|>)\s*(-?\d+)\Z")
_UPDATE_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_]*)\s*:=\s*(?:([A-Za-z][A-Za-z0-9_]*)\s*([+-])\s*)?(-?\d+)\Z"
)
_PASS_RE = re.compile(r"pass\(\s*([A-Za-z][A-Za-z0-9_]*)\s*\)\Z")


def _parse_message(token: str) -> Optional[Message]:
    m = _MESSAGE_RE.match(token)
    if not m:
        return None
    tag, digits = m.groups()
    return Message(tag, None if digits is None else _int(digits))


def _parse_pattern(text: str) -> Optional[IntervalPattern]:
    text = text.strip()
    if text == "any":
        return IntervalPattern.any()
    if text == "empty":
        return IntervalPattern.empty()
    if text == "nonempty":
        return IntervalPattern.nonempty()
    m = _LEN_RE.match(text)
    if m:
        count = _int(m.group(2))
        if count < 0:
            return None
        return IntervalPattern.len_ge(count) if m.group(1) == ">=" else IntervalPattern.len_eq(count)
    m = _CONTAINS_RE.match(text)
    if m:
        msg = _parse_message(m.group(1))
        return IntervalPattern.contains(msg) if msg else None
    m = _FIRST_RE.match(text)
    if m:
        msg = _parse_message(m.group(1))
        return IntervalPattern.first_is(msg) if msg else None
    return None


def _parse_var_guard(text: str) -> Optional[VarGuard]:
    m = _VARGUARD_RE.match(text.strip())
    if not m:
        return None
    return VarGuard(m.group(1), Relation.parse(m.group(2)), _int(m.group(3)))


def _parse_update(text: str) -> Optional[VarUpdate]:
    m = _UPDATE_RE.match(text.strip())
    if not m:
        return None
    target, base, sign, raw = m.groups()
    value = _int(raw)
    if base is None:
        return VarUpdate(target, UpdateOp.SET, value)
    if base != target:
        return None
    if sign == "-":
        value = -value
    return VarUpdate(target, UpdateOp.ADD, value)


def _strip_comment(raw: str) -> str:
    pos = raw.find("#")
    return raw if pos < 0 else raw[:pos]


def _logical_lines(text: str) -> Iterable[Tuple[int, str]]:
    """(line number, comment-stripped content) pairs: blank lines are kept
    (a trace tick can be one), lines holding only a comment are dropped.
    A CR before the LF stays in the content; every parser strips the lines
    it reads."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "#" not in text:
        # Nothing to strip: each line is its own content.
        return enumerate(lines, 1)
    return [
        (i + 1, _strip_comment(raw))
        for i, raw in enumerate(lines)
        if not raw.lstrip().startswith("#")
    ]


# --------------------------------------------------------------------------
# Component: textual style


class _RawTransition:
    """A transition's clauses as written, with their lines per clause kind."""

    def __init__(self, line: int, source: str, target: str):
        self.source = source
        self.target = target
        self.interval_guards: List[IntervalGuard] = []
        self.var_guards: List[VarGuard] = []
        self.outputs: List[OutputAction] = []
        self.updates: List[VarUpdate] = []
        self._clauses = {
            "when": self.interval_guards,
            "guard": self.var_guards,
            "emit": self.outputs,
            "set": self.updates,
        }
        self.lines: Dict[str, List[int]] = {kind: [] for kind in self._clauses}
        self.lines["trans"] = [line]

    def add(self, kind: str, line: int, clause) -> None:
        self._clauses[kind].append(clause)
        self.lines[kind].append(line)


class _SpecBuilder:
    """Shared back half of the textual and table parsers.

    Collects the declarations and raw transitions as written, reports the
    findings of :func:`tstd.model._spec_errors` at their lines (line 1 for a
    missing declaration), and assembles the spec.
    """

    def __init__(self, issues: _Issues):
        self.issues = issues
        self.name: Optional[str] = None
        self.channels: List[ChannelDecl] = []
        self.vars: List[VarDecl] = []
        self.states: List[str] = []
        self.initial: Optional[str] = None
        self.raw_transitions: List[_RawTransition] = []
        # The line of each declaration, keyed as the locations of _spec_errors.
        self.lines: Dict[str, List[int]] = {
            kind: [] for kind in ("component", "channel", "variable", "state", "initial")
        }

    def declare_component(self, line: int, name: str) -> None:
        if self.name is not None:
            self.issues.add(line, 1, "duplicate component declaration")
        else:
            self.name = name
            self.lines["component"].append(line)

    def declare_channel(self, line: int, name: str, direction: Direction) -> None:
        self.channels.append(ChannelDecl(name, direction))
        self.lines["channel"].append(line)

    def declare_var(self, line: int, keyword: str, rest: str) -> None:
        """The ``NAME = INT`` after ``keyword`` on a variable line."""
        name, eq, value = (p.strip() for p in rest.partition("="))
        if not IDENT_RE.match(name) or eq != "=" or not _INT_RE.match(value):
            self.issues.add(line, 1, f"expected '{keyword} NAME = INT'")
            return
        with self.issues.located(line):
            self.vars.append(VarDecl(name, _int(value)))
            self.lines["variable"].append(line)

    def declare_state(self, line: int, name: str) -> None:
        self.states.append(name)
        self.lines["state"].append(line)

    def declare_initial(self, line: int, name: str) -> None:
        if self.initial is not None:
            self.issues.add(line, 1, "more than one initial state")
        else:
            self.initial = name
            self.lines["initial"].append(line)

    def in_channels(self) -> List[str]:
        return list(dict.fromkeys(c.name for c in self.channels if c.direction is Direction.IN))

    def out_channels(self) -> List[str]:
        return list(dict.fromkeys(c.name for c in self.channels if c.direction is Direction.OUT))

    def _line(self, location: Optional[tuple]) -> int:
        if location is None:
            return 1
        if len(location) == 3:
            index, clause, position = location
            return self.raw_transitions[index - 1].lines[clause][position]
        kind, position = location
        return self.lines[kind][position]

    def finish(self) -> Optional[ComponentSpec]:
        findings = _spec_errors(
            self.name, self.channels, self.vars, self.states, self.initial, self.raw_transitions
        )
        for finding in findings:
            self.issues.add(self._line(finding.location), 1, finding.message)
        if self.issues:
            return None
        return ComponentSpec(
            name=self.name,
            channels=tuple(self.channels),
            vars=tuple(self.vars),
            states=tuple(self.states),
            initial=self.initial,
            transitions=tuple(
                Transition(
                    raw.source,
                    raw.target,
                    tuple(raw.interval_guards),
                    tuple(raw.var_guards),
                    tuple(raw.outputs),
                    tuple(raw.updates),
                )
                for raw in self.raw_transitions
            ),
        )


def _parse_emission(line: int, channel: str, body: str, issues: _Issues) -> Optional[OutputAction]:
    body = body.strip()
    m = _PASS_RE.match(body)
    if m:
        return OutputAction.passthrough(channel, m.group(1))
    if body in ("", "-"):
        return OutputAction.literal(channel, ())
    messages = []
    for token in body.split():
        msg = _parse_message(token)
        if msg is None:
            issues.add(line, 1, f"malformed message token {token!r}")
            return None
        messages.append(msg)
    return OutputAction.literal(channel, messages)


def parse_component(text: str) -> ComponentSpec:
    """Parse the textual component style; raises ParseFailure on any error."""
    issues = _Issues()
    builder = _SpecBuilder(issues)
    current: Optional[_RawTransition] = None

    for lineno, content in _logical_lines(text):
        stripped = content.strip()
        if not stripped:
            continue
        indented = content[0] in (" ", "\t")
        if indented:
            if current is None:
                issues.add(lineno, 1, "clause outside of a transition")
                continue
            with issues.located(lineno):
                _parse_clause(lineno, stripped, current, issues)
            continue

        keyword, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if keyword == "component":
            builder.declare_component(lineno, rest)
        elif keyword in ("in", "out"):
            sub, _, name = rest.partition(" ")
            name = name.strip()
            if sub != "chan" or not IDENT_RE.match(name):
                issues.add(lineno, 1, f"expected '{keyword} chan NAME'")
            else:
                builder.declare_channel(lineno, name, Direction(keyword))
        elif keyword == "var":
            builder.declare_var(lineno, keyword, rest)
        elif keyword == "state":
            parts = rest.split()
            if not parts or not IDENT_RE.match(parts[0]) or (
                len(parts) > 1 and (len(parts) > 2 or parts[1] != "initial")
            ):
                issues.add(lineno, 1, "expected 'state NAME [initial]'")
            else:
                builder.declare_state(lineno, parts[0])
                if len(parts) == 2:
                    builder.declare_initial(lineno, parts[0])
        elif keyword == "trans":
            m = re.match(r"([A-Za-z][A-Za-z0-9_]*)\s*->\s*([A-Za-z][A-Za-z0-9_]*)\Z", rest)
            if not m:
                issues.add(lineno, 1, "expected 'trans SRC -> DST'")
                current = None
            else:
                current = _RawTransition(lineno, m.group(1), m.group(2))
                builder.raw_transitions.append(current)
        else:
            issues.add(lineno, 1, f"unknown directive {keyword!r}")

    spec = builder.finish()
    issues.raise_if_any()
    return spec


def _parse_clause(lineno: int, stripped: str, raw: _RawTransition, issues: _Issues) -> None:
    keyword, _, rest = stripped.partition(" ")
    rest = rest.strip()
    if keyword == "when":
        channel, colon, body = (p.strip() for p in rest.partition(":"))
        if not IDENT_RE.match(channel) or colon != ":":
            issues.add(lineno, 1, "expected 'when CH: PATTERN[, VAR REL INT ...]'")
            return
        parts = [p.strip() for p in body.split(",")]
        pattern = _parse_pattern(parts[0])
        if pattern is None:
            issues.add(lineno, 1, f"malformed interval pattern {parts[0]!r}")
            return
        raw.add("when", lineno, IntervalGuard(channel, pattern))
        for extra in parts[1:]:
            vg = _parse_var_guard(extra)
            if vg is None:
                issues.add(lineno, 1, f"malformed variable guard {extra!r}")
            else:
                raw.add("guard", lineno, vg)
    elif keyword == "emit":
        channel, colon, body = (p.strip() for p in rest.partition(":"))
        if not IDENT_RE.match(channel) or colon != ":":
            issues.add(lineno, 1, "expected 'emit CH: MSG ... | pass(CH) | -'")
            return
        action = _parse_emission(lineno, channel, body, issues)
        if action is not None:
            raw.add("emit", lineno, action)
    elif keyword == "set":
        update = _parse_update(rest)
        if update is None:
            issues.add(lineno, 1, "expected 'set VAR := VAR + INT | VAR - INT | INT'")
        else:
            raw.add("set", lineno, update)
    else:
        issues.add(lineno, 1, f"unknown clause {keyword!r}")


def _var_guard_suffix(t: Transition) -> str:
    return "".join(f", {vg.render()}" for vg in t.var_guards)


def print_component(spec: ComponentSpec) -> str:
    """Canonical textual form; ``parse_component`` inverts it exactly."""
    out: List[str] = [f"component {spec.name}"]
    for ch in spec.channels:
        out.append(f"{ch.direction.value} chan {ch.name}")
    for v in spec.vars:
        out.append(f"var {v.name} = {v.initial}")
    for s in spec.states:
        out.append(f"state {s} initial" if s == spec.initial else f"state {s}")
    in_channels = spec.in_channels()
    for t in spec.transitions:
        out.append(f"trans {t.source} -> {t.target}")
        if t.interval_guards:
            first, *others = t.interval_guards
            out.append(f"  when {first.render()}{_var_guard_suffix(t)}")
            for g in others:
                out.append(f"  when {g.render()}")
        elif t.var_guards:
            if not in_channels:
                raise ValueError(
                    "textual format cannot express variable guards without an input channel"
                )
            out.append(f"  when {in_channels[0]}: any{_var_guard_suffix(t)}")
        for o in t.outputs:
            out.append(f"  emit {o.render()}")
        for u in t.updates:
            out.append(f"  set {u.render()}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Component: table style


def parse_table(text: str) -> ComponentSpec:
    """Parse the table component style; raises ParseFailure on any error."""
    issues = _Issues()
    builder = _SpecBuilder(issues)
    header: Optional[List[str]] = None
    expected_header: Optional[List[str]] = None

    for lineno, content in _logical_lines(text):
        stripped = content.strip()
        if not stripped:
            continue
        if stripped.startswith("@"):
            if header is not None:
                issues.add(lineno, 1, "preamble line after the header row")
                continue
            keyword, _, rest = stripped.partition(" ")
            rest = rest.strip()
            if keyword == "@component":
                builder.declare_component(lineno, rest)
            elif keyword in ("@in", "@out"):
                if IDENT_RE.match(rest):
                    builder.declare_channel(lineno, rest, Direction(keyword[1:]))
                else:
                    issues.add(lineno, 1, f"expected '{keyword} NAME'")
            elif keyword == "@var":
                builder.declare_var(lineno, keyword, rest)
            elif keyword in ("@state", "@initial"):
                if not IDENT_RE.match(rest):
                    issues.add(lineno, 1, f"expected '{keyword} NAME'")
                elif keyword == "@state":
                    builder.declare_state(lineno, rest)
                else:
                    builder.declare_initial(lineno, rest)
            else:
                issues.add(lineno, 1, f"unknown preamble directive {keyword!r}")
            continue

        cells = [c.strip() for c in content.split(",")]
        if header is None:
            header = cells
            expected_header = (
                ["source"]
                + [f"when:{ch}" for ch in builder.in_channels()]
                + ["guard"]
                + [f"emit:{ch}" for ch in builder.out_channels()]
                + ["set", "target"]
            )
            if cells != expected_header:
                issues.add(
                    lineno,
                    1,
                    f"header row must be '{', '.join(expected_header)}', got '{', '.join(cells)}'",
                )
                header = expected_header
            continue

        if len(cells) != len(expected_header):
            issues.add(
                lineno,
                1,
                f"row has {len(cells)} cells, expected {len(expected_header)}",
            )
            continue
        _parse_table_row(lineno, content, cells, builder, issues)

    spec = builder.finish()
    issues.raise_if_any()
    return spec


def _cell_column(content: str, index: int) -> int:
    # Character offset of the index-th comma-separated cell, 1-based.
    pos = 0
    for _ in range(index):
        pos = content.find(",", pos) + 1
    return pos + 1


def _parse_table_row(
    lineno: int,
    content: str,
    cells: List[str],
    builder: _SpecBuilder,
    issues: _Issues,
) -> None:
    ins = builder.in_channels()
    outs = builder.out_channels()
    raw = _RawTransition(lineno, cells[0], cells[-1])
    idx = 1
    for ch in ins:
        cell = cells[idx]
        col = _cell_column(content, idx)
        if cell:
            with issues.located(lineno, col):
                pattern = _parse_pattern(cell)
                if pattern is None:
                    issues.add(lineno, col, f"malformed interval pattern {cell!r}")
                else:
                    raw.add("when", lineno, IntervalGuard(ch, pattern))
        idx += 1
    guard_cell = cells[idx]
    guard_col = _cell_column(content, idx)
    if guard_cell:
        with issues.located(lineno, guard_col):
            for part in guard_cell.split(";"):
                vg = _parse_var_guard(part)
                if vg is None:
                    issues.add(lineno, guard_col, f"malformed variable guard {part.strip()!r}")
                else:
                    raw.add("guard", lineno, vg)
    idx += 1
    for ch in outs:
        cell = cells[idx]
        col = _cell_column(content, idx)
        if cell:
            sub = _Issues()
            with sub.located(lineno):
                action = _parse_emission(lineno, ch, cell, sub)
                if action is not None:
                    raw.add("emit", lineno, action)
            for issue in sub.items:
                issues.add(lineno, col, issue.message)
        idx += 1
    set_cell = cells[idx]
    set_col = _cell_column(content, idx)
    if set_cell:
        with issues.located(lineno, set_col):
            for part in set_cell.split(";"):
                update = _parse_update(part)
                if update is None:
                    issues.add(lineno, set_col, f"malformed update {part.strip()!r}")
                else:
                    raw.add("set", lineno, update)
    builder.raw_transitions.append(raw)


def print_table(spec: ComponentSpec) -> str:
    """Canonical table form; ``parse_table`` inverts it exactly."""
    out: List[str] = [f"@component {spec.name}"]
    for ch in spec.channels:
        out.append(f"@{ch.direction.value} {ch.name}")
    for v in spec.vars:
        out.append(f"@var {v.name} = {v.initial}")
    for s in spec.states:
        out.append(f"@state {s}")
    out.append(f"@initial {spec.initial}")
    ins = spec.in_channels()
    outs = spec.out_channels()
    header = (
        ["source"]
        + [f"when:{ch}" for ch in ins]
        + ["guard"]
        + [f"emit:{ch}" for ch in outs]
        + ["set", "target"]
    )
    out.append(", ".join(header))
    for t in spec.transitions:
        guards = {g.channel: g.pattern for g in t.interval_guards}
        emits = {o.channel: o for o in t.outputs}
        cells = [t.source]
        for ch in ins:
            cells.append(guards[ch].render() if ch in guards else "")
        cells.append("; ".join(vg.render() for vg in t.var_guards))
        for ch in outs:
            o = emits.get(ch)
            if o is None:
                cells.append("")
            elif o.is_pass:
                cells.append(f"pass({o.source})")
            else:
                cells.append(" ".join(m.token() for m in o.messages))
        cells.append("; ".join(u.render() for u in t.updates))
        cells.append(t.target)
        out.append(", ".join(cells))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Traces


def parse_trace(text: str) -> Trace:
    """Parse a trace file; raises ParseFailure on any error.

    One pass over the tick lines appends each interval straight to its
    channel's column.  Each distinct interval text is parsed once per file:
    equal texts share one interval tuple.  A clean tick line made only of
    interval texts seen on earlier lines is remembered with its intervals in
    channel order, so each later copy of that line costs one lookup and one
    append per channel.  Lines with issues are never remembered, and a trace
    whose every interval text is new remembers nothing.
    """
    issues = _Issues()
    lines = iter(_logical_lines(text))
    for lineno, content in lines:
        header = content.split()
        if header:
            break
    else:
        lineno, header = 1, []
    if header[:1] != ["ticks"]:
        issues.add(lineno, 1, "expected header line 'ticks CH ...'")
        issues.raise_if_any()
    channels: List[str] = []
    for name in header[1:]:
        if not IDENT_RE.match(name):
            issues.add(lineno, 1, f"invalid channel name {name!r}")
        elif name in channels:
            issues.add(lineno, 1, f"duplicate channel name '{name}'")
        else:
            channels.append(name)

    position = {name: i for i, name in enumerate(channels)}
    columns: List[List[TimeInterval]] = [[] for _ in channels]
    # The tick at which each channel was last given an interval.
    filled_at = [-1] * len(channels)
    parsed: Dict[str, TimeInterval] = {"-": ()}
    # Clean lines whose bodies were all parsed before -> their intervals in
    # channel order.  While it is empty (every body new so far), no line is
    # hashed for a lookup.
    rows: Dict[str, Tuple[TimeInterval, ...]] = {}
    appends = [column.append for column in columns]
    last = itemgetter(-1)
    tick_no = 0
    for lineno, content in lines:
        row = rows.get(content) if rows else None
        if row is not None:
            for append, iv in zip(appends, row):
                append(iv)
            tick_no += 1
            continue
        stripped = content.strip()
        if not stripped:
            if channels:
                issues.add(lineno, 1, f"tick {tick_no}: missing channel '{channels[0]}'")
            tick_no += 1
            continue
        filled = 0
        fresh = False
        for segment in stripped.split("|"):
            name, colon, body = segment.partition(":")
            name = name.strip()
            pos = position.get(name)
            if pos is None or not colon:
                if not colon or not IDENT_RE.match(name):
                    issues.add(lineno, 1, f"malformed channel segment {segment.strip()!r}")
                else:
                    issues.add(lineno, 1, f"unknown channel '{name}' at tick {tick_no}")
                continue
            if filled_at[pos] == tick_no:
                issues.add(lineno, 1, f"duplicate channel '{name}' at tick {tick_no}")
                continue
            body = body.strip()
            iv = parsed.get(body)
            if iv is None:
                fresh = True
                if not body:
                    issues.add(lineno, 1, f"empty interval must be written '-' ({name})")
                    iv = ()
                else:
                    messages = []
                    try:
                        for token in body.split():
                            msg = _parse_message(token)
                            if msg is None:
                                issues.add(lineno, 1, f"malformed message token {token!r}")
                                break
                            messages.append(msg)
                        else:
                            iv = parsed[body] = tuple(messages)
                    except _LongInteger as exc:
                        issues.add(lineno, 1, str(exc))
                    if iv is None:
                        continue
            filled_at[pos] = tick_no
            appends[pos](iv)
            filled += 1
        if filled < len(channels):
            for pos, name in enumerate(channels):
                if filled_at[pos] != tick_no:
                    issues.add(lineno, 1, f"tick {tick_no}: missing channel '{name}'")
        elif not fresh and not issues.items:
            rows[content] = tuple(map(last, columns))
        tick_no += 1

    issues.raise_if_any()
    return Trace(
        {ch: StreamPrefix(tuple(col)) for ch, col in zip(channels, columns)},
        length=tick_no,
    )


def _print_column(channel: str, intervals: Iterable[TimeInterval]) -> Iterator[str]:
    """The segments ``CH: BODY`` of one channel, one per tick, made lazily."""
    head = channel + ": "
    silent = head + "-"
    token = Message.token
    return (head + " ".join(map(token, iv)) if iv else silent for iv in intervals)


def print_trace(trace: Trace) -> str:
    """Canonical trace text: channels sorted by name, '-' for empty intervals.

    Each channel is rendered as a lazy column of segments, and ``zip`` over
    the columns joins one tick's segments into its line, so no segment
    outlives its line.
    """
    channels = sorted(trace.channels)
    if not channels:
        return "ticks" + "\n" * (trace.length + 1)
    columns = [_print_column(ch, trace.channels[ch].intervals) for ch in channels]
    lines = ["ticks " + " ".join(channels)]
    lines += map(" | ".join, zip(*columns))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Networks


_ENDPOINT_RE = re.compile(
    r"(?:extern\s+([A-Za-z][A-Za-z0-9_]*)|([A-Za-z][A-Za-z0-9_]*)\.([A-Za-z][A-Za-z0-9_]*))\Z"
)


def _default_component_loader(path: Path) -> ComponentSpec:
    text = path.read_text(encoding="utf-8", errors="replace")
    if path.suffix == ".ttab":
        return parse_table(text)
    return parse_component(text)


def parse_network(
    text: str,
    base_dir: str | Path = ".",
    loader: Optional[Callable[[Path], ComponentSpec]] = None,
) -> Network:
    """Parse a network wiring file; referenced component files are loaded
    relative to ``base_dir`` (tables by ``.ttab`` extension, textual otherwise)
    and their parse and ``validate_spec`` errors reported at the ``use`` line.
    """
    from .network import Instance, NetworkBuildError, Wire, build_network

    issues = _Issues()
    load = loader or _default_component_loader
    base = Path(base_dir)
    instances: List[Instance] = []
    wires: List[Wire] = []
    external_in: List[str] = []
    external_out: List[str] = []
    # Source line of each instance and wire, keyed as NetworkBuildError.locations.
    lines: Dict[str, List[int]] = {"instance": [], "wire": []}

    for lineno, content in _logical_lines(text):
        stripped = content.strip()
        if not stripped:
            continue
        keyword, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if keyword == "use":
            name, eq, what = (p.strip() for p in rest.partition("="))
            if not IDENT_RE.match(name) or eq != "=":
                issues.add(lineno, 1, "expected 'use ID = file PATH | delay D | merge'")
                continue
            kind, _, arg = what.partition(" ")
            arg = arg.strip()
            inst: Optional[Instance] = None
            if kind == "file":
                if not arg:
                    issues.add(lineno, 1, "expected a file path after 'file'")
                else:
                    inst = _load_instance(name, base, arg, load, lineno, issues)
            elif kind == "delay":
                if not _INT_RE.match(arg):
                    issues.add(lineno, 1, "delay depth must be an integer >= 1")
                else:
                    with issues.located(lineno):
                        inst = Instance.of_delay(name, _int(arg))
            elif kind == "merge":
                if arg:
                    issues.add(lineno, 1, "'merge' takes no argument")
                else:
                    inst = Instance.of_merge(name)
            else:
                issues.add(lineno, 1, f"unknown instance kind {kind!r}")
            if inst is not None:
                instances.append(inst)
                lines["instance"].append(lineno)
        elif keyword == "wire":
            src_raw, arrow, dst_raw = rest.partition("->")
            if arrow != "->":
                issues.add(lineno, 1, "expected 'wire SRC -> DST'")
                continue
            src = _parse_endpoint(lineno, src_raw, external_in, issues)
            dst = _parse_endpoint(lineno, dst_raw, external_out, issues)
            if src is not None and dst is not None:
                wires.append(Wire(src, dst))
                lines["wire"].append(lineno)
        else:
            issues.add(lineno, 1, f"unknown directive {keyword!r}")

    issues.raise_if_any()
    try:
        return build_network(instances, wires, external_in, external_out)
    except NetworkBuildError as exc:
        for problem, where in zip(exc.problems, exc.locations):
            issues.add(lines[where[0]][where[1]] if where else 1, 1, problem)
        raise ParseFailure(issues.items) from exc


def _parse_endpoint(
    lineno: int, raw: str, externals: List[str], issues: _Issues
) -> Optional[Endpoint]:
    """``extern NAME`` (recorded in ``externals``) or ``ID.PORT``; None if malformed."""
    from .network import ExternalPort, Port

    m = _ENDPOINT_RE.match(raw.strip())
    if not m:
        issues.add(lineno, 1, f"malformed endpoint {raw.strip()!r}")
        return None
    if m.group(1):
        if m.group(1) not in externals:
            externals.append(m.group(1))
        return ExternalPort(m.group(1))
    return Port(m.group(2), m.group(3))


def _load_instance(
    name: str,
    base: Path,
    arg: str,
    load: Callable[[Path], ComponentSpec],
    lineno: int,
    issues: _Issues,
) -> Optional[Instance]:
    from .network import Instance

    try:
        path = base / arg
        spec = load(path)
    except FileNotFoundError:
        issues.add(lineno, 1, f"component file not found: {arg!r}")
        return None
    except OSError as exc:
        issues.add(lineno, 1, f"cannot read component file {arg!r}: {exc}")
        return None
    except ValueError as exc:
        if isinstance(exc, ParseFailure):
            for issue in exc.issues:
                issues.add(lineno, 1, f"in {arg!r} at {issue.span.render()}: {issue.message}")
        else:
            issues.add(lineno, 1, f"cannot load component file {arg!r}: {exc}")
        return None
    errors = [f for f in validate_spec(spec) if f.severity is Severity.ERROR]
    for finding in errors:
        issues.add(lineno, 1, f"in {arg!r}: {finding.message}")
    return None if errors else Instance.of_spec(name, spec)


# --------------------------------------------------------------------------
# DOT export


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(spec: ComponentSpec) -> str:
    """Render the diagram view: states as nodes, transitions as labeled edges.

    The initial state gets a double circle.  Output order follows declaration
    order, so equal specs produce byte-identical text.
    """
    lines = [f"digraph {_dot_quote(spec.name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for s in spec.states:
        if s == spec.initial:
            lines.append(f"  {_dot_quote(s)} [shape=doublecircle];")
        else:
            lines.append(f"  {_dot_quote(s)};")
    for t in spec.transitions:
        guard_items = [g.render() for g in t.interval_guards] + [
            vg.render() for vg in t.var_guards
        ]
        guards = ", ".join(guard_items) if guard_items else "any"
        emits = ", ".join(o.render() for o in t.outputs) if t.outputs else "-"
        sets = ", ".join(u.render() for u in t.updates) if t.updates else "-"
        label = f"{guards} / {emits} / {sets}"
        lines.append(
            f"  {_dot_quote(t.source)} -> {_dot_quote(t.target)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
