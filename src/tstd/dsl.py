"""Component text (``*.tstd``) and DOT export.

UTF-8 with LF endings and ``#`` comments.  The parser is total: any byte
sequence either parses or produces a list of located errors, never an
uncaught exception.  The printer is canonical: equal specs print to
identical bytes, and parsing a printed spec gives the spec back.

The parser checks syntax only.  Every reference error comes located from
:mod:`tstd.model` (the rules of ``validate_spec``), and the parser maps each
location (declaration, transition clause) to its line.  It refuses a second
component name or initial state itself, since a spec holds one.

Component text::

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

The other formats have their own modules, so a command loads only the
format it reads: the table format (``*.ttab``) is :mod:`tstd.table_format`,
which shares this module's clause parsers and spec builder, and
:func:`_spec_parser` picks one of the two for a component file; the network
format (``*.tnet``) is :func:`tstd.network.parse_network`; the trace format
(``*.trc``), :class:`ParseFailure` and the lexing shared by all the formats
live in :mod:`tstd.trace_format`, and the identifier, integer and message
token patterns that the clause patterns here are built from in
:mod:`tstd.streams`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

from .model import (
    ChannelDecl,
    ComponentSpec,
    Direction,
    IntervalGuard,
    IntervalPattern,
    OutputAction,
    Relation,
    Transition,
    UpdateOp,
    VarDecl,
    VarGuard,
    VarUpdate,
    _spec_errors,
)
from .streams import _IDENT, _INT, IDENT_RE
from .trace_format import _int, _Issues, _logical_lines, _parse_message

__all__ = ["export_dot", "parse_component", "print_component"]


_INT_RE = re.compile(_INT + r"\Z")
_LEN_RE = re.compile(rf"len\s*(>=|=)\s*({_INT})\Z")
_FIRST_RE = re.compile(r"first\s*=\s*(\S+)\Z")
_CONTAINS_RE = re.compile(r"contains\(\s*(\S+?)\s*\)\Z")
_VARGUARD_RE = re.compile(rf"({_IDENT})\s*(<=|>=|!=|==|=|<|>)\s*({_INT})\Z")
_UPDATE_RE = re.compile(rf"({_IDENT})\s*:=\s*(?:({_IDENT})\s*([+-])\s*)?({_INT})\Z")
_PASS_RE = re.compile(rf"pass\(\s*({_IDENT})\s*\)\Z")
_TRANS_RE = re.compile(rf"({_IDENT})\s*->\s*({_IDENT})\Z")


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


def _spec_parser(name: str, fmt: Optional[str] = None) -> Callable[[str], ComponentSpec]:
    """The parser of the component file ``name``: that of ``fmt`` (``table``
    or ``textual``, as ``validate --format`` names them) when given, else the
    table format's for a name ending in ``.ttab`` and this module's for any
    other.  The table format is imported only when it is picked."""
    if fmt == "table" or (fmt is None and name.endswith(".ttab")):
        from .table_format import parse_table

        return parse_table
    return parse_component


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
            m = _TRANS_RE.match(rest)
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
