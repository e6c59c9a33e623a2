"""Timed state transition diagrams: the machine model and its static checks.

A component spec declares directed message channels, integer variables, named
states and an ordered list of guarded transitions.  At each tick a machine
reads one time interval per input channel, fires the first enabled transition
in declaration order (or stutters), and emits one time interval per output
channel.  This module holds the data model, structural validation, and the
syntactic causality classification; the tick semantics, including what
guards and updates mean, live only in :mod:`tstd.executor`.
"""

from __future__ import annotations

import enum
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from ._value import value
from .streams import IDENT_RE, Message, TimeInterval

__all__ = [
    "CausalityClass",
    "ChannelDecl",
    "ComponentSpec",
    "Direction",
    "Finding",
    "IntervalGuard",
    "IntervalPattern",
    "OutputAction",
    "PatternKind",
    "Relation",
    "Severity",
    "Transition",
    "UpdateOp",
    "VarDecl",
    "VarGuard",
    "VarUpdate",
    "check_transition",
    "classify_causality_syntactic",
    "has_errors",
    "validate_spec",
]


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"


@value
class ChannelDecl:
    name: str
    direction: Direction


@value
class VarDecl:
    name: str
    initial: int


class PatternKind(enum.Enum):
    ANY = "any"
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    CONTAINS = "contains"
    LEN_EQ = "len_eq"
    LEN_GE = "len_ge"
    FIRST_IS = "first_is"


@value
class IntervalPattern:
    """A per-tick predicate over one channel's time interval."""

    kind: PatternKind
    message: Optional[Message] = None
    count: Optional[int] = None

    @classmethod
    def any(cls) -> "IntervalPattern":
        return cls(PatternKind.ANY)

    @classmethod
    def empty(cls) -> "IntervalPattern":
        return cls(PatternKind.EMPTY)

    @classmethod
    def nonempty(cls) -> "IntervalPattern":
        return cls(PatternKind.NONEMPTY)

    @classmethod
    def contains(cls, message: Message) -> "IntervalPattern":
        return cls(PatternKind.CONTAINS, message=message)

    @classmethod
    def len_eq(cls, count: int) -> "IntervalPattern":
        return cls(PatternKind.LEN_EQ, count=count)

    @classmethod
    def len_ge(cls, count: int) -> "IntervalPattern":
        return cls(PatternKind.LEN_GE, count=count)

    @classmethod
    def first_is(cls, message: Message) -> "IntervalPattern":
        return cls(PatternKind.FIRST_IS, message=message)

    def render(self) -> str:
        """Canonical textual form used by the file formats and DOT labels."""
        kind = self.kind
        if kind is PatternKind.ANY:
            return "any"
        if kind is PatternKind.EMPTY:
            return "empty"
        if kind is PatternKind.NONEMPTY:
            return "nonempty"
        if kind is PatternKind.CONTAINS:
            return f"contains({self.message.token()})"
        if kind is PatternKind.LEN_EQ:
            return f"len={self.count}"
        if kind is PatternKind.LEN_GE:
            return f"len>={self.count}"
        if kind is PatternKind.FIRST_IS:
            return f"first={self.message.token()}"
        raise AssertionError(kind)


@value
class IntervalGuard:
    channel: str
    pattern: IntervalPattern

    def render(self) -> str:
        return f"{self.channel}: {self.pattern.render()}"


class Relation(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NE = "!="
    GE = ">="
    GT = ">"

    @classmethod
    def parse(cls, token: str) -> "Relation":
        if token == "==":
            return cls.EQ
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown relation: {token!r}")


@value
class VarGuard:
    var: str
    relation: Relation
    bound: int

    def render(self) -> str:
        return f"{self.var} {self.relation.value} {self.bound}"


@value
class OutputAction:
    """What a transition emits on one output channel.

    Exactly one of ``messages`` (a literal interval) or ``source`` (the name
    of an input channel whose current interval is forwarded verbatim) is set.
    """

    channel: str
    messages: Optional[Tuple[Message, ...]] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.messages is None) == (self.source is None):
            raise ValueError("output action needs exactly one of messages/source")

    @classmethod
    def literal(cls, channel: str, messages: Sequence[Message]) -> "OutputAction":
        return cls(channel, messages=tuple(messages))

    @classmethod
    def passthrough(cls, channel: str, source: str) -> "OutputAction":
        return cls(channel, source=source)

    @property
    def is_pass(self) -> bool:
        return self.source is not None

    def render(self) -> str:
        if self.is_pass:
            return f"{self.channel}: pass({self.source})"
        body = " ".join(m.token() for m in self.messages) if self.messages else "-"
        return f"{self.channel}: {body}"


class UpdateOp(enum.Enum):
    SET = "set"
    ADD = "add"


@value
class VarUpdate:
    var: str
    op: UpdateOp
    value: int

    def render(self) -> str:
        if self.op is UpdateOp.SET:
            return f"{self.var} := {self.value}"
        if self.value < 0:
            return f"{self.var} := {self.var} - {-self.value}"
        return f"{self.var} := {self.var} + {self.value}"


def _guard_sort_key(g: IntervalGuard):
    # The message as values, not text: a payload too long to convert to
    # text is still a valid guard message.
    m = g.pattern.message
    message = () if m is None else (m.tag, m.payload is not None, m.payload or 0)
    return (g.channel, g.pattern.kind.value, message, g.pattern.count or 0)


@value
class Transition:
    """One guarded edge of the diagram.

    Guard, output and update collections are sets in meaning; they are stored
    sorted so that structurally equal transitions compare equal no matter the
    authoring order.  An ``any`` interval guard constrains nothing and an
    empty literal emission equals not emitting, so both normalize away.
    """

    source: str
    target: str
    interval_guards: Tuple[IntervalGuard, ...] = ()
    var_guards: Tuple[VarGuard, ...] = ()
    outputs: Tuple[OutputAction, ...] = ()
    updates: Tuple[VarUpdate, ...] = ()

    def __post_init__(self) -> None:
        igs = tuple(
            sorted(
                (g for g in self.interval_guards if g.pattern.kind is not PatternKind.ANY),
                key=_guard_sort_key,
            )
        )
        vgs = tuple(sorted(self.var_guards, key=lambda g: (g.var, g.relation.value, g.bound)))
        outs = tuple(
            sorted(
                (o for o in self.outputs if o.is_pass or o.messages),
                key=lambda o: o.channel,
            )
        )
        ups = tuple(sorted(self.updates, key=lambda u: u.var))
        object.__setattr__(self, "interval_guards", igs)
        object.__setattr__(self, "var_guards", vgs)
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "updates", ups)

    def is_total(self) -> bool:
        """True when the transition is enabled on every input and valuation."""
        return not self.interval_guards and not self.var_guards


@value
class ComponentSpec:
    """A full timed state transition diagram.

    Transition order is significant: when several transitions are enabled at
    a tick, the first declared one fires.
    """

    name: str
    channels: Tuple[ChannelDecl, ...]
    vars: Tuple[VarDecl, ...]
    states: Tuple[str, ...]
    initial: str
    transitions: Tuple[Transition, ...]

    def in_channels(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.channels if c.direction is Direction.IN)

    def out_channels(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.channels if c.direction is Direction.OUT)

    def initial_env(self) -> Dict[str, int]:
        return {v.name: v.initial for v in self.vars}


class CausalityClass(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@value
class Finding:
    """One validation result; ``location`` (see :func:`check_transition` for
    a transition clause, :func:`_spec_errors` for a declaration) lets a
    parser point at its line, and ``render`` ignores it."""

    severity: Severity
    message: str
    location: Optional[Tuple] = None

    def render(self) -> str:
        return f"{self.severity.value}: {self.message}"


def _satisfiable(guards: Sequence[VarGuard]) -> bool:
    """Whether some integer valuation satisfies all guards simultaneously.

    Guards constrain each variable independently, so satisfiability splits
    per variable into interval bounds plus a finite exclusion set.
    """
    by_var: Dict[str, List[VarGuard]] = {}
    for g in guards:
        by_var.setdefault(g.var, []).append(g)
    for var_guards in by_var.values():
        lo: Optional[int] = None
        hi: Optional[int] = None
        exclude = set()
        for g in var_guards:
            if g.relation is Relation.LT:
                ub = g.bound - 1
                hi = ub if hi is None else min(hi, ub)
            elif g.relation is Relation.LE:
                hi = g.bound if hi is None else min(hi, g.bound)
            elif g.relation is Relation.GT:
                lb = g.bound + 1
                lo = lb if lo is None else max(lo, lb)
            elif g.relation is Relation.GE:
                lo = g.bound if lo is None else max(lo, g.bound)
            elif g.relation is Relation.EQ:
                lo = g.bound if lo is None else max(lo, g.bound)
                hi = g.bound if hi is None else min(hi, g.bound)
            else:
                exclude.add(g.bound)
        if lo is not None and hi is not None:
            if lo > hi:
                return False
            if all(v in exclude for v in range(lo, hi + 1)):
                return False
        # A half-open or unbounded range always holds infinitely many
        # integers, so a finite exclusion set cannot empty it.
    return True


def _patterns_may_overlap(a: IntervalPattern, b: IntervalPattern) -> bool:
    # Syntactic rule: identical patterns overlap, and `any` subsumes anything.
    # Distinct non-any patterns are treated as disjoint even when they are
    # not (e.g. nonempty vs contains); this keeps the check trivially
    # decidable and errs toward silence, not noise.
    return a.kind is PatternKind.ANY or b.kind is PatternKind.ANY or a == b


def _effective_patterns(t: Transition, in_channels: Sequence[str]) -> Dict[str, IntervalPattern]:
    eff = {ch: IntervalPattern.any() for ch in in_channels}
    for g in t.interval_guards:
        if g.channel in eff:
            eff[g.channel] = g.pattern
    return eff


def check_transition(
    index: int,
    t: Transition,
    states: Collection[str],
    in_channels: Collection[str],
    out_channels: Collection[str],
    variables: Collection[str],
) -> List[Finding]:
    """Reference errors of the ``index``-th (1-based) transition of a spec.

    ``t`` may also hold the clauses as written, before :class:`Transition`
    drops ``any`` guards and empty emissions.  Findings are located at
    ``(index, clause, position)``: clause ``"trans"`` (position 0) for the
    states, else ``"when"``, ``"guard"``, ``"emit"`` or ``"set"`` with the
    0-based position in ``interval_guards``, ``var_guards``, ``outputs`` or
    ``updates``.
    """
    findings: List[Finding] = []
    where = f"transition {index} ({t.source} -> {t.target})"

    def error(clause: str, position: int, msg: str) -> None:
        findings.append(Finding(Severity.ERROR, f"{where}: {msg}", (index, clause, position)))

    if t.source not in states:
        error("trans", 0, f"source state '{t.source}' is not declared")
    if t.target not in states:
        error("trans", 0, f"target state '{t.target}' is not declared")
    guarded = set()
    for pos, g in enumerate(t.interval_guards):
        if g.channel not in in_channels:
            error("when", pos, f"guard on '{g.channel}' which is not an input channel")
        if g.channel in guarded:
            error("when", pos, f"more than one guard on channel '{g.channel}'")
        guarded.add(g.channel)
        if g.pattern.count is not None and g.pattern.count < 0:
            error("when", pos, f"negative length bound in guard on '{g.channel}'")
    for pos, vg in enumerate(t.var_guards):
        if vg.var not in variables:
            error("guard", pos, f"guard on undeclared variable '{vg.var}'")
    emitted = set()
    for pos, out in enumerate(t.outputs):
        if out.channel not in out_channels:
            error("emit", pos, f"emission on '{out.channel}' which is not an output channel")
        if out.channel in emitted:
            error("emit", pos, f"more than one emission on channel '{out.channel}'")
        emitted.add(out.channel)
        if out.is_pass and out.source not in in_channels:
            error("emit", pos, f"pass source '{out.source}' is not an input channel")
    updated = set()
    for pos, up in enumerate(t.updates):
        if up.var not in variables:
            error("set", pos, f"update of undeclared variable '{up.var}'")
        if up.var in updated:
            error("set", pos, f"more than one update of variable '{up.var}'")
        updated.add(up.var)
    return findings


def _spec_errors(
    name: Optional[str],
    channels: Sequence[ChannelDecl],
    vars: Sequence[VarDecl],
    states: Sequence[str],
    initial: Optional[str],
    transitions: Sequence[Transition],
) -> List[Finding]:
    """Declaration and reference errors of a spec's parts, which may be as
    written: repeated declarations, ``name`` or ``initial`` None when absent,
    raw transitions (see :func:`check_transition`).  A declaration finding is
    located at ``(kind, position)``: ``"component"`` or ``"initial"`` at 0,
    or the position in ``channels``, ``vars`` or ``states`` for ``"channel"``,
    ``"variable"`` or ``"state"``; one about a missing declaration, at None.
    """
    findings: List[Finding] = []

    def error(msg: str, location: Optional[Tuple[str, int]] = None) -> None:
        findings.append(Finding(Severity.ERROR, msg, location))

    if name is None:
        error("missing 'component NAME' declaration")
    elif not IDENT_RE.match(name):
        error(f"component name {name!r} is not a valid identifier", ("component", 0))

    def unique(kind: str, names: Sequence[str]) -> set:
        seen = set()
        for pos, n in enumerate(names):
            if not IDENT_RE.match(n):
                error(f"{kind} name {n!r} is not a valid identifier", (kind, pos))
            if n in seen:
                error(f"duplicate {kind} name '{n}'", (kind, pos))
            seen.add(n)
        return seen

    channel_names = unique("channel", [c.name for c in channels])
    var_names = unique("variable", [v.name for v in vars])
    for pos, v in enumerate(vars):
        if v.name in channel_names:
            error(f"variable '{v.name}' collides with a channel name", ("variable", pos))
    state_names = unique("state", states)
    if not states:
        error("spec declares no states")
    elif initial is None:
        error("spec declares no initial state")
    if initial is not None and initial not in state_names:
        error(f"initial state '{initial}' is not declared", ("initial", 0))

    in_set = {c.name for c in channels if c.direction is Direction.IN}
    out_set = {c.name for c in channels if c.direction is Direction.OUT}
    for idx, t in enumerate(transitions, start=1):
        findings += check_transition(idx, t, state_names, in_set, out_set, var_names)
    return findings


def _errors(spec: ComponentSpec) -> List[Finding]:
    """The error findings of :func:`validate_spec`, without its warnings."""
    findings = _spec_errors(
        spec.name, spec.channels, spec.vars, spec.states, spec.initial, spec.transitions
    )
    if not spec.out_channels():
        findings.append(Finding(Severity.ERROR, "spec declares no output channel"))
    return findings


def validate_spec(spec: ComponentSpec) -> List[Finding]:
    """Structural validation: a deterministic list of errors and warnings.

    Errors cover broken references and uniqueness violations; warnings cover
    syntactically overlapping transitions and states unreachable from the
    initial one.  The function is pure: equal specs yield equal reports.
    """
    findings = _errors(spec)

    def warning(msg: str) -> None:
        findings.append(Finding(Severity.WARNING, msg))

    if not findings:
        in_order = spec.in_channels()
        by_source: Dict[str, List[Tuple[int, Transition]]] = {}
        for idx, t in enumerate(spec.transitions, start=1):
            by_source.setdefault(t.source, []).append((idx, t))
        for state in spec.states:
            group = by_source.get(state, [])
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    ia, ta = group[i]
                    ib, tb = group[j]
                    pa = _effective_patterns(ta, in_order)
                    pb = _effective_patterns(tb, in_order)
                    if all(_patterns_may_overlap(pa[ch], pb[ch]) for ch in in_order) and _satisfiable(
                        ta.var_guards + tb.var_guards
                    ):
                        warning(
                            f"transitions {ia} and {ib} from state '{state}' can be "
                            "enabled simultaneously; declaration order decides"
                        )

        reachable = {spec.initial}
        frontier = [spec.initial]
        targets: Dict[str, List[str]] = {}
        for t in spec.transitions:
            targets.setdefault(t.source, []).append(t.target)
        while frontier:
            s = frontier.pop()
            for nxt in targets.get(s, ()):
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        for s in spec.states:
            if s not in reachable:
                warning(f"state '{s}' is unreachable from the initial state")

    return findings


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity is Severity.ERROR for f in findings)


def _strong_outputs(spec: ComponentSpec) -> Dict[str, Optional[Tuple[TimeInterval, ...]]]:
    """The syntactic strong-causality rule, per output channel.

    A channel is fixed when no ``pass`` targets it and, in every state, all
    transitions emit the same on it, and that emission is silence or comes
    from the state's single total transition: then every tick in the state,
    a stutter included, emits it.  A fixed channel maps to its emission in
    each of ``spec.states``, and any other to None, including a non-output
    channel that a ``pass`` targets.  Transitions from undeclared states
    take part only in the ``pass`` test.
    """
    outgoing: Dict[str, List[Transition]] = {}
    passed = set()
    for t in spec.transitions:
        passed.update(o.channel for o in t.outputs if o.is_pass)
        outgoing.setdefault(t.source, []).append(t)

    def column(ch: str) -> Optional[Tuple[TimeInterval, ...]]:
        emissions = []
        for state in spec.states:
            group = outgoing.get(state, [])
            options = {{o.channel: o.messages for o in t.outputs}.get(ch, ()) for t in group}
            emission = options.pop() if options else ()
            if options or emission and not (len(group) == 1 and group[0].is_total()):
                return None
            emissions.append(emission)
        return tuple(emissions)

    return {ch: None if ch in passed else column(ch) for ch in (*spec.out_channels(), *passed)}


def classify_causality_syntactic(spec: ComponentSpec) -> CausalityClass:
    """Sufficient syntactic check that outputs never depend on same-tick input.

    Strong requires: no pass-through emission anywhere, and per state either
    all outgoing transitions emit nothing (then a stutter is indistinguishable
    too) or the state has exactly one outgoing transition, it is always
    enabled, and every sibling agrees on the emission.  Machines failing the
    test are reported weak even when a semantic analysis might disagree.
    The rule is ``_strong_outputs``, which :mod:`tstd.network` applies per
    channel: a spec is strong exactly when it fixes every channel.
    """
    fixed = all(column is not None for column in _strong_outputs(spec).values())
    return CausalityClass.STRONG if fixed else CausalityClass.WEAK
