"""Timed state transition diagrams: the machine model and its static checks.

A component spec declares directed message channels, integer variables, named
states and an ordered list of guarded transitions.  At each tick a machine
reads one time interval per input channel, fires the first enabled transition
in declaration order (or stutters), and emits one time interval per output
channel.  This module holds the data model, structural validation, and the
syntactic causality classification; the tick semantics live in
:mod:`tstd.executor`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    "enabled_transitions",
    "has_errors",
    "state_determined_output",
    "validate_spec",
]


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True, slots=True)
class ChannelDecl:
    name: str
    direction: Direction


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    def matches(self, iv: TimeInterval) -> bool:
        kind = self.kind
        if kind is PatternKind.ANY:
            return True
        if kind is PatternKind.EMPTY:
            return len(iv) == 0
        if kind is PatternKind.NONEMPTY:
            return len(iv) > 0
        if kind is PatternKind.CONTAINS:
            return self.message in iv
        if kind is PatternKind.LEN_EQ:
            return len(iv) == self.count
        if kind is PatternKind.LEN_GE:
            return len(iv) >= self.count
        if kind is PatternKind.FIRST_IS:
            return len(iv) > 0 and iv[0] == self.message
        raise AssertionError(kind)

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


@dataclass(frozen=True, slots=True)
class IntervalGuard:
    channel: str
    pattern: IntervalPattern

    def holds(self, tick_inputs: Mapping[str, TimeInterval]) -> bool:
        return self.pattern.matches(tick_inputs[self.channel])

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


@dataclass(frozen=True, slots=True)
class VarGuard:
    var: str
    relation: Relation
    bound: int

    def holds(self, env: Mapping[str, int]) -> bool:
        v = env[self.var]
        rel = self.relation
        if rel is Relation.LT:
            return v < self.bound
        if rel is Relation.LE:
            return v <= self.bound
        if rel is Relation.EQ:
            return v == self.bound
        if rel is Relation.NE:
            return v != self.bound
        if rel is Relation.GE:
            return v >= self.bound
        return v > self.bound

    def render(self) -> str:
        return f"{self.var} {self.relation.value} {self.bound}"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class VarUpdate:
    var: str
    op: UpdateOp
    value: int

    def apply(self, current: int) -> int:
        return self.value if self.op is UpdateOp.SET else current + self.value

    def render(self) -> str:
        if self.op is UpdateOp.SET:
            return f"{self.var} := {self.value}"
        if self.value < 0:
            return f"{self.var} := {self.var} - {-self.value}"
        return f"{self.var} := {self.var} + {self.value}"


def _guard_sort_key(g: IntervalGuard):
    return (g.channel, g.pattern.kind.value, str(g.pattern.message), g.pattern.count or 0)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True, slots=True)
class Finding:
    """One validation result; ``location`` (see :func:`check_transition`)
    lets a parser point at a clause's line, and ``render`` ignores it."""

    severity: Severity
    message: str
    location: Optional[Tuple[int, str, int]] = None

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


def validate_spec(spec: ComponentSpec) -> List[Finding]:
    """Structural validation: a deterministic list of errors and warnings.

    Errors cover broken references and uniqueness violations; warnings cover
    syntactically overlapping transitions and states unreachable from the
    initial one.  The function is pure: equal specs yield equal reports.
    """
    findings: List[Finding] = []

    def error(msg: str) -> None:
        findings.append(Finding(Severity.ERROR, msg))

    def warning(msg: str) -> None:
        findings.append(Finding(Severity.WARNING, msg))

    if not IDENT_RE.match(spec.name):
        error(f"component name {spec.name!r} is not a valid identifier")

    seen_channels = set()
    for ch in spec.channels:
        if not IDENT_RE.match(ch.name):
            error(f"channel name {ch.name!r} is not a valid identifier")
        if ch.name in seen_channels:
            error(f"duplicate channel name '{ch.name}'")
        seen_channels.add(ch.name)
    in_set = set(spec.in_channels())
    out_set = set(spec.out_channels())
    if not out_set:
        error("spec declares no output channel")

    seen_vars = set()
    for v in spec.vars:
        if not IDENT_RE.match(v.name):
            error(f"variable name {v.name!r} is not a valid identifier")
        if v.name in seen_vars:
            error(f"duplicate variable name '{v.name}'")
        if v.name in seen_channels:
            error(f"variable '{v.name}' collides with a channel name")
        seen_vars.add(v.name)

    seen_states = set()
    for s in spec.states:
        if not IDENT_RE.match(s):
            error(f"state name {s!r} is not a valid identifier")
        if s in seen_states:
            error(f"duplicate state name '{s}'")
        seen_states.add(s)
    if not spec.states:
        error("spec declares no states")
    if spec.initial not in seen_states:
        error(f"initial state '{spec.initial}' is not declared")

    for idx, t in enumerate(spec.transitions, start=1):
        findings += check_transition(idx, t, seen_states, in_set, out_set, seen_vars)

    if not any(f.severity is Severity.ERROR for f in findings):
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


def enabled_transitions(
    spec: ComponentSpec,
    state: str,
    var_env: Mapping[str, int],
    tick_inputs: Mapping[str, TimeInterval],
) -> List[Transition]:
    """All transitions firable from ``state`` on this tick, declaration order.

    A channel without a guard is unconstrained.  ``tick_inputs`` must cover
    every input channel; an unknown state is a caller bug.
    """
    if state not in spec.states:
        raise ValueError(f"unknown state: {state!r}")
    for ch in spec.in_channels():
        if ch not in tick_inputs:
            raise ValueError(f"tick inputs missing channel '{ch}'")
    result = []
    for t in spec.transitions:
        if t.source != state:
            continue
        if all(g.holds(tick_inputs) for g in t.interval_guards) and all(
            g.holds(var_env) for g in t.var_guards
        ):
            result.append(t)
    return result


def _output_profile(t: Transition, out_channels: Sequence[str]) -> Tuple[Tuple[Message, ...], ...]:
    emitted = {o.channel: o.messages for o in t.outputs}
    return tuple(emitted.get(ch) or () for ch in out_channels)


def state_determined_output(spec: ComponentSpec, state: str) -> Dict[str, TimeInterval]:
    """The tick output a strongly causal spec produces from ``state``.

    Meaningful only for specs classified strong: there every transition
    leaving a state emits the same literals, so the output is a function of
    the state alone (empty when the state can stutter).
    """
    outgoing = [t for t in spec.transitions if t.source == state]
    out_channels = spec.out_channels()
    blank = {ch: () for ch in out_channels}
    if not outgoing:
        return blank
    profile = _output_profile(outgoing[0], out_channels)
    if all(len(iv) == 0 for iv in profile):
        return blank
    return dict(zip(out_channels, profile))


def classify_causality_syntactic(spec: ComponentSpec) -> CausalityClass:
    """Sufficient syntactic check that outputs never depend on same-tick input.

    Strong requires: no pass-through emission anywhere, and per state either
    all outgoing transitions emit nothing (then a stutter is indistinguishable
    too) or the state has exactly one outgoing transition, it is always
    enabled, and every sibling agrees on the emission.  Machines failing the
    test are reported weak even when a semantic analysis might disagree.
    """
    out_channels = spec.out_channels()
    for t in spec.transitions:
        if any(o.is_pass for o in t.outputs):
            return CausalityClass.WEAK
    for state in spec.states:
        outgoing = [t for t in spec.transitions if t.source == state]
        if not outgoing:
            continue
        profiles = {_output_profile(t, out_channels) for t in outgoing}
        if len(profiles) > 1:
            return CausalityClass.WEAK
        profile = next(iter(profiles))
        if all(len(iv) == 0 for iv in profile):
            continue
        if len(outgoing) == 1 and outgoing[0].is_total():
            continue
        return CausalityClass.WEAK
    return CausalityClass.STRONG
