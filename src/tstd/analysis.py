"""What ``validate`` warns about, and the syntactic causality rule.

:func:`validate_spec` adds to the errors of :mod:`tstd.model` the warnings
that no other command needs: syntactically overlapping transitions and
unreachable states.  :func:`_strong_outputs` is the syntactic strong-causality
rule, per output channel; :mod:`tstd.network` cuts instantaneous loops by it,
and :func:`classify_causality_syntactic` applies it to a whole spec.  Of the
commands, only ``validate`` loads this module, and ``compose`` and ``check
feedback`` when their network uses a component.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    ComponentSpec,
    Finding,
    IntervalPattern,
    PatternKind,
    Relation,
    Severity,
    Transition,
    VarGuard,
    _errors,
)
from .streams import TimeInterval

__all__ = ["CausalityClass", "classify_causality_syntactic", "validate_spec"]


class CausalityClass(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


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
