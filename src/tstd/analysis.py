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
import operator
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .model import ComponentSpec, Finding, Relation, Severity, Transition, VarGuard, _errors
from .streams import TimeInterval

__all__ = ["CausalityClass", "classify_causality_syntactic", "validate_spec"]


class CausalityClass(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


_HOLDS = {
    Relation.LT: operator.lt,
    Relation.LE: operator.le,
    Relation.EQ: operator.eq,
    Relation.NE: operator.ne,
    Relation.GE: operator.ge,
    Relation.GT: operator.gt,
}


def _satisfiable(guards: Sequence[VarGuard]) -> bool:
    """Whether some integer valuation satisfies all guards simultaneously.

    Guards constrain each variable independently.  One variable's guards hold
    together exactly when they all hold at a bound b, b - 1 or b + 1: the least
    allowed value, if any, is a bound or one past a bound that a ``>`` or
    ``!=`` guard refuses; the greatest, the same the other way; and if neither
    exists, one past the largest ``!=`` bound is allowed.
    """
    by_var: Dict[str, List[VarGuard]] = {}
    for g in guards:
        by_var.setdefault(g.var, []).append(g)
    for var_guards in by_var.values():
        for value in {g.bound + d for g in var_guards for d in (-1, 0, 1)}:
            if all(_HOLDS[g.relation](value, g.bound) for g in var_guards):
                break
        else:
            return False
    return True


def validate_spec(spec: ComponentSpec) -> List[Finding]:
    """Structural validation: a deterministic list of errors and warnings.

    Errors cover broken references, uniqueness violations and a missing
    output channel, and a parser refuses them all; warnings, for a spec with
    no error, cover syntactically overlapping transitions and states
    unreachable from the initial one.  Equal specs yield equal reports.
    """
    findings = _errors(spec)

    def warning(msg: str) -> None:
        findings.append(Finding(Severity.WARNING, msg))

    if not findings:
        by_source: Dict[str, List[Tuple[int, Transition]]] = {}
        for idx, t in enumerate(spec.transitions, start=1):
            by_source.setdefault(t.source, []).append((idx, t))
        for state in spec.states:
            for (ia, ta), (ib, tb) in combinations(by_source.get(state, ()), 2):
                # Syntactic rule: patterns overlap on a channel that both
                # transitions guard only when equal, as `any` (which Transition
                # drops) subsumes anything.  Distinct patterns are treated as
                # disjoint even when they are not (e.g. nonempty vs contains);
                # this keeps the check trivially decidable and errs toward
                # silence, not noise.
                patterns = {g.channel: g.pattern for g in tb.interval_guards}
                if all(
                    patterns.get(g.channel, g.pattern) == g.pattern for g in ta.interval_guards
                ) and _satisfiable(ta.var_guards + tb.var_guards):
                    warning(
                        f"transitions {ia} and {ib} from state '{state}' can be "
                        "enabled simultaneously; declaration order decides"
                    )

        reachable = {spec.initial}
        frontier = [spec.initial]
        while frontier:
            for _, t in by_source.get(frontier.pop(), ()):
                if t.target not in reachable:
                    reachable.add(t.target)
                    frontier.append(t.target)
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
