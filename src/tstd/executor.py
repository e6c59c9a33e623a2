"""Tick-by-tick execution of a single component spec.

A spec is compiled once: Python source generated from the transitions and
run through ``exec``.  Each tick fires at most one transition, the first
enabled one, and is total, so when nothing is enabled the machine stutters
in place and stays silent, time always advances and a T-tick input yields
exactly a T-tick output.  A machine's tick and its part of a configuration
are stated in one place, :func:`_machine_part`, under names numbered by the
machine's place in its system.  A lone spec compiles (:func:`_compile`) as
a system of one machine whose outputs append straight to their columns; a
network (:mod:`tstd.network`) inlines a part per instance.  Either way one
tick loop, :class:`tstd.streams._CompiledSystem`, fires any number of ticks
from any configuration, run by :func:`tstd.streams._run_kernel`.  The
seeded checks live in :mod:`tstd.checks`, and :class:`Trace` in
:mod:`tstd.streams`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ._value import _tuple
from .model import ComponentSpec, PatternKind, Relation, Transition, UpdateOp, _errors
from .streams import ChannelMismatchError, Trace, _CompiledSystem, _run_kernel, _trace

__all__ = ["run"]

# Each pattern kind and relation as a Python expression over an input
# interval ``i`` and a constant ``k``: the one statement of what a guard
# means in tstd (an ``any`` guard never reaches a Transition).
_PATTERN_CODE = {
    PatternKind.EMPTY: "not {i}",
    PatternKind.NONEMPTY: "{i}",
    PatternKind.CONTAINS: "{k} in {i}",
    PatternKind.LEN_EQ: "len({i}) == {k}",
    PatternKind.LEN_GE: "len({i}) >= {k}",
    PatternKind.FIRST_IS: "{i} and {i}[0] == {k}",
}
_RELATION_CODE = {r: "==" if r is Relation.EQ else r.value for r in Relation}


def _refuse_errors(spec: ComponentSpec) -> None:
    """Raise a ValueError naming the first error finding of ``validate_spec``."""
    errors = _errors(spec)
    if errors:
        raise ValueError(f"component '{spec.name}': {errors[0].message}")


def _if_chain(branches: Sequence[Tuple[str, List[str]]]) -> List[str]:
    """Source of an ``if``/``elif`` chain over ``(test, lines)`` pairs, where a
    last pair without a test is the ``else``; a lone such pair is its lines."""
    if len(branches) == 1 and not branches[0][0]:
        return branches[0][1]
    lines: List[str] = []
    for n, (test, body) in enumerate(branches):
        head = f"{'elif' if n else 'if'} {test}:" if test else "else:"
        lines += [head, *("    " + line for line in body or ["pass"])]
    return lines


def _machine_part(
    spec: ComponentSpec,
    namespace: Dict[str, object],
    n: int,
    inputs: Sequence[str],
    outputs: Sequence[Optional[str]],
) -> Tuple[tuple, List[str]]:
    """The configuration part of machine ``n`` of a system, as
    :class:`tstd.streams._CompiledSystem` takes it, and the source lines,
    unindented, of one tick of ``spec`` (which has no errors).

    The machine's state is ``s<n>``, the index of the current state in
    ``spec.states``, and its variables ``v<n>_<j>`` in ``spec.vars`` order;
    its part is ``(s<n>, (v<n>_0, ...))``.  ``inputs`` names the tick's input
    intervals in ``in_channels`` order.  ``outputs`` holds a template per
    output channel, in ``out_channels`` order, that takes the expression of
    the channel's interval: ``"o0({})"`` appends it, ``"x7 = {}"`` writes it
    to a variable, and None drops it (the network has already written it).

    The tick is an ``if``/``elif`` on the state, left out for a one-state
    spec.  Each state tries its transitions in declaration order up to the
    first unguarded one, after which nothing can fire; each guard is one
    inline expression.  A transition writes its output interval on each
    channel, updates the variables and, unless it is a self-loop, sets the
    state to its target.  When no guard holds, the machine stutters: every
    channel gets an empty interval.  The source holds only the caller's
    names, the machine's, integer indices and constants ``k<i>``, whose
    values are added to ``namespace``.
    """
    state = f"s{n}"
    variables = [f"v{n}_{j}" for j in range(len(spec.vars))]
    part = f"({state}, {_tuple(variables)})"
    state_index = {s: k for k, s in enumerate(spec.states)}
    start = (state_index[spec.initial], tuple(v.initial for v in spec.vars))
    in_name = dict(zip(spec.in_channels(), inputs))
    out_pos = {ch: c for c, ch in enumerate(spec.out_channels())}
    var_name = {v.name: name for v, name in zip(spec.vars, variables)}

    def const(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def write(values: List[str]) -> List[str]:
        return [out.format(v) for out, v in zip(outputs, values) if out is not None]

    outgoing: Dict[str, List[Transition]] = {s: [] for s in spec.states}
    for t in spec.transitions:
        outgoing[t.source].append(t)
    states = []
    for k, source in enumerate(spec.states):
        transitions = []
        for t in outgoing[source]:
            values = ["()"] * len(outputs)
            for action in t.outputs:
                c = out_pos[action.channel]
                if action.is_pass:
                    values[c] = in_name[action.source]
                elif action.messages:
                    values[c] = const(action.messages)
            guards = [
                _PATTERN_CODE[g.pattern.kind].format(
                    i=in_name[g.channel],
                    k=const(g.pattern.count if g.pattern.message is None else g.pattern.message),
                )
                for g in t.interval_guards
            ]
            guards += [
                f"{var_name[g.var]} {_RELATION_CODE[g.relation]} {const(g.bound)}"
                for g in t.var_guards
            ]
            body = write(values) + [
                f"{var_name[u.var]} = "
                + (f"{var_name[u.var]} + " if u.op is UpdateOp.ADD else "")
                + const(u.value)
                for u in t.updates
            ]
            target = state_index[t.target]
            if target != k:
                body.append(f"{state} = {target}")
            transitions.append((" and ".join(guards), body))
            if not guards:
                break
        else:
            # No unguarded transition: the state can stutter.
            transitions.append(("", write(["()"] * len(outputs))))
        last = k == len(spec.states) - 1
        states.append(("" if last else f"{state} == {k}", _if_chain(transitions)))
    return (part + " = {}", part, start), _if_chain(states)


def _compile(spec: ComponentSpec) -> _CompiledSystem:
    """``spec`` compiled as a system of one machine, whose outputs append
    straight to their columns; refuses a spec with errors with a ValueError
    naming the first error finding of ``validate_spec``."""
    _refuse_errors(spec)
    namespace: Dict[str, object] = {}
    inputs = [f"i{k}" for k in range(len(spec.in_channels()))]
    outputs = [f"o{c}({{}})" for c in range(len(spec.out_channels()))]
    part, tick = _machine_part(spec, namespace, 0, inputs, outputs)
    return _CompiledSystem(spec.in_channels(), spec.out_channels(), inputs, [part], tick, namespace)


def run(spec: ComponentSpec, inputs: Trace) -> Trace:
    """Compile ``spec`` once, then fire it once per tick of ``inputs``.

    The input trace must carry exactly the spec's input channels; the result
    carries exactly its output channels and has the same tick count.
    """
    expected, got = set(spec.in_channels()), set(inputs.channels)
    if expected != got:
        raise ChannelMismatchError(
            f"input trace channels do not match spec: missing {sorted(expected - got)}, "
            f"unexpected {sorted(got - expected)}"
        )
    machine = _compile(spec)
    columns = [inputs.channels[ch].intervals for ch in machine.in_channels]
    outputs, _ = _run_kernel(machine, columns, inputs.length)
    return _trace(machine.out_channels, outputs, inputs.length)
