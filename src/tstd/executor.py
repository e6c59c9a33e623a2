"""Tick-by-tick execution of a single component spec.

A spec is compiled once into a private machine: Python source generated from
the transitions and run through ``exec``.  Each tick fires at most one
transition, the first enabled one, and is total, so when nothing is enabled
the machine stutters in place and stays silent, time always advances and a
T-tick input yields exactly a T-tick output.  One tick of a spec is
generated in one place, :func:`_tick_source`, under names its caller picks,
and wrapped twice: by a machine's own loop, which ``run`` calls over a whole
input and which fires any number of ticks from any configuration, and by the
tick loop of a compiled network (:mod:`tstd.network`), which inlines it once
per instance and so advances all of a network's machines in lock step.  The
seeded checks, which run whole inputs, live in :mod:`tstd.checks`, and
:class:`Trace` in :mod:`tstd.streams`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ._value import _tuple
from .model import ComponentSpec, PatternKind, Relation, Transition, UpdateOp, _errors
from .streams import ChannelMismatchError, TimeInterval, Trace, _run_kernel, _trace

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


def _tick_source(
    spec: ComponentSpec,
    namespace: Dict[str, object],
    state: str,
    inputs: Sequence[str],
    outputs: Sequence[Optional[str]],
    variables: Sequence[str],
) -> List[str]:
    """Source lines, unindented, of one tick of ``spec`` (which has no errors).

    The names are the caller's: ``state`` holds the index of the current
    state in ``spec.states``, ``inputs`` the tick's input intervals in
    ``in_channels`` order and ``variables`` the variables in ``spec.vars``
    order.  ``outputs`` holds a template per output channel, in
    ``out_channels`` order, that takes the expression of the channel's
    interval: ``"a0({})"`` appends it, ``"x7 = {}"`` writes it to a
    variable, and None drops it (the network has already written it).

    The tick is an ``if``/``elif`` on ``state``, left out for a one-state
    spec.  Each state tries its transitions in declaration order up to the
    first unguarded one, after which nothing can fire; each guard is one
    inline expression.  A transition writes its output interval on each
    channel, updates the variables and, unless it is a self-loop, sets
    ``state`` to its target.  When no guard holds, the machine stutters:
    every channel gets an empty interval.  The source holds only the
    caller's names, integer indices and constants ``k<n>``, whose values
    are added to ``namespace``.
    """
    in_name = dict(zip(spec.in_channels(), inputs))
    out_pos = {ch: c for c, ch in enumerate(spec.out_channels())}
    var_name = {v.name: name for v, name in zip(spec.vars, variables)}
    state_index = {s: k for k, s in enumerate(spec.states)}

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
    return _if_chain(states)


class _Machine:
    """A component spec compiled once into one generated Python function.

    States are indices into ``spec.states``, a variable valuation (an env)
    is a tuple in ``var_names`` order, and a machine sees only intervals:
    tick inputs and the input columns of :meth:`run` come in ``in_channels``
    order, tick outputs and output columns in ``out_channels`` order.

    ``kernel(ticks, state, env, a0, a1, ...)`` wraps :func:`_tick_source` in
    a loop over the iterator ``ticks``, each item one tick's input
    intervals, with the variables as local variables.  It fires from
    configuration ``(state, env)``, passes each output channel's interval to
    that channel's ``a<c>``, and returns the configuration it ends in.  Its
    source holds only names it makes and integer indices; every value of
    the spec (messages, bounds, update values, literal outputs) reaches it
    through its namespace.

    Compiling refuses a spec with errors: the ValueError names the first
    error finding of ``validate_spec``.
    """

    __slots__ = (
        "in_channels",
        "out_channels",
        "state_index",
        "var_names",
        "initial_state",
        "initial_env",
        "kernel",
    )

    def __init__(self, spec: ComponentSpec):
        _refuse_errors(spec)
        self.in_channels = spec.in_channels()
        self.out_channels = spec.out_channels()
        self.state_index = {s: i for i, s in enumerate(spec.states)}
        self.var_names = tuple(v.name for v in spec.vars)
        self.initial_state = self.state_index[spec.initial]
        self.initial_env = tuple(v.initial for v in spec.vars)
        inputs = [f"i{i}" for i in range(len(self.in_channels))]
        appends = [f"a{c}" for c in range(len(self.out_channels))]
        variables = [f"v{j}" for j in range(len(self.var_names))]
        namespace: Dict[str, object] = {}
        outputs = [a + "({})" for a in appends]
        tick = _tick_source(spec, namespace, "state", inputs, outputs, variables)
        env = _tuple(variables)
        source = [
            f"def kernel(ticks, state, env{''.join(', ' + a for a in appends)}):",
            f"    {env} = env",
            f"    for {_tuple(inputs)} in ticks:",
            *("        " + line for line in tick or ["pass"]),
            f"    return state, {env}",
        ]
        exec("\n".join(source), namespace)
        self.kernel = namespace["kernel"]

    def run(self, columns: Sequence[Sequence[TimeInterval]], length: int) -> List[list]:
        config = (self.initial_state, self.initial_env)
        return _run_kernel(self.kernel, columns, length, len(self.out_channels), *config)


def run(spec: ComponentSpec, inputs: Trace) -> Trace:
    """Compile ``spec`` once, then fire it once per tick of ``inputs``.

    The input trace must carry exactly the spec's input channels; the result
    carries exactly its output channels and has the same tick count.
    """
    expected = set(spec.in_channels())
    got = set(inputs.channels)
    if expected != got:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ChannelMismatchError(
            f"input trace channels do not match spec: missing {missing}, unexpected {extra}"
        )
    machine = _Machine(spec)
    columns = [inputs.channels[ch].intervals for ch in machine.in_channels]
    return _trace(machine.out_channels, machine.run(columns, inputs.length), inputs.length)
