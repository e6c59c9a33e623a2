"""Tick-by-tick execution of a single component spec.

A spec is compiled once into a private machine: Python source generated from
the transitions and run through ``exec``.  Each tick fires at most one
transition, the first enabled one, and is total, so when nothing is enabled
the machine stutters in place and stays silent, time always advances and a
T-tick input yields exactly a T-tick output.  Most ticks of a run stay in
one control state, so each state is one generated loop that keeps reading
ticks for as long as the machine stays there, with the variables as local
variables and one output column per channel; ``run`` calls the current
state's loop until the input runs out.  Each state is also one generated
function that fires a single tick from a configuration, the state's index
and the variables' values, for :func:`tstd.network.run_network`, which
advances all of a network's machines in lock step.  The seeded checks,
which run whole inputs, live in :mod:`tstd.checks`, and :class:`Trace` in
:mod:`tstd.streams`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from ._value import _tuple
from .model import ComponentSpec, PatternKind, Relation, Transition, UpdateOp, _errors
from .streams import StreamPrefix, TimeInterval, Trace

__all__ = ["ChannelMismatchError", "run"]


class ChannelMismatchError(ValueError):
    """A trace's channel set does not match what the spec expects."""


def _guarded(guard: str, lines: List[str]) -> List[str]:
    """Source ``lines`` under ``if guard:``, or as they are when unguarded."""
    return [f"if {guard}:", *("    " + line for line in lines)] if guard else lines


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


class _Machine:
    """A component spec compiled once into generated Python functions.

    States are indices into ``spec.states``, a variable valuation (an env)
    is a tuple in ``var_names`` order, and a machine sees only intervals:
    tick inputs and the input columns of :meth:`run` come in ``in_channels``
    order, tick outputs and output columns in ``out_channels`` order.

    Each transition becomes source fragments, made in one place
    (:meth:`_fragments`): its guard as one inline expression over the tick's
    input intervals ``i0, i1, ...`` and the variables ``v0, v1, ...``, its
    output interval on each channel, its updates as assignments to those
    variables, and its target.  A state keeps its transitions in declaration
    order up to the first unguarded one, after which nothing can fire.  The
    fragments are wrapped two ways, and one ``exec`` in ``__init__``
    compiles both forms of every state, one entry per state in ``loops`` and
    in ``ticks``:

    - The state loop ``s<s>(ticks, appends, env)``, for a whole run, reads
      ticks from the shared iterator ``ticks`` for as long as the machine
      stays in state ``s``.  ``appends`` holds the ``append`` of each output
      channel's column, and the variables are its locals.  Each transition
      is a flat ``if`` block that appends its output interval on each
      channel, updates the locals, and then either goes on to the next tick
      (a self-loop) or returns ``(target, env)``.  When no guard holds the
      machine stutters: every channel gets an empty interval.  When
      ``ticks`` runs out the loop returns ``(~s, env)``, a negative state,
      which ends :meth:`run`.
    - The tick function ``t<s>(env, i0, i1, ...)``, for a single tick, fires
      once from state ``s`` and returns ``(target, env, outputs)``.  Only
      :func:`tstd.network.run_network` calls it.

    The generated source holds only names it makes and integer indices;
    every value of the spec (messages, bounds, update values, literal
    outputs) reaches the functions through their namespace.

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
        "loops",
        "ticks",
    )

    def __init__(self, spec: ComponentSpec):
        errors = _errors(spec)
        if errors:
            raise ValueError(f"component '{spec.name}': {errors[0].message}")
        self.in_channels = spec.in_channels()
        self.out_channels = spec.out_channels()
        self.state_index = {s: i for i, s in enumerate(spec.states)}
        self.var_names = tuple(v.name for v in spec.vars)
        self.initial_state = self.state_index[spec.initial]
        self.initial_env = tuple(v.initial for v in spec.vars)
        namespace: Dict[str, object] = {"S": ((),) * len(self.out_channels)}
        lines: List[str] = []
        for s, state in enumerate(self._fragments(spec, namespace)):
            lines += self._loop_source(s, *state)
            lines += self._tick_source(s, *state)
        exec("\n".join(lines), namespace)
        self.loops = tuple(namespace[f"s{s}"] for s in range(len(spec.states)))
        self.ticks = tuple(namespace[f"t{s}"] for s in range(len(spec.states)))

    def _fragments(
        self, spec: ComponentSpec, namespace: Dict[str, object]
    ) -> List[Tuple[list, bool, bool, bool]]:
        """Per state, ``(fragments, closed, reads, uses_vars)``: the
        fragments of its transitions up to the first unguarded one, whether
        there is one (then the state never stutters), whether they read the
        tick's inputs and whether they name a variable.  A fragment is
        ``(guard, outputs, output_tuple, updates, target)``: the guard
        expression ("" when unguarded), the expression of each channel's
        output interval, the expression of the whole output tuple, the
        update statements and the target's index."""
        in_name = {ch: f"i{i}" for i, ch in enumerate(self.in_channels)}
        out_pos = {ch: i for i, ch in enumerate(self.out_channels)}
        var_name = {v: f"v{j}" for j, v in enumerate(self.var_names)}

        def const(value) -> str:
            name = f"k{len(namespace)}"
            namespace[name] = value
            return name

        outgoing: Dict[str, List[Transition]] = {s: [] for s in spec.states}
        for t in spec.transitions:
            outgoing[t.source].append(t)
        states = []
        for source in spec.states:
            fragments = []
            closed = reads = uses_vars = False
            for t in outgoing[source]:
                literal = [()] * len(self.out_channels)
                outputs = ["()"] * len(self.out_channels)
                passes = False
                for action in t.outputs:
                    c = out_pos[action.channel]
                    if action.is_pass:
                        outputs[c] = in_name[action.source]
                        passes = True
                    elif action.messages:
                        literal[c] = action.messages
                        outputs[c] = const(action.messages)
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
                updates = [
                    f"{var_name[u.var]} = "
                    + (f"{var_name[u.var]} + " if u.op is UpdateOp.ADD else "")
                    + const(u.value)
                    for u in t.updates
                ]
                output_tuple = _tuple(outputs) if passes else const(tuple(literal))
                target = self.state_index[t.target]
                fragments.append((" and ".join(guards), outputs, output_tuple, updates, target))
                reads = reads or passes or bool(t.interval_guards)
                uses_vars = uses_vars or bool(t.var_guards or t.updates)
                if not guards:
                    closed = True
                    break
            states.append((fragments, closed, reads, uses_vars))
        return states

    def _loop_source(
        self, s: int, fragments: list, closed: bool, reads: bool, uses_vars: bool
    ) -> List[str]:
        appends = [f"a{c}" for c in range(len(self.out_channels))]
        env = _tuple(f"v{j}" for j in range(len(self.var_names))) if uses_vars else "env"
        body: List[str] = []
        for guard, outputs, _, updates, target in fragments:
            fire = [f"{a}({out})" for a, out in zip(appends, outputs)] + updates
            fire.append("continue" if target == s else f"return {target}, {env}")
            body += _guarded(guard, fire)
        if not closed:
            body += [f"{a}(())" for a in appends]
        inputs = _tuple(f"i{i}" for i in range(len(self.in_channels))) if reads else "_"
        return [
            f"def s{s}(ticks, appends, env):",
            *([f"    {_tuple(appends)} = appends"] if appends else []),
            *([f"    {env} = env"] if uses_vars else []),
            f"    for {inputs} in ticks:",
            *("        " + line for line in body or ["pass"]),
            f"    return {~s}, {env}",
        ]

    def _tick_source(
        self, s: int, fragments: list, closed: bool, reads: bool, uses_vars: bool
    ) -> List[str]:
        variables = _tuple(f"v{j}" for j in range(len(self.var_names)))
        body = [f"{variables} = env"] if uses_vars else []
        for guard, _, output_tuple, updates, target in fragments:
            env = variables if updates else "env"
            body += _guarded(guard, [*updates, f"return {target}, {env}, {output_tuple}"])
        if not closed:
            body.append(f"return {s}, env, S")
        inputs = "".join(f", i{i}" for i in range(len(self.in_channels)))
        return [f"def t{s}(env{inputs}):", *("    " + line for line in body)]

    def run(self, columns: Sequence[Sequence[TimeInterval]], length: int) -> List[list]:
        ticks = zip(*columns) if columns else repeat((), length)
        outputs: List[List[TimeInterval]] = [[] for _ in self.out_channels]
        appends = tuple([column.append for column in outputs])
        loops = self.loops
        state, env = self.initial_state, self.initial_env
        while state >= 0:
            state, env = loops[state](ticks, appends, env)
        return outputs


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
    outputs = zip(machine.out_channels, machine.run(columns, inputs.length))
    return Trace({ch: StreamPrefix(tuple(col)) for ch, col in outputs}, length=inputs.length)
