"""Tick-by-tick execution of a single component spec.

A spec is compiled once into a private machine: Python source with one
function per state, generated from the transitions and run through ``exec``.
Calling the current state's function is the only per-tick operation: it
fires at most one transition and is total, so when nothing is enabled the
machine stutters in place and stays silent, time always advances and a
T-tick input yields exactly a T-tick output.  ``run`` compiles the spec and
folds the state functions over the ticks; ``step`` is the same tick on named
configurations.  Two seeded refutation checks compile each spec once and
reuse it for every trial: ``probe_causality`` hunts for same-tick input
sensitivity, ``check_untimed_simulation`` compares two machines modulo tick
boundaries.  Both report evidence, never proofs.  They import
:mod:`tstd.gen` when called, so running a spec does not load it.
:class:`Trace` lives in :mod:`tstd.streams` and is importable from here too.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._value import value
from .model import (
    ComponentSpec,
    PatternKind,
    Relation,
    Severity,
    UpdateOp,
    _strong_outputs,
    validate_spec,
)
from .streams import Message, StreamPrefix, TimeInterval, Trace, untimed_abstraction

__all__ = [
    "CausalityProbeResult",
    "ChannelMismatchError",
    "Configuration",
    "SimulationCheckResult",
    "Trace",
    "check_untimed_simulation",
    "probe_causality",
    "run",
    "step",
]


class ChannelMismatchError(ValueError):
    """A trace's channel set does not match what the spec expects."""


@value
class Configuration:
    """Machine snapshot between ticks: control state plus variable valuation."""

    state: str
    var_env: Mapping[str, int]

    @classmethod
    def initial(cls, spec: ComponentSpec) -> "Configuration":
        return cls(spec.initial, spec.initial_env())


def _tuple(items: Iterable[str]) -> str:
    """Source text of a tuple display (or target) of ``items``."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


# Each pattern kind and relation as a Python expression over an input
# interval ``i`` and a constant ``k``; what they test is model's
# _PATTERN_TESTS and _RELATION_TESTS.
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
    """A component spec compiled once into one Python function per state.

    States are indices into ``spec.states``, a variable valuation is a
    tuple in ``var_names`` order, tick inputs are a sequence in
    ``in_channels`` order and tick outputs a tuple in ``out_channels`` order.
    ``fns[s](env, inputs)`` is one tick from state ``s`` and returns
    ``(target, env, outputs)``: it tests the transitions leaving ``s`` in
    declaration order, each guard an inline expression, and returns from the
    first one whose guards all hold, with its literal outputs, its
    pass-throughs and a new env tuple for its updates.  When none holds it
    stutters: it returns ``s``, the same env and ``silence``.

    The generated source holds only names it makes and integer indices;
    every value of the spec (messages, bounds, update values, literal
    outputs) reaches the functions through their namespace.

    ``emits`` is the strong-causality table of :mod:`tstd.model`: for a
    strongly causal spec, ``emits[s]`` is the output of every tick spent in
    state ``s``, so a network can read it before the inputs exist; for a
    weak spec it is None.

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
        "silence",
        "fns",
        "emits",
    )

    def __init__(self, spec: ComponentSpec):
        errors = [f for f in validate_spec(spec) if f.severity is Severity.ERROR]
        if errors:
            raise ValueError(f"component '{spec.name}': {errors[0].message}")
        self.in_channels = spec.in_channels()
        self.out_channels = spec.out_channels()
        self.state_index = {s: i for i, s in enumerate(spec.states)}
        self.var_names = tuple(v.name for v in spec.vars)
        self.initial_state = self.state_index[spec.initial]
        self.initial_env = tuple(v.initial for v in spec.vars)
        self.silence: Tuple[TimeInterval, ...] = ((),) * len(self.out_channels)

        in_name = {ch: f"i{i}" for i, ch in enumerate(self.in_channels)}
        out_pos = {ch: i for i, ch in enumerate(self.out_channels)}
        var_pos = {v: i for i, v in enumerate(self.var_names)}
        namespace = {"S": self.silence}

        def const(value) -> str:
            name = f"k{len(namespace)}"
            namespace[name] = value
            return name

        bodies: List[List[str]] = [[] for _ in spec.states]
        closed = set()  # states with an unguarded transition: nothing after it fires
        reads = set()  # states whose function reads its inputs
        for t in spec.transitions:
            source = self.state_index[t.source]
            if source in closed:
                continue
            literal = list(self.silence)
            for action in t.outputs:
                if not action.is_pass:
                    literal[out_pos[action.channel]] = action.messages
            passes = any(action.is_pass for action in t.outputs)
            if t.interval_guards or passes:
                reads.add(source)
            if passes:
                items = [const(iv) for iv in literal]
                for action in t.outputs:
                    if action.is_pass:
                        items[out_pos[action.channel]] = in_name[action.source]
                outputs = _tuple(items)
            else:
                outputs = const(tuple(literal))
            env = "env"
            if t.updates:
                items = [f"env[{j}]" for j in range(len(self.var_names))]
                for u in t.updates:
                    j = var_pos[u.var]
                    plus = f"env[{j}] + " if u.op is UpdateOp.ADD else ""
                    items[j] = plus + const(u.value)
                env = _tuple(items)
            guards = [
                _PATTERN_CODE[g.pattern.kind].format(
                    i=in_name[g.channel],
                    k=const(g.pattern.count if g.pattern.message is None else g.pattern.message),
                )
                for g in t.interval_guards
            ]
            guards += [
                f"env[{var_pos[g.var]}] {_RELATION_CODE[g.relation]} {const(g.bound)}"
                for g in t.var_guards
            ]
            fire = f"return {self.state_index[t.target]}, {env}, {outputs}"
            if guards:
                bodies[source] += [f"if {' and '.join(guards)}:", "    " + fire]
            else:
                bodies[source].append(fire)
                closed.add(source)
        lines = []
        for s, body in enumerate(bodies):
            if s in reads:
                body.insert(0, f"{_tuple(in_name.values())} = inputs")
            if s not in closed:
                body.append(f"return {s}, env, S")
            lines += [f"def s{s}(env, inputs):", *("    " + line for line in body)]
        exec("\n".join(lines), namespace)
        self.fns = tuple(namespace[f"s{s}"] for s in range(len(spec.states)))
        self.emits = _strong_outputs(spec)

    def outputs(self, inputs: Trace) -> List[Tuple[TimeInterval, ...]]:
        """The output tuple of every tick of a run from the initial state."""
        columns = [inputs.channels[ch].intervals for ch in self.in_channels]
        ticks = zip(*columns) if columns else repeat((), inputs.length)
        fns = self.fns
        state, env = self.initial_state, self.initial_env
        rows = []
        for tick_inputs in ticks:
            state, env, out = fns[state](env, tick_inputs)
            rows.append(out)
        return rows

    def run(self, inputs: Trace) -> Trace:
        rows = self.outputs(inputs)
        columns = zip(*rows) if rows else [()] * len(self.out_channels)
        return Trace(
            {ch: StreamPrefix(col) for ch, col in zip(self.out_channels, columns)},
            length=inputs.length,
        )


def step(
    spec: ComponentSpec,
    cfg: Configuration,
    tick_inputs: Mapping[str, TimeInterval],
) -> Tuple[Configuration, Dict[str, TimeInterval]]:
    """One tick: fire the first enabled transition, or stutter.

    Always returns exactly one interval per output channel; channels the
    fired transition does not mention stay empty.  A stutter leaves the
    configuration untouched and emits only empty intervals.  Compiles the
    spec on every call, which generates its code (about 0.2 ms for a small
    spec); ``run`` compiles it once per run.
    """
    machine = _Machine(spec)
    state = machine.state_index.get(cfg.state)
    if state is None:
        raise ValueError(f"unknown state: {cfg.state!r}")
    for ch in machine.in_channels:
        if ch not in tick_inputs:
            raise ValueError(f"tick inputs missing channel '{ch}'")
    env = tuple(cfg.var_env[v] for v in machine.var_names)
    inputs = [tick_inputs[ch] for ch in machine.in_channels]
    target, new_env, outputs = machine.fns[state](env, inputs)
    out = dict(zip(machine.out_channels, outputs))
    if target == state and new_env == env:
        return cfg, out
    var_env = dict(cfg.var_env)
    var_env.update(zip(machine.var_names, new_env))
    return Configuration(spec.states[target], var_env), out


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
    return _Machine(spec).run(inputs)


@value
class CausalityProbeResult:
    """Outcome of the randomized strong-causality refutation search.

    ``refuted`` means a pair of input traces agreeing strictly before the cut
    tick and differing at it produced outputs that already differ at or
    before the cut.  The witness pair is kept for replay.
    """

    refuted: bool
    trials: int
    witness_a: Optional[Trace] = None
    witness_b: Optional[Trace] = None
    cut: Optional[int] = None
    channel: Optional[str] = None
    tick: Optional[int] = None

    @property
    def consistent_with_strong(self) -> bool:
        return not self.refuted


def _diverging_pair(
    channels: Sequence[str],
    alphabet: Sequence[str],
    draw: Callable[[Random], TimeInterval],
    horizon: int,
    rng: Random,
) -> Tuple[Trace, Trace, int]:
    """Two input traces equal on ticks < cut and different at the cut tick.

    ``draw`` is ``gen.interval_drawer(alphabet, 3)``, built once per probe.
    """
    from .gen import draw_trace

    cut = rng.randrange(horizon)
    a = draw_trace(channels, horizon, rng, draw)
    b_channels: Dict[str, List[TimeInterval]] = {}
    for ch in channels:
        ivs = list(a.channels[ch].intervals)
        for t in range(cut, horizon):
            ivs[t] = draw(rng)
        b_channels[ch] = ivs
    if all(b_channels[ch][cut] == a.channels[ch][cut] for ch in channels):
        bump = rng.choice(channels)
        b_channels[bump][cut] = b_channels[bump][cut] + (Message(alphabet[-1]),)
    b = Trace(
        {ch: StreamPrefix(tuple(ivs)) for ch, ivs in b_channels.items()},
        length=horizon,
    )
    return a, b, cut


def probe_causality(
    spec: ComponentSpec, trials: int, horizon: int, seed: int
) -> CausalityProbeResult:
    """Search for evidence that output at some tick depends on same-tick input.

    Runs ``trials`` input pairs through the machine.  Any output difference
    at a tick no later than the pair's divergence point refutes strong
    causality.  Finding nothing only means the machine is consistent with
    strong causality on the sampled traces.
    """
    from random import Random

    from .gen import interval_drawer, probe_alphabet

    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    rng = Random(seed)
    if not spec.in_channels():
        # With no inputs there is nothing the output could depend on.
        return CausalityProbeResult(refuted=False, trials=0)
    machine = _Machine(spec)
    fns = machine.fns
    alphabet = probe_alphabet(spec)
    draw = interval_drawer(alphabet, 3)
    for _ in range(trials):
        a, b, cut = _diverging_pair(machine.in_channels, alphabet, draw, horizon, rng)
        # The pair agrees before the cut, so the deterministic machine reaches
        # the cut in one state and only the cut tick's outputs can differ.
        ticks_a = zip(*(a.channels[ch].intervals for ch in machine.in_channels))
        state, env = machine.initial_state, machine.initial_env
        for tick_inputs in islice(ticks_a, cut):
            state, env, _ = fns[state](env, tick_inputs)
        _, _, out_a = fns[state](env, next(ticks_a))
        _, _, out_b = fns[state](env, [b.channels[ch][cut] for ch in machine.in_channels])
        for ch, iv_a, iv_b in zip(machine.out_channels, out_a, out_b):
            if iv_a != iv_b:
                return CausalityProbeResult(
                    refuted=True,
                    trials=trials,
                    witness_a=a,
                    witness_b=b,
                    cut=cut,
                    channel=ch,
                    tick=cut,
                )
    return CausalityProbeResult(refuted=False, trials=trials)


@value
class SimulationCheckResult:
    """Outcome of the bounded untimed-equivalence check between two specs."""

    agree: bool
    trials: int
    witness: Optional[Trace] = None
    channel: Optional[str] = None
    abstraction_a: Optional[Tuple[Message, ...]] = None
    abstraction_b: Optional[Tuple[Message, ...]] = None


def check_untimed_simulation(
    spec_a: ComponentSpec,
    spec_b: ComponentSpec,
    trials: int,
    horizon: int,
    seed: int,
) -> SimulationCheckResult:
    """Compare two machines' outputs modulo tick boundaries on random inputs.

    Both specs must expose identical channel names.  For each trial the same
    input trace is run through both machines and the per-channel untimed
    abstractions of the outputs are compared; the first mismatch is returned
    as a witness.  Agreement is only over the sampled horizon, not a proof.
    """
    from random import Random

    from .gen import draw_trace, fresh_tag, interval_drawer, spec_tags

    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    if set(spec_a.in_channels()) != set(spec_b.in_channels()) or set(
        spec_a.out_channels()
    ) != set(spec_b.out_channels()):
        raise ChannelMismatchError("specs have different channel signatures")
    machine_a, machine_b = _Machine(spec_a), _Machine(spec_b)
    rng = Random(seed)
    tags = sorted(set(spec_tags(spec_a)) | set(spec_tags(spec_b)))
    tags.append(fresh_tag(tags))
    draw = interval_drawer(tags, 3)
    for _ in range(trials):
        inputs = draw_trace(spec_a.in_channels(), horizon, rng, draw)
        out_a = machine_a.run(inputs)
        out_b = machine_b.run(inputs)
        for ch in sorted(spec_a.out_channels()):
            seq_a = untimed_abstraction(out_a.channels[ch])
            seq_b = untimed_abstraction(out_b.channels[ch])
            if seq_a != seq_b:
                return SimulationCheckResult(
                    agree=False,
                    trials=trials,
                    witness=inputs,
                    channel=ch,
                    abstraction_a=seq_a,
                    abstraction_b=seq_b,
                )
    return SimulationCheckResult(agree=True, trials=trials)
