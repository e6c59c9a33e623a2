"""The optimised ``run``, ``run_network``, ``probe_causality``,
``parse_trace``, ``print_trace``, ``split``, ``join``, the ``tstd stream``
commands and the random trace generator against the reference oracles.

Corpora are seeded, so every run of the suite checks the same inputs.
Inputs carry payload-bearing messages next to plain ones, so guards and
pass-throughs see messages that differ only in their payload.  Specs come
from ``tstd.gen.random_spec`` and, two channels each way with payload
guards and up to 64 states, from ``specgen.wide_spec`` and
``specgen.tap_spec``.  ``check_feedback_wellformed`` and ``run_network``
are checked against a constructive oracle that shares no scheduling code
with them.
"""

from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from random import Random

import pytest

from tstd import (
    CausalityClass,
    IllFormedNetworkError,
    Instance,
    ParseFailure,
    Wire,
    build_network,
    check_feedback_wellformed,
    check_untimed_simulation,
    classify_causality_syntactic,
    join,
    parse_component,
    parse_network,
    parse_table,
    parse_trace,
    print_trace,
    probe_causality,
    run,
    run_network,
    split,
)
from tstd.analysis import _satisfiable, _strong_outputs, validate_spec
from tstd.executor import _Machine
from tstd.gen import random_prefix, random_spec, random_trace, spec_tags
from tstd.model import (
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
    has_errors,
)
from tstd.network import ExternalPort, InstanceKind, Port
from tstd.operators import NonAlignedPrefixError, SplitStrategy
from tstd.streams import Message, StreamPrefix, Trace

from reference import (
    reference_check_untimed_simulation,
    reference_classify_causality_syntactic,
    reference_emits,
    reference_fixed_channels,
    reference_join,
    reference_parse_trace,
    reference_print_trace,
    reference_probe_causality,
    reference_random_interval,
    reference_random_trace,
    reference_run,
    reference_run_network,
    reference_satisfiable,
    reference_split,
    reference_step,
    reference_stream_command,
)
from conftest import machine_step, machine_ticks, run_cli
from specgen import INPUTS, tap_spec, wide_spec

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def payload_trace(channels, ticks, rng, tags=("a", "b")):
    """Random intervals of up to three messages, about half with a payload."""

    def message():
        payload = rng.choice((None, None, 0, 1, -3))
        return Message(rng.choice(tags), payload)

    return Trace(
        {
            ch: StreamPrefix(
                tuple(tuple(message() for _ in range(rng.randint(0, 3))) for _ in range(ticks))
            )
            for ch in channels
        },
        length=ticks,
    )


def sample_specs():
    return [
        parse_component(path.read_text()) for path in sorted(SAMPLES.glob("*.tstd"))
    ]


def test_run_matches_reference_on_random_specs():
    rng = Random(2024)
    for i in range(800):
        spec = random_spec(rng, name=f"r{i}")
        inputs = payload_trace(spec.in_channels(), rng.randint(0, 24), rng)
        assert run(spec, inputs) == reference_run(spec, inputs), i


@pytest.mark.parametrize("spec", sample_specs(), ids=lambda spec: spec.name)
def test_run_matches_reference_on_samples(spec):
    rng = Random(spec.name)
    tags = spec_tags(spec) + ["z"]
    for _ in range(40):
        inputs = payload_trace(spec.in_channels(), rng.randint(0, 30), rng, tags)
        assert run(spec, inputs) == reference_run(spec, inputs)


def _kind(inst):
    if inst.kind is InstanceKind.SPEC:
        strong = classify_causality_syntactic(inst.spec) is CausalityClass.STRONG
        return "strong" if strong else "weak"
    return inst.kind.value


def _has_cycle(net, skip):
    """Whether the instance wiring cycles once instances of kinds ``skip`` are cut out."""
    sorter: TopologicalSorter = TopologicalSorter()
    kinds = {inst.id: _kind(inst) for inst in net.instances}
    for wire in net.wires:
        src, dst = wire.source, wire.target
        if isinstance(src, Port) and isinstance(dst, Port):
            if kinds[src.instance] not in skip and kinds[dst.instance] not in skip:
                sorter.add(dst.instance, src.instance)
    try:
        tuple(sorter.static_order())
    except CycleError:
        return True
    return False


def random_network(rng, index, make_spec=random_spec):
    """Random instances wired at random: feedback and fan-out arise freely.

    At most two merges, so that no loop can more than quadruple its
    messages per tick.
    """
    instances = []
    merges = 0
    for k in range(rng.randint(1, 7)):
        roll = rng.random()
        if roll < 0.2 and merges < 2:
            merges += 1
            instances.append(Instance.of_merge(f"m{k}"))
        elif roll < 0.45:
            instances.append(Instance.of_delay(f"d{k}", rng.randint(1, 3)))
        else:
            instances.append(Instance.of_spec(f"c{k}", make_spec(rng, f"n{index}_{k}")))
    external_in = ["x", "y"][: rng.randint(0, 2)]
    external_out = ["o", "p"][: rng.randint(1, 2)]
    sources = [ExternalPort(name) for name in external_in]
    sources += [Port(inst.id, port) for inst in instances for port in inst.out_ports()]
    wires = [
        Wire(rng.choice(sources), Port(inst.id, port))
        for inst in instances
        for port in inst.in_ports()
    ]
    wires += [Wire(rng.choice(sources), ExternalPort(name)) for name in external_out]
    return build_network(instances, wires, external_in, external_out)


def matches_reference(net, inputs, ticks, where):
    """Whether ``net`` is well-formed, after checking that
    ``check_feedback_wellformed`` and ``run_network`` agree with the
    constructive oracle: both refuse what it refuses, and ``run_network``
    gives its output on the rest."""
    well_formed = check_feedback_wellformed(net).well_formed
    try:
        expected = reference_run_network(net, inputs, ticks)
    except IllFormedNetworkError:
        assert not well_formed, where
        with pytest.raises(IllFormedNetworkError):
            run_network(net, inputs, ticks)
        return False
    assert well_formed, where
    assert run_network(net, inputs, ticks) == expected, where
    return True


def test_run_network_matches_reference_on_random_networks():
    rng = Random(31)
    seen = {"ill-formed": 0, "cut by delay": 0, "cut by strong": 0, "fan-out": 0}
    for i in range(400):
        net = random_network(rng, i)
        ticks = rng.randint(0, 10)
        inputs = payload_trace(net.external_in, ticks, rng)
        if not matches_reference(net, inputs, ticks, i):
            seen["ill-formed"] += 1
            continue
        seen["cut by delay"] += _has_cycle(net, skip={"strong"})
        seen["cut by strong"] += _has_cycle(net, skip={"delay"})
        sources = [wire.source for wire in net.wires]
        seen["fan-out"] += len(set(sources)) < len(sources)
    # The corpus must keep exercising every shape it is meant to.
    assert all(count >= 20 for count in seen.values()), seen


def test_run_network_matches_reference_with_delays_deeper_than_the_run():
    rng = Random(57)
    deeper = 0
    for i in range(200):
        net = random_network(rng, i)
        ticks = rng.randint(0, 10)
        depths = (max(ticks, 1), ticks + 1, ticks + 7, 10**5)
        instances = [
            Instance.of_delay(inst.id, rng.choice(depths))
            if inst.kind is InstanceKind.DELAY
            else inst
            for inst in net.instances
        ]
        net = build_network(instances, net.wires, net.external_in, net.external_out)
        inputs = payload_trace(net.external_in, ticks, rng)
        if not matches_reference(net, inputs, ticks, i):
            continue
        deeper += any(inst.delay > ticks for inst in net.instances)
    assert deeper >= 40, deeper


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.tnet")), ids=lambda p: p.name)
def test_run_network_matches_reference_on_samples(path):
    net = parse_network(path.read_text(), base_dir=SAMPLES)
    rng = Random(path.name)
    traces = [payload_trace(net.external_in, ticks, rng) for ticks in (0, 1, 7, 40)]
    traces.append(parse_trace((SAMPLES / "feedback_in.trc").read_text()))
    for inputs in traces:
        if set(inputs.channels) == set(net.external_in):
            matches_reference(net, inputs, inputs.length, (path.name, inputs.length))


def test_probe_causality_matches_reference_on_random_specs():
    rng = Random(4242)
    seen = {"strong": 0, "weak": 0, "refuted": 0, "consistent": 0}
    for i in range(300):
        spec = random_spec(rng, name=f"p{i}")
        trials, horizon, seed = rng.randint(1, 12), rng.randint(1, 16), rng.randrange(10**6)
        result = probe_causality(spec, trials, horizon, seed)
        assert result == reference_probe_causality(spec, trials, horizon, seed), i
        strong = classify_causality_syntactic(spec) is CausalityClass.STRONG
        seen["strong" if strong else "weak"] += 1
        seen["refuted" if result.refuted else "consistent"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def test_check_untimed_simulation_matches_reference_on_random_spec_pairs():
    rng = Random(5150)
    seen = {"agree": 0, "disagree": 0}
    for i in range(300):
        spec_a = random_spec(rng, name=f"a{i}")
        spec_b = random_spec(rng, name=f"b{i}")
        trials, horizon, seed = rng.randint(1, 8), rng.randint(1, 16), rng.randrange(10**6)
        result = check_untimed_simulation(spec_a, spec_b, trials, horizon, seed)
        expected = reference_check_untimed_simulation(spec_a, spec_b, trials, horizon, seed)
        assert result == expected, i
        seen["agree" if result.agree else "disagree"] += 1
    assert all(count >= 50 for count in seen.values()), seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_untimed_simulation_matches_reference_on_the_toggler_pair(seed):
    text = parse_component((SAMPLES / "toggler.tstd").read_text())
    table = parse_table((SAMPLES / "toggler.ttab").read_text())
    for spec_a, spec_b in ((text, table), (table, text)):
        result = check_untimed_simulation(spec_a, spec_b, 20, 16, seed)
        assert result.agree
        assert result == reference_check_untimed_simulation(spec_a, spec_b, 20, 16, seed)


def _reversed_channels(spec):
    """``spec`` with its channel declarations in reverse order."""
    return ComponentSpec(
        spec.name, spec.channels[::-1], spec.vars, spec.states, spec.initial, spec.transitions
    )


def test_check_untimed_simulation_matches_reference_across_channel_orders():
    # Wide specs read two inputs; declared in reverse, ``b`` comes before ``a``,
    # so each machine must get every input column by its channel's name.
    rng = Random(1789)
    seen = {"agree": 0, "disagree": 0}
    for i in range(60):
        spec = wide_spec(rng, f"w{i}", max_states=8)
        other = wide_spec(rng, f"o{i}", max_states=8)
        for spec_a, spec_b in (
            (spec, _reversed_channels(spec)),
            (_reversed_channels(spec), spec),
            (spec, _reversed_channels(other)),
        ):
            trials, horizon, seed = rng.randint(1, 8), rng.randint(1, 16), rng.randrange(10**6)
            result = check_untimed_simulation(spec_a, spec_b, trials, horizon, seed)
            expected = reference_check_untimed_simulation(spec_a, spec_b, trials, horizon, seed)
            assert result == expected, i
            seen["agree" if result.agree else "disagree"] += 1
    assert all(count >= 40 for count in seen.values()), seen


def _generator_cases(count):
    """Seeded (seed, channels, alphabet, max_len, ticks) cases: one to four
    channels, alphabets of one to six tags with repeats allowed, and the
    zero edges of both ``max_len`` and ``ticks``."""
    rng = Random(2718)
    tags = ("a", "b", "c", "tick", "x_1", "fresh")
    for _ in range(count):
        channels = [f"c{i}" for i in range(rng.randint(1, 4))]
        alphabet = [rng.choice(tags) for _ in range(rng.randint(1, 6))]
        max_len = rng.choice((0, 1, 2, 3, 5, 9))
        ticks = rng.choice((0, 1, 2, 7, 16, 40))
        yield rng.randrange(10**9), channels, alphabet, max_len, ticks


def test_random_trace_matches_reference_generator():
    for case in _generator_cases(400):
        seed, channels, alphabet, max_len, ticks = case
        rng, ref = Random(seed), Random(seed)
        got = random_trace(channels, ticks, rng, alphabet=alphabet, max_len=max_len)
        assert got == reference_random_trace(channels, ticks, ref, alphabet, max_len), case
        assert random_prefix(rng, ticks, alphabet, max_len) == StreamPrefix(
            tuple(reference_random_interval(ref, alphabet, max_len) for _ in range(ticks))
        ), case
        assert rng.getstate() == ref.getstate(), case


@pytest.mark.parametrize("ticks, max_len", [(0, 3), (4, 0), (0, 0)])
def test_bad_tag_raises_even_when_nothing_is_drawn(ticks, max_len):
    # The one difference from the reference generator, which never builds a
    # message for an undrawn tag: the drawer builds every message up front.
    ref = reference_random_trace(["in"], ticks, Random(1), ["a", "1bad"], max_len)
    assert all(iv == () for iv in ref.channels["in"])
    with pytest.raises(ValueError, match="invalid message tag: '1bad'"):
        random_trace(["in"], ticks, Random(1), alphabet=["a", "1bad"], max_len=max_len)
    with pytest.raises(ValueError, match="invalid message tag"):
        random_prefix(Random(1), ticks, alphabet=["a", ""], max_len=max_len)


def _with(t, **changes):
    fields = {f: getattr(t, f) for f in Transition.__match_args__}
    fields.update(changes)
    return Transition(**fields)


def _broken(spec, rng):
    """``spec`` with one reference error of a kind the causality rule meets:
    a transition from an undeclared state, a second emission on a channel,
    an emission on a channel that is not an output, or a ``pass`` anywhere
    (from an undeclared state or to a non-output channel included)."""
    transitions = list(spec.transitions)
    states = list(spec.states) + ["Z"]
    outs, ins = spec.out_channels(), spec.in_channels()
    kind = rng.randrange(4)
    if kind == 0 or not transitions:
        model = rng.choice(transitions) if transitions else Transition("S0", "S0")
        transitions.insert(rng.randint(0, len(transitions)), _with(model, source="Z"))
    else:
        i = rng.randrange(len(transitions))
        t = transitions[i]
        if kind == 1:
            extra = OutputAction.literal(rng.choice(outs), (Message(rng.choice("ab")),))
            extra = (extra, OutputAction.literal(extra.channel, (Message("c"),)))
        elif kind == 2:
            extra = (OutputAction.literal(rng.choice(ins + ("nope",)), (Message("a"),)),)
        else:
            extra = (OutputAction.passthrough(rng.choice(outs + ("nope",)), rng.choice(ins)),)
            t = _with(t, source=rng.choice(states))
        transitions[i] = _with(t, outputs=t.outputs + extra)
    return ComponentSpec(
        spec.name, spec.channels, spec.vars, spec.states, spec.initial, tuple(transitions)
    )


def test_causality_rule_matches_reference():
    rng = Random(2718)
    corpus = sample_specs()
    corpus += [random_spec(rng, name=f"c{i}") for i in range(1500)]
    corpus += [wide_spec(rng, f"v{i}", max_states=rng.choice((4, 16, 64))) for i in range(300)]
    corpus += [_broken(rng.choice(corpus), rng) for _ in range(1500)]
    corpus += [tap_spec(rng, f"t{i}", max_states=rng.choice((4, 16))) for i in range(200)]
    channels = (ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT))
    a, b = (OutputAction.literal("out", (Message(tag),)) for tag in "ab")
    empty = (IntervalGuard("in", IntervalPattern.empty()),)
    corpus += [
        ComponentSpec("h", channels, (), ("S",), "S", transitions)
        for transitions in (
            # The rule ignores an undeclared source's guarded emission.
            (Transition("Z", "S", empty, outputs=(a,)),),
            (Transition("S", "S", outputs=(a, b)),),
            (Transition("S", "S", empty, outputs=(a, b)), Transition("S", "S", outputs=(b,))),
            (Transition("S", "S", outputs=(OutputAction.literal("in", (Message("a"),)),)),),
            (Transition("S", "S", empty, outputs=(OutputAction.literal("x", (Message("a"),)),)),),
            (Transition("Z", "Z", outputs=(OutputAction.passthrough("out", "in"),)),),
            (Transition("S", "S", outputs=(OutputAction.passthrough("x", "nope"),)),),
        )
    ]
    seen = {
        "strong": 0,
        "weak": 0,
        "strong emits": 0,
        "weak fixes some": 0,
        "invalid strong": 0,
        "invalid weak": 0,
    }
    for i, spec in enumerate(corpus):
        verdict = classify_causality_syntactic(spec)
        assert verdict is reference_classify_causality_syntactic(spec), i
        if has_errors(validate_spec(spec)):
            seen[f"invalid {verdict.value}"] += 1
            continue
        columns, unfixed = _strong_outputs(spec), (None,) * len(spec.states)
        emits = tuple(zip(*(columns[ch] or unfixed for ch in spec.out_channels())))
        assert emits == reference_emits(spec), i
        fixed = reference_fixed_channels(spec)
        # Strong exactly when the state fixes every channel.
        assert (verdict is CausalityClass.STRONG) == (len(fixed) == len(spec.out_channels())), i
        seen[verdict.value] += 1
        seen["strong emits"] += verdict is CausalityClass.STRONG and any(map(any, emits))
        seen["weak fixes some"] += verdict is CausalityClass.WEAK and bool(fixed)
    assert all(count >= 100 for count in seen.values()), seen


def test_satisfiable_matches_reference():
    # A variable's bounds lie within 4 of one offset, 0 or beyond +-10**30,
    # so the reference's search stays short while big bounds are covered.
    rng = Random(1931)
    seen = {"satisfiable": 0, "unsatisfiable": 0, "big bound": 0}
    seen.update((relation, 0) for relation in Relation)
    n = 20_000
    for i in range(n):
        guards = []
        for var in rng.sample("xyz", rng.randint(1, 3)):
            offset = rng.choice((0, 0, 0, 10**30 + 1, -(10**30) - 1))
            seen["big bound"] += offset != 0
            for _ in range(rng.randint(1, 4)):
                relation = rng.choice(list(Relation))
                seen[relation] += 1
                guards.append(VarGuard(var, relation, offset + rng.randint(-4, 4)))
        rng.shuffle(guards)
        answer = _satisfiable(guards)
        assert answer is reference_satisfiable(guards), (i, guards)
        seen["satisfiable" if answer else "unsatisfiable"] += 1
    assert seen["satisfiable"] >= n // 4 and seen["unsatisfiable"] >= n // 4, seen
    assert all(count >= 1000 for count in seen.values()), seen


def test_run_and_step_match_reference_on_wide_specs():
    rng = Random(1909)
    seen = {"strong": 0, "weak": 0, "over 32 states": 0, "payload out": 0}
    for i in range(100):
        spec = wide_spec(rng, f"w{i}")
        inputs = payload_trace(INPUTS, rng.randint(0, 24), rng)
        out = run(spec, inputs)
        assert out == reference_run(spec, inputs), i
        tick = payload_trace(INPUTS, 1, rng).tick(0)
        machine = _Machine(spec)
        for state in rng.sample(spec.states, min(i % 3, len(spec.states))):
            cfg = (state, {"u": rng.randint(-3, 3), "v": rng.randint(-3, 3)})
            assert machine_step(machine, cfg, tick) == reference_step(spec, cfg, tick), i
        strong = classify_causality_syntactic(spec) is CausalityClass.STRONG
        seen["strong" if strong else "weak"] += 1
        seen["over 32 states"] += len(spec.states) > 32
        seen["payload out"] += any(
            m.payload is not None for p in out.channels.values() for iv in p for m in iv
        )
    assert all(count >= 25 for count in seen.values()), seen


def _fire_every_state(specs, rng):
    """Fire one compiled machine per spec from every state, with a fresh
    valuation each, over a three-tick input in one ``kernel`` call, against
    three chained ``reference_step``s: each tick's outputs and the
    configuration it ends in.  Returns how many of these runs switch state
    before their last tick, so that the call goes on from another state."""
    switched = 0
    for i, spec in enumerate(specs):
        machine = _Machine(spec)
        inputs = payload_trace(spec.in_channels(), 3, rng)
        ticks = [inputs.tick(t) for t in range(3)]
        for state in spec.states:
            cfg = end = (state, {v.name: rng.randint(-3, 3) for v in spec.vars})
            expected, states = [], []
            for tick in ticks:
                end, outputs = reference_step(spec, end, tick)
                expected.append(outputs)
                states.append(end[0])
            assert machine_ticks(machine, cfg, ticks) == (end, expected), (i, state)
            switched += states[0] != state or states[1] != states[0]
    return switched


def test_step_matches_reference_from_every_state():
    rng = Random(77)
    assert _fire_every_state([random_spec(rng, name=f"s{i}") for i in range(200)], rng) >= 100


def test_step_matches_reference_from_every_state_of_wide_specs():
    rng = Random(1915)
    specs = [wide_spec(rng, f"x{i}") for i in range(40)]
    assert _fire_every_state(specs, rng) >= 100
    seen = {"strong": 0, "weak": 0, "over 32 states": 0}
    for spec in specs:
        strong = classify_causality_syntactic(spec) is CausalityClass.STRONG
        seen["strong" if strong else "weak"] += 1
        seen["over 32 states"] += len(spec.states) > 32
    assert all(count >= 8 for count in seen.values()), seen


def test_probe_causality_matches_reference_on_wide_specs():
    rng = Random(1911)
    seen = {"refuted": 0, "consistent": 0}
    for i in range(100):
        spec = wide_spec(rng, f"q{i}", max_states=8)
        trials, horizon, seed = rng.randint(1, 8), rng.randint(1, 16), rng.randrange(10**6)
        result = probe_causality(spec, trials, horizon, seed)
        assert result == reference_probe_causality(spec, trials, horizon, seed), i
        seen["refuted" if result.refuted else "consistent"] += 1
    assert all(count >= 15 for count in seen.values()), seen


def test_run_network_matches_reference_on_wide_specs():
    rng = Random(1913)
    seen = {"ill-formed": 0, "well-formed": 0, "cut by strong": 0}
    for i in range(150):
        net = random_network(rng, i, lambda rng, name: wide_spec(rng, name, max_states=12))
        ticks = rng.randint(0, 10)
        inputs = payload_trace(net.external_in, ticks, rng)
        if not matches_reference(net, inputs, ticks, i):
            seen["ill-formed"] += 1
            continue
        seen["well-formed"] += 1
        seen["cut by strong"] += _has_cycle(net, skip={"delay"})
    assert all(count >= 10 for count in seen.values()), seen


def test_run_network_matches_reference_on_tap_specs():
    """Networks of specs whose ``z`` the state fixes next to a ``y`` that
    may pass an input: a loop through ``z`` is cut, one through ``y`` is
    not.  At least a tenth of the networks have a loop that no delay or
    strongly causal machine cuts, and are well-formed only by that rule."""
    rng = Random(1931)
    seen = {"ill-formed": 0, "well-formed": 0, "cut by a fixed port only": 0}
    count = 150
    for i in range(count):
        net = random_network(rng, i, tap_spec)
        ticks = rng.randint(0, 10)
        inputs = payload_trace(net.external_in, ticks, rng)
        if not matches_reference(net, inputs, ticks, i):
            seen["ill-formed"] += 1
            continue
        seen["well-formed"] += 1
        seen["cut by a fixed port only"] += _has_cycle(net, skip={"delay", "strong"})
    assert seen["cut by a fixed port only"] >= count // 10, seen
    assert all(n >= 15 for n in seen.values()), seen


def test_run_matches_reference_on_random_traces():
    """``random_spec`` × ``gen.random_trace``, zero-tick traces included."""
    rng = Random(2026)
    seen = {"zero ticks": 0, "emits": 0}
    for i in range(400):
        spec = random_spec(rng, name=f"t{i}")
        ticks = rng.choice((0, 0, 1, 2, 5, 16, 60))
        inputs = random_trace(spec.in_channels(), ticks, rng, alphabet=spec_tags(spec) + ["z"])
        out = run(spec, inputs)
        assert out == reference_run(spec, inputs), i
        seen["zero ticks"] += ticks == 0
        seen["emits"] += any(any(p) for p in out.channels.values())
    assert all(count >= 50 for count in seen.values()), seen


def _without_inputs(spec):
    """``spec`` with no input channel: interval guards are dropped and each
    ``pass`` becomes a literal on the same channel."""

    def literal(action):
        if action.is_pass:
            return OutputAction.literal(action.channel, (Message("p", 1),))
        return action

    transitions = tuple(
        _with(t, interval_guards=(), outputs=tuple(map(literal, t.outputs)))
        for t in spec.transitions
    )
    channels = tuple(ch for ch in spec.channels if ch.direction is Direction.OUT)
    return ComponentSpec(spec.name, channels, spec.vars, spec.states, spec.initial, transitions)


def _stutter_only(spec, rng):
    """``spec`` with no transition leaving its initial state, nor about half
    of its other states: a run never leaves the initial state."""
    quiet = {s for s in spec.states if s == spec.initial or rng.random() < 0.5}
    transitions = tuple(t for t in spec.transitions if t.source not in quiet)
    return ComponentSpec(
        spec.name, spec.channels, spec.vars, spec.states, spec.initial, transitions
    )


def edge_corpus():
    """Wide specs without input channels, wide specs whose initial state
    only stutters, and a spec of one stutter-only state, each with traces
    of zero and of several ticks."""
    rng = Random(1917)
    specs = []
    for i in range(60):
        spec = wide_spec(rng, f"e{i}", max_states=12)
        specs += [_without_inputs(spec), _stutter_only(spec, rng)]
    specs.append(
        ComponentSpec("idle", (ChannelDecl("y", Direction.OUT),), (), ("S",), "S", ())
    )
    specs = [spec for spec in specs if not has_errors(validate_spec(spec))]
    return [
        (spec, payload_trace(spec.in_channels(), ticks, rng))
        for spec in specs
        for ticks in (0, rng.randint(1, 20))
    ]


def test_run_step_and_probe_match_reference_on_edge_specs():
    rng = Random(1921)
    seen = {"no inputs": 0, "stutter-only start": 0, "zero ticks": 0, "emits": 0}
    for i, (spec, inputs) in enumerate(edge_corpus()):
        out = run(spec, inputs)
        assert out == reference_run(spec, inputs), i
        tick = payload_trace(spec.in_channels(), 1, rng).tick(0)
        env = {v.name: rng.randint(-3, 3) for v in spec.vars}
        machine = _Machine(spec)
        for state in spec.states:
            cfg = (state, env)
            assert machine_step(machine, cfg, tick) == reference_step(spec, cfg, tick), (i, state)
        trials, horizon, seed = rng.randint(1, 6), rng.randint(1, 12), rng.randrange(10**6)
        result = probe_causality(spec, trials, horizon, seed)
        assert result == reference_probe_causality(spec, trials, horizon, seed), i
        seen["no inputs"] += not spec.in_channels()
        seen["stutter-only start"] += not any(t.source == spec.initial for t in spec.transitions)
        seen["zero ticks"] += inputs.length == 0
        seen["emits"] += any(any(p) for p in out.channels.values())
    assert all(count >= 20 for count in seen.values()), seen


def _one_instance_network(spec):
    return build_network(
        [Instance.of_spec("c", spec)],
        [Wire(ExternalPort("in"), Port("c", "in")), Wire(Port("c", "out"), ExternalPort("out"))],
        ["in"],
        ["out"],
    )


def test_spec_constants_never_reach_the_generated_source():
    # Python 3.11 and later refuse to turn an int this large into text, so
    # a spec value formatted into generated source fails the run.
    huge = 10**5000
    spec = ComponentSpec(
        name="huge",
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(VarDecl("v", huge),),
        states=("S0", "S1"),
        initial="S0",
        transitions=(
            Transition(
                "S0",
                "S1",
                interval_guards=(IntervalGuard("in", IntervalPattern.contains(Message("a", 7))),),
                var_guards=(VarGuard("v", Relation.GE, huge),),
                outputs=(OutputAction.literal("out", (Message("b", huge),)),),
                updates=(VarUpdate("v", UpdateOp.ADD, huge),),
            ),
            Transition(
                "S1", "S0", interval_guards=(IntervalGuard("in", IntervalPattern.len_ge(huge)),)
            ),
            Transition(
                "S1",
                "S0",
                var_guards=(VarGuard("v", Relation.EQ, 2 * huge),),
                updates=(VarUpdate("v", UpdateOp.SET, huge),),
            ),
        ),
    )
    hit = (Message("a", 7),)
    inputs = Trace({"in": StreamPrefix(((Message("a"),), hit, (), hit, ()))}, 5)
    out = run(spec, inputs)
    assert out == reference_run(spec, inputs)
    assert out.channels["out"].intervals == ((), (Message("b", huge),), (), (Message("b", huge),), ())
    cfg = ("S0", {"v": huge})
    assert machine_step(_Machine(spec), cfg, {"in": hit}) == reference_step(spec, cfg, {"in": hit})
    net = _one_instance_network(spec)
    assert run_network(net, inputs, 5) == reference_run_network(net, inputs, 5)


def test_guards_may_name_a_payload_too_long_for_text():
    big = Message("a", 10**5000)
    spec = ComponentSpec(
        name="big",
        channels=(
            ChannelDecl("in", Direction.IN),
            ChannelDecl("in2", Direction.IN),
            ChannelDecl("out", Direction.OUT),
        ),
        vars=(),
        states=("S",),
        initial="S",
        transitions=(
            Transition(
                "S",
                "S",
                interval_guards=(
                    IntervalGuard("in2", IntervalPattern.first_is(big)),
                    IntervalGuard("in", IntervalPattern.contains(big)),
                ),
                outputs=(OutputAction.literal("out", (big,)),),
            ),
            Transition(
                "S",
                "S",
                interval_guards=(IntervalGuard("in", IntervalPattern.first_is(big)),),
                outputs=(OutputAction.literal("out", (Message("b"),)),),
            ),
        ),
    )
    assert [g.channel for g in spec.transitions[0].interval_guards] == ["in", "in2"]
    rows = [((big,), (big,)), ((Message("a"), big), (big,)), ((big,), ()), ((), (big,))]
    inputs = Trace(
        {ch: StreamPrefix(tuple(row[k] for row in rows)) for k, ch in enumerate(("in", "in2"))},
        len(rows),
    )
    out = run(spec, inputs)
    assert out == reference_run(spec, inputs)
    assert out.channels["out"].intervals == ((big,), (big,), (Message("b"),), ())


def test_two_hundred_states_on_one_cycle():
    n = 200
    states = tuple(f"S{i}" for i in range(n))
    spec = ComponentSpec(
        name="cycle",
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(VarDecl("v", 0),),
        states=states,
        initial="S0",
        transitions=tuple(
            Transition(
                states[i],
                states[(i + 1) % n],
                interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),),
                outputs=(OutputAction.literal("out", (Message("s", i),)),),
                updates=(VarUpdate("v", UpdateOp.ADD, 1),),
            )
            for i in range(n)
        ),
    )
    inputs = payload_trace(["in"], 3 * n, Random(200))
    out = run(spec, inputs)
    assert out == reference_run(spec, inputs)
    emitted = {m.payload for iv in out.channels["out"] for m in iv}
    assert emitted == set(range(n))
    net = _one_instance_network(spec)
    assert run_network(net, inputs, inputs.length) == out
    machine = _Machine(spec)
    for tick in ({"in": ()}, {"in": (Message("a"),)}):
        for state in states:
            cfg = (state, {"v": n})
            assert machine_step(machine, cfg, tick) == reference_step(spec, cfg, tick), state
    result = probe_causality(spec, 20, 16, 200)
    assert result == reference_probe_causality(spec, 20, 16, 200)
    assert result.refuted


def test_chain_of_fifteen_hundred_instances_with_delayed_feedback():
    # extern in -> m.in1; m -> p0 -> ... -> p1499 -> d -> m.in2; p1499 -> extern out
    n = 1500
    spec = parse_component((SAMPLES / "passthrough.tstd").read_text())
    instances = [Instance.of_merge("m"), Instance.of_delay("d", 1)]
    instances += [Instance.of_spec(f"p{i}", spec) for i in range(n)]
    wires = [
        Wire(ExternalPort("in"), Port("m", "in1")),
        Wire(Port("d", "out"), Port("m", "in2")),
        Wire(Port("m", "out"), Port("p0", "in")),
        Wire(Port(f"p{n - 1}", "out"), Port("d", "in")),
        Wire(Port(f"p{n - 1}", "out"), ExternalPort("out")),
    ]
    wires += [Wire(Port(f"p{i}", "out"), Port(f"p{i + 1}", "in")) for i in range(n - 1)]
    net = build_network(instances, wires, ["in"], ["out"])
    inputs = payload_trace(["in"], 6, Random(1500))
    out = run_network(net, inputs, 6)
    assert out == reference_run_network(net, inputs, 6)
    assert out.channels["out"][5] == sum(reversed(inputs.channels["in"].intervals), ())


def _render(text):
    """The parsed trace, or the rendered issues of the ParseFailure."""
    try:
        return reference_parse_trace(text)
    except ParseFailure as exc:
        return [issue.render() for issue in exc.issues]


def _parse(text):
    try:
        return parse_trace(text)
    except ParseFailure as exc:
        return [issue.render() for issue in exc.issues]


def _spaces(rng):
    return rng.choice(("", " ", "  ", "\t", " \t"))


def _loose_text(trace, rng):
    """The trace with random spacing, channel order, comments, CRLF and blank lines."""
    names = list(trace.channels)
    rng.shuffle(names)
    lines = [_spaces(rng) + "ticks" + "".join(" " + _spaces(rng) + n for n in names)]
    for t in range(trace.length):
        rng.shuffle(names)
        segments = []
        for ch in names:
            iv = trace.channels[ch][t]
            sep = " " + _spaces(rng)
            body = sep.join(m.token() for m in iv) if iv else "-"
            segments.append(f"{_spaces(rng)}{ch}{_spaces(rng)}:{_spaces(rng)}{body}{_spaces(rng)}")
        line = "|".join(segments)
        if rng.random() < 0.1:
            line += " # note: a | b"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("# comment", "  # indented comment", "")))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _mutate(text, rng):
    """One random character inserted, deleted or swapped with its neighbour."""
    if not text:
        return rng.choice(":|-# \n")
    i = rng.randrange(len(text))
    roll = rng.random()
    if roll < 0.4:
        return text[:i] + rng.choice(":|-#a0: \t\r\nx_") + text[i:]
    if roll < 0.7 or i + 1 == len(text):
        return text[:i] + text[i + 1 :]
    return text[:i] + text[i + 1] + text[i] + text[i + 2 :]


def _repeating_text(rng):
    """Ticks drawn from a few clean lines, respaced or broken now and then.

    Clean lines repeat after error lines and with different spacing, so a
    parser that remembers lines must neither replay a broken one nor miss
    an issue of the tick it is on.
    """
    names = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    pool = print_trace(payload_trace(names, 4, rng, tags=("a", "m"))).splitlines()[1:]
    lines = ["ticks " + " ".join(names)]
    broken = rng.choice((0.0, 0.03, 0.15))
    for _ in range(rng.randint(1, 30)):
        line = rng.choice(pool)
        roll = rng.random()
        if roll < broken:
            line = _mutate(line, rng) if rng.random() < 0.7 else line + " | " + rng.choice(names) + ": -"
        elif roll < 0.3:
            line = line.replace(" | ", rng.choice(("|", " |  ", "\t|"))).replace(": ", rng.choice((":", " :  ")))
        elif roll < 0.4:
            line = _spaces(rng) + line + _spaces(rng)
        lines.append(line)
    return "\n".join(lines) + "\n"


def trace_corpus():
    rng = Random(606)
    texts = ["", "ticks", "ticks\n", "ticks\n\n\n", "ticks\n# c\n\n", "\n\nticks a\na: -\n"]
    texts += [
        "ticks a\na: x\na: 1\na: x\n",
        "ticks a b\na: x | b: -\na: x\na: x | b: -\na: x | b: -\n",
        "ticks a b\na: x | b: -\na: x | b: - | a: x\na: x | b: -\na:x|b:-\n",
        "ticks a a\na: x\na: x\n",
    ]
    texts += [_repeating_text(rng) for _ in range(300)]
    for _ in range(500):
        names = rng.sample(["a", "b", "c", "in", "out"], rng.randint(0, 3))
        trace = payload_trace(names, rng.randint(0, 12), rng, tags=("a", "b", "m"))
        canonical = print_trace(trace)
        loose = _loose_text(trace, rng)
        texts += [canonical, loose]
        for base in (canonical, loose):
            mutated = base
            for _ in range(rng.randint(1, 3)):
                mutated = _mutate(mutated, rng)
            texts.append(mutated)
    return texts


def test_parse_trace_matches_reference():
    parsed = failed = 0
    for i, text in enumerate(trace_corpus()):
        expected = _render(text)
        assert _parse(text) == expected, (i, text)
        if isinstance(expected, list):
            failed += 1
        else:
            parsed += 1
    # Both outcomes must stay well represented.
    assert parsed >= 500 and failed >= 300, (parsed, failed)


def stream_corpus():
    """Payload-bearing traces, freshly built and parsed back (equal intervals
    then share one tuple), plus edge cases: no channels, no ticks, one
    interval object repeated, and intervals much longer than a split factor."""
    rng = Random(909)
    shared = (Message("m", 7), Message("a"))
    traces = [
        Trace({}, 0),
        Trace({}, 5),
        Trace.empty(["a"], 0),
        Trace.empty(["a", "b"], 4),
        Trace({"a": StreamPrefix((shared,) * 9), "b": StreamPrefix(((), shared) * 4 + ((),))}, 9),
        Trace({"x": StreamPrefix(tuple(
            tuple(Message("a", j) for j in range(k)) for k in (0, 1, 2, 3, 5, 8, 9, 17, 24, 1000)
        ))}, 10),
    ]
    for _ in range(150):
        names = rng.sample(["a", "b", "c", "in"], rng.randint(0, 3))
        fresh = payload_trace(names, rng.randint(0, 20), rng, tags=("a", "b", "m"))
        traces += [fresh, parse_trace(print_trace(fresh))]
    return traces


def test_print_trace_matches_reference():
    for i, trace in enumerate(stream_corpus()):
        text = print_trace(trace)
        assert text == reference_print_trace(trace), i
        assert parse_trace(text) == trace, i


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("strategy", list(SplitStrategy), ids=lambda s: s.value)
def test_split_and_join_match_reference(strategy, n):
    for i, trace in enumerate(stream_corpus()):
        for prefix in trace.channels.values():
            refined = split(prefix, n, strategy)
            assert refined == reference_split(prefix, n, strategy), i
            assert join(refined, n) == reference_join(refined, n) == prefix, i


@pytest.mark.parametrize("n", [2, 3, 8])
def test_join_matches_reference_on_arbitrary_prefixes(n):
    """Groups of unrelated intervals, not only those ``split`` produces."""
    for i, trace in enumerate(stream_corpus()):
        for prefix in trace.channels.values():
            if prefix.length % n == 0:
                assert join(prefix, n) == reference_join(prefix, n), i
            else:
                with pytest.raises(NonAlignedPrefixError):
                    join(prefix, n)
                with pytest.raises(NonAlignedPrefixError):
                    reference_join(prefix, n)


def test_spread_of_a_thousand_messages_over_two_ticks():
    prefix = StreamPrefix((tuple(Message("a", j) for j in range(1000)), ()))
    refined = split(prefix, 2, SplitStrategy.SPREAD)
    assert refined == reference_split(prefix, 2, SplitStrategy.SPREAD)
    assert [len(iv) for iv in refined] == [500, 500, 0, 0]
    assert join(refined, 2) == prefix


STREAM_COMMANDS = [
    *(
        ["split", "-n", str(n), "--strategy", strategy.value]
        for strategy in SplitStrategy
        for n in (1, 2, 3, 8)
    ),
    ["join", "-n", "1"],
    ["join", "-n", "2"],
    ["join", "-n", "3"],
    ["join", "-n", "2", "--pad"],
    ["join", "-n", "3", "--pad"],
    ["delay", "-d", "0"],
    ["delay", "-d", "3"],
    ["abstract"],
]

# No channels, no ticks, and headers whose channels are not sorted.
EDGE_TRACES = [
    "ticks\n",
    "ticks\n\n\n\n",
    "ticks a b\n",
    "ticks b a\nb: x | a: -\na: y:3 z | b: -\nb: - | a: -\n",
    "ticks c a b\nc: m:1 | a: x | b: -\na: x | b: - | c: m:1\nc: - | b: y | a: x\n",
]


def _cli_case(tmp_path, texts, command):
    """Write ``texts``, run ``tstd stream`` on them in process, and return
    both its (code, stdout, stderr) and the old path's."""
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{i}.trc"
        path.write_bytes(text.encode())
        paths.append(str(path))
    argv = [command[0], *paths, *command[1:]]
    got = run_cli("stream", *argv)
    return (got.code, got.out, got.err), reference_stream_command(argv)


@pytest.fixture(scope="module")
def corpora():
    return trace_corpus(), stream_corpus()


@pytest.mark.parametrize("command", STREAM_COMMANDS, ids=" ".join)
def test_stream_commands_match_the_old_path(tmp_path, corpora, command):
    """Every ``stream`` command through ``tstd.cli.main`` against parsing,
    whole-prefix operators and printing, on loose, commented, CRLF and
    broken texts and on printed payload traces."""
    texts, traces = corpora
    k = STREAM_COMMANDS.index(command)
    texts = EDGE_TRACES + texts[k::83] + list(map(print_trace, traces[k % 10 :: 10]))
    codes = set()
    for i, text in enumerate(texts):
        got, expected = _cli_case(tmp_path, [text], command)
        assert got == expected, (i, text)
        codes.add(got[0])
    assert 0 in codes and 2 in codes


def test_stream_merge_matches_the_old_path(tmp_path, corpora):
    """Equal, mismatched and reordered channel sets, equal and unequal
    lengths, and broken texts on either side."""
    rng = Random(4242)
    corpus, traces = corpora
    texts = EDGE_TRACES + list(map(print_trace, traces[::8]))
    pairs = [(a, b) for a in EDGE_TRACES for b in EDGE_TRACES]
    for text in texts:
        trace = parse_trace(text)
        names = list(trace.channels)
        same_shape = payload_trace(names, trace.length, rng, tags=("a", "m"))
        rng.shuffle(names)
        longer = payload_trace(names, trace.length + 1, rng)
        pairs += [(text, text), (text, print_trace(same_shape)), (text, rng.choice(texts))]
        pairs += [(text, _loose_text(same_shape, rng)), (_loose_text(longer, rng), text)]
    pairs += [(corpus[i], corpus[i + 1]) for i in range(0, len(corpus) - 1, 83)]
    outcomes = []
    for i, pair in enumerate(pairs):
        got, expected = _cli_case(tmp_path, pair, ["merge"])
        assert got == expected, (i, pair)
        outcomes.append(got[0] if got[0] != 1 else got[2][:14])
    for outcome in (0, 2, "traces carry d", "cannot merge t"):
        assert outcomes.count(outcome) > 10, (outcome, outcomes)
