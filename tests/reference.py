"""Reference oracles for the optimised paths.

These are the direct, unoptimised readings of the semantics: one tick of a
machine read straight from the spec's values, with this module's own tables
of what each pattern kind, relation and update means (``tstd`` states that
only as the code ``tstd.executor`` generates), a network run that resolves
each tick constructively, firing any instance whose inputs are known, with
no schedule worked out beforehand, a causality probe that runs both traces of a
trial over the whole horizon, an untimed-simulation check that runs both
specs that way and concatenates each output channel's intervals, a trace
parser that parses every interval it meets and transposes per-tick rows
into columns, a trace printer that renders tick by tick, ``split``/``join``
that build each result tick from its own list, and the ``stream`` commands
as whole-prefix operator calls between that parser and that printer.  They
are slow on purpose and are used only to check ``tstd.run``,
``tstd.run_network``, ``tstd.probe_causality``,
``tstd.check_untimed_simulation``, ``tstd.parse_trace``,
``tstd.print_trace``, ``tstd.split``, ``tstd.join`` and the ``tstd stream``
commands against.  The random generator is kept as first written, one
``randint`` and a new ``Message`` per drawn tag, as the oracle for
``tstd.gen``'s prebuilt-message drawers and the draws of the seeded checks.
The syntactic causality rule is read the direct way too: a classifier that
scans every transition once per state, the channels a state fixes read one
channel at a time, and an emission table taken from the first transition
leaving each state; ``tstd.model`` derives all three in one pass over the
transitions.
"""

import operator
from collections import deque
from itertools import chain
from pathlib import Path
from random import Random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from tstd.checks import CausalityProbeResult, SimulationCheckResult
from tstd.executor import Configuration
from tstd.gen import fresh_tag, probe_alphabet, spec_tags
from tstd.model import (
    CausalityClass,
    ComponentSpec,
    PatternKind,
    Relation,
    Transition,
    UpdateOp,
)
from tstd.network import (
    ExternalPort,
    IllFormedNetworkError,
    Instance,
    InstanceKind,
    Network,
    Port,
)
from tstd.streams import (
    IDENT_RE,
    Message,
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    TimeInterval,
    Trace,
    delay_stream,
    join,
    split,
    timed_merge,
    untimed_abstraction,
)
from tstd.trace_format import ParseFailure, _Issues, _parse_message


# What each pattern kind tests of an interval, and each relation of a
# variable's value against its bound.
_PATTERN_HOLDS = {
    PatternKind.ANY: lambda iv, p: True,
    PatternKind.EMPTY: lambda iv, p: len(iv) == 0,
    PatternKind.NONEMPTY: lambda iv, p: len(iv) > 0,
    PatternKind.CONTAINS: lambda iv, p: p.message in iv,
    PatternKind.LEN_EQ: lambda iv, p: len(iv) == p.count,
    PatternKind.LEN_GE: lambda iv, p: len(iv) >= p.count,
    PatternKind.FIRST_IS: lambda iv, p: len(iv) > 0 and iv[0] == p.message,
}
_RELATION_HOLDS = {
    Relation.LT: operator.lt,
    Relation.LE: operator.le,
    Relation.EQ: operator.eq,
    Relation.NE: operator.ne,
    Relation.GE: operator.ge,
    Relation.GT: operator.gt,
}


def reference_enabled(
    spec: ComponentSpec,
    state: str,
    var_env: Mapping[str, int],
    tick_inputs: Mapping[str, TimeInterval],
) -> List[Transition]:
    """Every transition from ``state`` whose guards all hold on this tick, in
    declaration order.  A channel without a guard is unconstrained;
    ``tick_inputs`` must cover every input channel, and an unknown state is
    a caller bug."""
    if state not in spec.states:
        raise ValueError(f"unknown state: {state!r}")
    for ch in spec.in_channels():
        if ch not in tick_inputs:
            raise ValueError(f"tick inputs missing channel '{ch}'")
    enabled = []
    for t in spec.transitions:
        if t.source != state:
            continue
        patterns = all(
            _PATTERN_HOLDS[g.pattern.kind](tick_inputs[g.channel], g.pattern)
            for g in t.interval_guards
        )
        relations = all(
            _RELATION_HOLDS[g.relation](var_env[g.var], g.bound) for g in t.var_guards
        )
        if patterns and relations:
            enabled.append(t)
    return enabled


def reference_step(
    spec: ComponentSpec, cfg: Configuration, tick_inputs: Mapping[str, TimeInterval]
) -> Tuple[Configuration, Dict[str, TimeInterval]]:
    """Fire the first enabled transition, or stutter."""
    outputs: Dict[str, TimeInterval] = {ch: () for ch in spec.out_channels()}
    enabled = reference_enabled(spec, cfg.state, cfg.var_env, tick_inputs)
    if not enabled:
        return cfg, outputs
    t = enabled[0]
    for action in t.outputs:
        if action.is_pass:
            outputs[action.channel] = tick_inputs[action.source]
        else:
            outputs[action.channel] = action.messages
    env = dict(cfg.var_env)
    for update in t.updates:
        base = env[update.var] if update.op is UpdateOp.ADD else 0
        env[update.var] = base + update.value
    return Configuration(t.target, env), outputs


def reference_run(spec: ComponentSpec, inputs: Trace) -> Trace:
    """Fold ``reference_step`` over every tick of ``inputs``."""
    cfg = Configuration.initial(spec)
    collected: Dict[str, List[TimeInterval]] = {ch: [] for ch in spec.out_channels()}
    for t in range(inputs.length):
        cfg, out = reference_step(spec, cfg, inputs.tick(t))
        for ch, iv in out.items():
            collected[ch].append(iv)
    return Trace(
        {ch: StreamPrefix(tuple(ivs)) for ch, ivs in collected.items()},
        length=inputs.length,
    )


def _emission(t: Transition, channel: str) -> TimeInterval:
    """The literal ``t`` emits on ``channel``; silence when it emits nothing."""
    return {o.channel: o.messages for o in t.outputs}.get(channel) or ()


def _output_profile(t: Transition, out_channels: Sequence[str]) -> Tuple[TimeInterval, ...]:
    return tuple(_emission(t, ch) for ch in out_channels)


def reference_fixed_channels(spec: ComponentSpec) -> List[str]:
    """The output channels the state fixes, read one channel at a time: no
    ``pass`` targets the channel, and from each state every transition
    emits the same on it, which is silence or the emission of the state's
    one always enabled transition."""
    fixed = []
    for ch in spec.out_channels():
        if any(o.is_pass and o.channel == ch for t in spec.transitions for o in t.outputs):
            continue
        for state in spec.states:
            outgoing = [t for t in spec.transitions if t.source == state]
            emissions = {_emission(t, ch) for t in outgoing}
            if len(emissions) > 1:
                break
            if any(emissions) and not (len(outgoing) == 1 and outgoing[0].is_total()):
                break
        else:
            fixed.append(ch)
    return fixed


def state_determined_output(spec: ComponentSpec, state: str) -> Dict[str, TimeInterval]:
    """The output on each channel the state fixes: what the first
    transition leaving ``state`` emits on it (silence when none leaves).

    Every transition leaving the state emits the same on such a channel,
    and a stutter emits silence only where they all do, so the output is a
    function of the state alone.
    """
    outgoing = [t for t in spec.transitions if t.source == state]
    return {
        ch: _emission(outgoing[0], ch) if outgoing else ()
        for ch in reference_fixed_channels(spec)
    }


def reference_classify_causality_syntactic(spec: ComponentSpec) -> CausalityClass:
    """No pass-through anywhere, and per state either silence on every
    outgoing transition or one always enabled transition."""
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


def reference_emits(spec: ComponentSpec) -> Tuple[Tuple[Optional[TimeInterval], ...], ...]:
    """A valid spec's per-state output table, in ``out_channels`` order:
    ``state_determined_output`` on the channels the state fixes, None on
    the others."""
    rows = []
    for state in spec.states:
        out = state_determined_output(spec, state)
        rows.append(tuple(out.get(ch) for ch in spec.out_channels()))
    return tuple(rows)


def reference_run_network(net: Network, external_inputs: Trace, ticks: int) -> Trace:
    """Run a network by resolving each tick constructively, without a
    schedule.

    First every port that its instance fixes from state is written: a
    delay's oldest interval, and a machine's ``state_determined_output``.
    Then any instance whose inputs are all known fires (a delay stores its
    input, a merge concatenates, a machine takes ``reference_step``), until
    every instance has fired.  A machine's step must agree with what its
    state fixed.  When no instance is ready, the network is ill-formed.  A
    run of no ticks still resolves one tick, on empty inputs, and drops it,
    so that an ill-formed network is refused whatever the length.
    """
    cfgs = {
        inst.id: Configuration.initial(inst.spec)
        for inst in net.instances
        if inst.kind is InstanceKind.SPEC
    }
    delays = {
        inst.id: deque([()] * inst.delay)
        for inst in net.instances
        if inst.kind is InstanceKind.DELAY
    }
    driver_of = {wire.target: wire.source for wire in net.wires}

    collected: Dict[str, List[TimeInterval]] = {name: [] for name in net.external_out}
    for t in range(max(ticks, 1)):
        values: Dict[object, TimeInterval] = {
            ExternalPort(name): external_inputs.channels[name][t] if ticks else ()
            for name in net.external_in
        }
        for inst in net.instances:
            if inst.kind is InstanceKind.DELAY:
                values[Port(inst.id, "out")] = delays[inst.id].popleft()
            elif inst.kind is InstanceKind.SPEC:
                fixed = state_determined_output(inst.spec, cfgs[inst.id].state)
                for ch, iv in fixed.items():
                    values[Port(inst.id, ch)] = iv

        def inputs_for(inst: Instance) -> Dict[str, TimeInterval]:
            return {port: values[driver_of[Port(inst.id, port)]] for port in inst.in_ports()}

        pending = list(net.instances)
        while pending:
            waiting = []
            for inst in pending:
                if not all(driver_of[Port(inst.id, port)] in values for port in inst.in_ports()):
                    waiting.append(inst)
                    continue
                ins = inputs_for(inst)
                if inst.kind is InstanceKind.DELAY:
                    delays[inst.id].append(ins["in"])
                elif inst.kind is InstanceKind.MERGE:
                    values[Port(inst.id, "out")] = ins["in1"] + ins["in2"]
                else:
                    cfgs[inst.id], out = reference_step(inst.spec, cfgs[inst.id], ins)
                    for ch, iv in out.items():
                        port = Port(inst.id, ch)
                        assert values.setdefault(port, iv) == iv, (port, values[port], iv)
            if len(waiting) == len(pending):
                stuck = ", ".join(inst.id for inst in waiting)
                raise IllFormedNetworkError(f"no instance can fire: {stuck}")
            pending = waiting

        if ticks:
            for name in net.external_out:
                collected[name].append(values[driver_of[ExternalPort(name)]])

    return Trace(
        {name: StreamPrefix(tuple(ivs)) for name, ivs in collected.items()},
        length=ticks,
    )


def reference_random_interval(
    rng: Random, alphabet: Sequence[str], max_len: int
) -> Tuple[Message, ...]:
    """One tick's content: length uniform in 0..max_len, tags uniform."""
    k = rng.randint(0, max_len)
    return tuple(Message(rng.choice(alphabet)) for _ in range(k))


def reference_random_trace(
    channels: Sequence[str], ticks: int, rng: Random, alphabet: Sequence[str], max_len: int
) -> Trace:
    return Trace(
        {
            ch: StreamPrefix(
                tuple(reference_random_interval(rng, alphabet, max_len) for _ in range(ticks))
            )
            for ch in channels
        },
        length=ticks,
    )


def reference_diverging_pair(
    channels: Sequence[str], alphabet: Sequence[str], horizon: int, rng: Random
) -> Tuple[Trace, Trace, int]:
    """Two input traces equal on ticks < cut and different at the cut tick."""
    cut = rng.randrange(horizon)
    a = reference_random_trace(channels, horizon, rng, alphabet, 3)
    b_channels: Dict[str, List[Tuple[Message, ...]]] = {}
    for ch in channels:
        ivs = list(a.channels[ch].intervals)
        for t in range(cut, horizon):
            ivs[t] = reference_random_interval(rng, alphabet, 3)
        b_channels[ch] = ivs
    if all(b_channels[ch][cut] == a.channels[ch][cut] for ch in channels):
        bump = rng.choice(channels)
        b_channels[bump][cut] = b_channels[bump][cut] + (Message(alphabet[-1]),)
    b = Trace(
        {ch: StreamPrefix(tuple(ivs)) for ch, ivs in b_channels.items()},
        length=horizon,
    )
    return a, b, cut


def reference_probe_causality(
    spec: ComponentSpec, trials: int, horizon: int, seed: int
) -> CausalityProbeResult:
    """Run both traces of every trial over the whole horizon with
    ``reference_run`` and compare their outputs tick by tick up to the cut."""
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    rng = Random(seed)
    if not spec.in_channels():
        return CausalityProbeResult(refuted=False, trials=0)
    alphabet = probe_alphabet(spec)
    for _ in range(trials):
        a, b, cut = reference_diverging_pair(spec.in_channels(), alphabet, horizon, rng)
        out_a = reference_run(spec, a)
        out_b = reference_run(spec, b)
        for t in range(cut + 1):
            for ch in spec.out_channels():
                if out_a.channels[ch][t] != out_b.channels[ch][t]:
                    return CausalityProbeResult(
                        refuted=True,
                        trials=trials,
                        witness_a=a,
                        witness_b=b,
                        cut=cut,
                        channel=ch,
                        tick=t,
                    )
    return CausalityProbeResult(refuted=False, trials=trials)


def reference_check_untimed_simulation(
    spec_a: ComponentSpec, spec_b: ComponentSpec, trials: int, horizon: int, seed: int
) -> SimulationCheckResult:
    """Run every trial's input through both specs with ``reference_run`` and
    compare each output channel's messages, read tick after tick.  The specs
    must have equal channel signatures."""
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    rng = Random(seed)
    tags = sorted(set(spec_tags(spec_a)) | set(spec_tags(spec_b)))
    tags.append(fresh_tag(tags))
    for _ in range(trials):
        inputs = reference_random_trace(spec_a.in_channels(), horizon, rng, tags, 3)
        out_a, out_b = reference_run(spec_a, inputs), reference_run(spec_b, inputs)
        for ch in sorted(spec_a.out_channels()):
            seq_a = tuple(chain.from_iterable(out_a.channels[ch].intervals))
            seq_b = tuple(chain.from_iterable(out_b.channels[ch].intervals))
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


def _reference_logical_lines(text: str) -> List[Tuple[int, str]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [
        (i + 1, (raw if "#" not in raw else raw[: raw.find("#")]).rstrip("\r"))
        for i, raw in enumerate(lines)
        if not raw.lstrip().startswith("#")
    ]


def reference_parse_trace(text: str) -> Trace:
    """Parse every tick into a dict of channel intervals, then transpose."""
    issues = _Issues()
    header_seen = False
    channels: List[str] = []
    ticks: List[Dict[str, TimeInterval]] = []
    tick_no = 0

    for lineno, content in _reference_logical_lines(text):
        stripped = content.strip()
        if not header_seen:
            if not stripped:
                continue
            parts = stripped.split()
            if parts[0] != "ticks":
                issues.add(lineno, 1, "expected header line 'ticks CH ...'")
                issues.raise_if_any()
            for name in parts[1:]:
                if not IDENT_RE.match(name):
                    issues.add(lineno, 1, f"invalid channel name {name!r}")
                elif name in channels:
                    issues.add(lineno, 1, f"duplicate channel name '{name}'")
                else:
                    channels.append(name)
            header_seen = True
            continue

        if not stripped:
            if channels:
                issues.add(lineno, 1, f"tick {tick_no}: missing channel '{channels[0]}'")
            else:
                ticks.append({})
            tick_no += 1
            continue
        seen: Dict[str, TimeInterval] = {}
        for segment in stripped.split("|"):
            name, colon, body = (p.strip() for p in segment.partition(":"))
            if colon != ":" or not IDENT_RE.match(name):
                issues.add(lineno, 1, f"malformed channel segment {segment.strip()!r}")
                continue
            if name not in channels:
                issues.add(lineno, 1, f"unknown channel '{name}' at tick {tick_no}")
                continue
            if name in seen:
                issues.add(lineno, 1, f"duplicate channel '{name}' at tick {tick_no}")
                continue
            if body == "-":
                seen[name] = ()
            else:
                msgs = []
                ok = True
                for token in body.split():
                    msg = _parse_message(token)
                    if msg is None:
                        issues.add(lineno, 1, f"malformed message token {token!r}")
                        ok = False
                        break
                    msgs.append(msg)
                if ok:
                    if not msgs:
                        issues.add(lineno, 1, f"empty interval must be written '-' ({name})")
                    seen[name] = tuple(msgs)
        for name in channels:
            if name not in seen:
                issues.add(lineno, 1, f"tick {tick_no}: missing channel '{name}'")
        ticks.append(seen)
        tick_no += 1

    if not header_seen:
        issues.add(1, 1, "expected header line 'ticks CH ...'")
    issues.raise_if_any()
    return Trace(
        {
            ch: StreamPrefix(tuple(tick.get(ch, ()) for tick in ticks))
            for ch in channels
        },
        length=len(ticks),
    )


def reference_print_trace(trace: Trace) -> str:
    """Render tick by tick, each interval looked up by channel and tick."""
    channels = sorted(trace.channels)
    header = "ticks" + ("" if not channels else " " + " ".join(channels))
    lines = [header]
    for t in range(trace.length):
        segments = []
        for ch in channels:
            iv = trace.channels[ch][t]
            body = " ".join(m.token() for m in iv) if iv else "-"
            segments.append(f"{ch}: {body}")
        lines.append(" | ".join(segments))
    return "\n".join(lines) + "\n"


def reference_split(s: StreamPrefix, n: int, strategy: SplitStrategy) -> StreamPrefix:
    """Each source tick becomes n result ticks, spread through n buckets."""
    if n == 1:
        return s
    out: List[TimeInterval] = []
    if strategy is SplitStrategy.ALL_FIRST:
        tail = ((),) * (n - 1)
        for iv in s.intervals:
            out.append(iv)
            out.extend(tail)
    elif strategy is SplitStrategy.ALL_LAST:
        head = ((),) * (n - 1)
        for iv in s.intervals:
            out.extend(head)
            out.append(iv)
    else:
        for iv in s.intervals:
            k = len(iv)
            if k == 0:
                out.extend(((),) * n)
                continue
            buckets: List[List[Message]] = [[] for _ in range(n)]
            for j, msg in enumerate(iv):
                buckets[j * n // k].append(msg)
            out.extend(tuple(b) for b in buckets)
    return StreamPrefix(tuple(out))


def reference_join(s: StreamPrefix, n: int) -> StreamPrefix:
    """Concatenate each slice of n consecutive intervals."""
    if n == 1:
        return s
    t = s.length
    if t % n != 0:
        raise NonAlignedPrefixError(f"prefix length {t} is not a multiple of {n}")
    ivs = s.intervals
    return StreamPrefix(
        tuple(tuple(chain.from_iterable(ivs[i : i + n])) for i in range(0, t, n))
    )


def reference_stream_command(argv: Sequence[str]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``tstd stream ARGV`` the old way:
    ``reference_parse_trace`` of each file, the ``tstd.streams`` operator on
    whole prefixes, then ``reference_print_trace``."""
    op, *rest = argv
    paths = [a for a in rest if a.endswith(".trc")]
    flags = dict(zip(rest[len(paths) :: 2], rest[len(paths) + 1 :: 2]))
    traces = []
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
            traces.append(reference_parse_trace(text))
        except ParseFailure as exc:
            return 2, "", "".join(f"{path}:{issue.render()}\n" for issue in exc.issues)
    trace = traces[0]
    chans = trace.channels
    if op == "split":
        n = int(flags["-n"])
        how = SplitStrategy.parse(flags.get("--strategy", "all-first"))
        result = Trace({ch: split(p, n, how) for ch, p in chans.items()}, trace.length * n)
    elif op == "join":
        n = int(flags["-n"])
        if "--pad" in rest:
            pad = (-trace.length) % n
            chans = {ch: StreamPrefix(p.intervals + ((),) * pad) for ch, p in chans.items()}
            trace = Trace(chans, trace.length + pad)
        try:
            result = Trace({ch: join(p, n) for ch, p in chans.items()}, trace.length // n)
        except NonAlignedPrefixError as exc:
            return 1, "", f"{exc} (use --pad to pad with empty ticks)\n"
    elif op == "delay":
        d = int(flags["-d"])
        result = Trace({ch: delay_stream(p, d) for ch, p in chans.items()}, trace.length + d)
    elif op == "merge":
        right = traces[1]
        if set(chans) != set(right.channels):
            return 1, "", "traces carry different channel sets\n"
        if trace.length != right.length:
            return 1, "", f"cannot merge traces of lengths {trace.length} and {right.length}\n"
        merged = {ch: timed_merge(p, right.channels[ch]) for ch, p in chans.items()}
        result = Trace(merged, trace.length)
    else:
        assert op == "abstract", op
        lines = []
        for ch in sorted(chans):
            seq = untimed_abstraction(chans[ch])
            lines.append(f"{ch}: {' '.join(m.token() for m in seq) if seq else '-'}\n")
        return 0, "".join(lines), ""
    return 0, reference_print_trace(result), ""
