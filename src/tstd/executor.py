"""Tick-by-tick execution of a single component spec.

``step`` fires at most one transition per tick and is total: when nothing is
enabled the machine stutters in place and stays silent, so time always
advances and a T-tick input yields exactly a T-tick output.  On top of the
deterministic ``run`` sit two seeded refutation checks: ``probe_causality``
hunts for same-tick input sensitivity, ``check_untimed_simulation`` compares
two machines modulo tick boundaries.  Both report evidence, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Mapping, Optional, Tuple

from .gen import probe_alphabet, random_interval, random_trace, spec_tags, fresh_tag
from .model import ComponentSpec, enabled_transitions
from .streams import Message, StreamPrefix, TimeInterval, untimed_abstraction

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


@dataclass(frozen=True)
class Configuration:
    """Machine snapshot between ticks: control state plus variable valuation."""

    state: str
    var_env: Mapping[str, int]

    @classmethod
    def initial(cls, spec: ComponentSpec) -> "Configuration":
        return cls(spec.initial, spec.initial_env())


@dataclass(frozen=True)
class Trace:
    """A bundle of equally long stream prefixes, one per named channel."""

    channels: Dict[str, StreamPrefix]
    length: int

    def __post_init__(self) -> None:
        for name, prefix in self.channels.items():
            if prefix.length != self.length:
                raise ValueError(
                    f"channel '{name}' has {prefix.length} ticks, expected {self.length}"
                )

    @classmethod
    def of(cls, channels: Mapping[str, StreamPrefix]) -> "Trace":
        if not channels:
            raise ValueError("cannot infer length of a trace with no channels")
        length = next(iter(channels.values())).length
        return cls(dict(channels), length)

    @classmethod
    def empty(cls, channels: Tuple[str, ...] | List[str], ticks: int) -> "Trace":
        return cls({ch: StreamPrefix.empty(ticks) for ch in channels}, ticks)

    def tick(self, t: int) -> Dict[str, TimeInterval]:
        return {ch: prefix[t] for ch, prefix in self.channels.items()}


def step(
    spec: ComponentSpec,
    cfg: Configuration,
    tick_inputs: Mapping[str, TimeInterval],
) -> Tuple[Configuration, Dict[str, TimeInterval]]:
    """One tick: fire the first enabled transition, or stutter.

    Always returns exactly one interval per output channel; channels the
    fired transition does not mention stay empty.  A stutter leaves the
    configuration untouched and emits only empty intervals.
    """
    outputs: Dict[str, TimeInterval] = {ch: () for ch in spec.out_channels()}
    enabled = enabled_transitions(spec, cfg.state, cfg.var_env, tick_inputs)
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
        env[update.var] = update.apply(env[update.var])
    return Configuration(t.target, env), outputs


def run(spec: ComponentSpec, inputs: Trace) -> Trace:
    """Fold ``step`` over all ticks of ``inputs``.

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
    cfg = Configuration.initial(spec)
    collected: Dict[str, List[TimeInterval]] = {ch: [] for ch in spec.out_channels()}
    for t in range(inputs.length):
        cfg, out = step(spec, cfg, inputs.tick(t))
        for ch, iv in out.items():
            collected[ch].append(iv)
    return Trace(
        {ch: StreamPrefix(tuple(ivs)) for ch, ivs in collected.items()},
        length=inputs.length,
    )


@dataclass(frozen=True)
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
    spec: ComponentSpec, horizon: int, rng: Random
) -> Tuple[Trace, Trace, int]:
    """Two input traces equal on ticks < cut and different at the cut tick."""
    channels = spec.in_channels()
    alphabet = probe_alphabet(spec)
    cut = rng.randrange(horizon)
    a = random_trace(channels, horizon, rng, alphabet=alphabet)
    b_channels: Dict[str, List[TimeInterval]] = {}
    for ch in channels:
        ivs = list(a.channels[ch].intervals)
        for t in range(cut, horizon):
            ivs[t] = random_interval(rng, alphabet, 3)
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
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    rng = Random(seed)
    if not spec.in_channels():
        # With no inputs there is nothing the output could depend on.
        return CausalityProbeResult(refuted=False, trials=0)
    for _ in range(trials):
        a, b, cut = _diverging_pair(spec, horizon, rng)
        out_a = run(spec, a)
        out_b = run(spec, b)
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


@dataclass(frozen=True)
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
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    if set(spec_a.in_channels()) != set(spec_b.in_channels()) or set(
        spec_a.out_channels()
    ) != set(spec_b.out_channels()):
        raise ChannelMismatchError("specs have different channel signatures")
    rng = Random(seed)
    tags = sorted(set(spec_tags(spec_a)) | set(spec_tags(spec_b)))
    tags.append(fresh_tag(tags))
    for _ in range(trials):
        inputs = random_trace(spec_a.in_channels(), horizon, rng, alphabet=tags)
        out_a = run(spec_a, inputs)
        out_b = run(spec_b, inputs)
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
