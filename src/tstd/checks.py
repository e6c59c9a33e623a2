"""Seeded refutation checks on component specs.

``probe_causality`` hunts for same-tick input sensitivity and
``check_untimed_simulation`` compares two machines modulo tick boundaries.
Each compiles every spec it is given once, into a machine of
:mod:`tstd.executor`, and reuses it for every trial.  Both draw their
trials the same way (:func:`_trials`): from ``Random(seed)``, over every
tag the specs mention plus one they never mention, up to three messages a
tick.  Both report evidence, never proofs.  Only the ``check`` commands
import this module, and with it :mod:`tstd.gen`.
"""

from __future__ import annotations

from itertools import islice
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._value import value
from .executor import ChannelMismatchError, _Machine
from .gen import draw_trace, interval_drawer, probe_alphabet
from .model import ComponentSpec
from .streams import Message, StreamPrefix, TimeInterval, Trace, untimed_abstraction

__all__ = [
    "CausalityProbeResult", "SimulationCheckResult", "check_untimed_simulation", "probe_causality"
]

Draw = Callable[[Random], TimeInterval]


def _trials(
    trials: int, horizon: int, seed: int, *specs: ComponentSpec
) -> Tuple[Random, List[str], Draw]:
    """The random source, the alphabet and the interval drawer of a check
    over ``specs``; refuses a trial count or horizon below one."""
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    alphabet = probe_alphabet(*specs)
    return Random(seed), alphabet, interval_drawer(alphabet, 3)


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
    channels: Sequence[str], alphabet: Sequence[str], draw: Draw, horizon: int, rng: Random
) -> Tuple[Trace, Trace, int]:
    """Two input traces equal on ticks < cut and different at the cut tick.

    ``draw`` is ``gen.interval_drawer(alphabet, 3)``, built once per probe.
    """
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
    b = Trace({ch: StreamPrefix(tuple(ivs)) for ch, ivs in b_channels.items()}, length=horizon)
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
    rng, alphabet, draw = _trials(trials, horizon, seed, spec)
    if not spec.in_channels():
        # With no inputs there is nothing the output could depend on.
        return CausalityProbeResult(refuted=False, trials=0)
    machine = _Machine(spec)
    ticks = machine.ticks
    for _ in range(trials):
        a, b, cut = _diverging_pair(machine.in_channels, alphabet, draw, horizon, rng)
        # The pair agrees before the cut, so the deterministic machine reaches
        # the cut in one configuration and only the cut tick's outputs can
        # differ: fire the prefix once, then the cut tick of each.
        rows_a = zip(*(a.channels[ch].intervals for ch in machine.in_channels))
        state, env = machine.initial_state, machine.initial_env
        for inputs in islice(rows_a, cut):
            state, env, _ = ticks[state](env, *inputs)
        _, _, out_a = ticks[state](env, *next(rows_a))
        _, _, out_b = ticks[state](env, *(b.channels[ch][cut] for ch in machine.in_channels))
        for ch, iv_a, iv_b in zip(machine.out_channels, out_a, out_b):
            if iv_a != iv_b:
                return CausalityProbeResult(
                    refuted=True, trials=trials, witness_a=a, witness_b=b,
                    cut=cut, channel=ch, tick=cut,
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
    spec_a: ComponentSpec, spec_b: ComponentSpec, trials: int, horizon: int, seed: int
) -> SimulationCheckResult:
    """Compare two machines' outputs modulo tick boundaries on random inputs.

    Both specs must expose identical channel names.  For each trial the same
    input trace is run through both machines and the per-channel untimed
    abstractions of the outputs are compared; the first mismatch is returned
    as a witness.  Agreement is only over the sampled horizon, not a proof.
    """
    rng, _, draw = _trials(trials, horizon, seed, spec_a, spec_b)
    sides = [(set(s.in_channels()), set(s.out_channels())) for s in (spec_a, spec_b)]
    if sides[0] != sides[1]:
        raise ChannelMismatchError("specs have different channel signatures")
    machine_a, machine_b = _Machine(spec_a), _Machine(spec_b)
    for _ in range(trials):
        inputs = draw_trace(spec_a.in_channels(), horizon, rng, draw)
        out_a, out_b = machine_a.run(inputs), machine_b.run(inputs)
        for ch in sorted(spec_a.out_channels()):
            seq_a = untimed_abstraction(out_a.channels[ch])
            seq_b = untimed_abstraction(out_b.channels[ch])
            if seq_a != seq_b:
                return SimulationCheckResult(
                    agree=False, trials=trials, witness=inputs, channel=ch,
                    abstraction_a=seq_a, abstraction_b=seq_b,
                )
    return SimulationCheckResult(agree=True, trials=trials)
