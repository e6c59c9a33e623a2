"""Seeded refutation checks on component specs and networks.

``probe_causality`` hunts for same-tick input sensitivity and
``check_untimed_simulation`` compares two machines modulo tick boundaries.
Each compiles what it is given once, by one dispatch (:func:`_compile`),
and reuses it for every trial: a spec by :mod:`tstd.executor`, a network by
:mod:`tstd.network`, each into a :class:`tstd.streams._CompiledSystem` that
:func:`tstd.streams._run_kernel` runs.  Both draw their trials the same way
(:func:`_trials`): from ``Random(seed)``, over every tag the specs (a
network's too) mention plus one they never mention, up to three messages a
tick, one column of intervals per input channel, channel after channel.
They see a machine only through its channels and configurations, and make
a :class:`Trace` only of a witness they return.  Both report evidence,
never proofs.  Only the ``check`` commands import this module, and with it
:mod:`tstd.gen`.
"""

from __future__ import annotations

from itertools import chain, repeat
from random import Random
from typing import TYPE_CHECKING, Optional, Tuple, Union

from ._value import value
from .gen import interval_drawer, probe_alphabet
from .streams import ChannelMismatchError, Message, Trace, _run_kernel, _trace

if TYPE_CHECKING:
    from .model import ComponentSpec
    from .network import Network

    System = Union[ComponentSpec, Network]

__all__ = [
    "CausalityProbeResult", "SimulationCheckResult", "check_untimed_simulation", "probe_causality"
]


def _compile(system: System) -> tuple:
    """A component spec or a network compiled, with the specs it holds.  A
    network is told by its wires, so that a check of one kind loads none of
    the other's modules."""
    if hasattr(system, "wires"):
        from . import network

        return network._compile(system), [i.spec for i in system.instances if i.spec is not None]
    from . import executor

    return executor._compile(system), [system]


def _trials(trials: int, horizon: int, seed: int, *systems: System) -> tuple:
    """The compiled ``systems``, the random source, the alphabet and the
    interval drawer of a check over them; refuses a trial count or horizon below one."""
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be positive")
    compiled = [_compile(system) for system in systems]
    alphabet = probe_alphabet(*(spec for _, specs in compiled for spec in specs))
    machines = [machine for machine, _ in compiled]
    return machines, Random(seed), alphabet, interval_drawer(alphabet, 3)


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


def probe_causality(spec: System, trials: int, horizon: int, seed: int) -> CausalityProbeResult:
    """Search for evidence that output at some tick depends on same-tick input.

    Runs ``trials`` input pairs through the machine of a spec or a network
    up to the tick where the pair first differs, the cut, running the ticks
    before it, which the pair shares, once.  An output difference at the cut
    refutes strong causality.  Finding nothing only means the machine is
    consistent with strong causality on the sampled traces.
    """
    (machine,), rng, alphabet, draw = _trials(trials, horizon, seed, spec)
    channels = machine.in_channels
    if not channels:
        # With no inputs there is nothing the output could depend on.
        return CausalityProbeResult(refuted=False, trials=0)
    bump = Message(alphabet[-1])
    for _ in range(trials):
        # Input a, then the ticks of input b from the cut on, which differ
        # from a's at the cut: when the draws agree there, a message is added.
        cut = rng.randrange(horizon)
        a = [list(map(draw, repeat(rng, horizon))) for _ in channels]
        b_tails = [list(map(draw, repeat(rng, horizon - cut))) for _ in channels]
        if all(col[cut] == tail[0] for col, tail in zip(a, b_tails)):
            rng.choice(b_tails)[0] += (bump,)
        # The pair agrees before the cut, so the deterministic machine's
        # outputs do too: run the shared ticks once, then each cut tick.
        _, config = _run_kernel(machine, [col[:cut] for col in a], cut, machine.initial(cut + 1))
        out_a, _ = _run_kernel(machine, [col[cut : cut + 1] for col in a], 1, config)
        out_b, _ = _run_kernel(machine, [tail[:1] for tail in b_tails], 1, config)
        for ch, (tick_a,), (tick_b,) in zip(machine.out_channels, out_a, out_b):
            if tick_a != tick_b:
                b = [col[:cut] + tail for col, tail in zip(a, b_tails)]
                return CausalityProbeResult(
                    refuted=True, trials=trials, witness_a=_trace(channels, a, horizon),
                    witness_b=_trace(channels, b, horizon), cut=cut, channel=ch, tick=cut,
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
    spec_a: System, spec_b: System, trials: int, horizon: int, seed: int
) -> SimulationCheckResult:
    """Compare two machines' outputs modulo tick boundaries on random inputs.

    Each side, a spec or a network, must expose identical channel names.
    For each trial the same input columns, drawn in ``spec_a``'s channel
    order, are fired on both machines, each column on the channel of its
    name, and the per-channel untimed abstractions of the outputs are
    compared; the first mismatch's input is returned as a witness.
    Agreement is only over the sampled horizon, not a proof.
    """
    (machine_a, machine_b), rng, _, draw = _trials(trials, horizon, seed, spec_a, spec_b)
    sides = [(set(m.in_channels), set(m.out_channels)) for m in (machine_a, machine_b)]
    if sides[0] != sides[1]:
        raise ChannelMismatchError("specs have different channel signatures")
    channels = machine_a.in_channels
    for _ in range(trials):
        inputs = [list(map(draw, repeat(rng, horizon))) for _ in channels]
        # spec_b may declare the same channels in another order.
        by_name = dict(zip(channels, inputs))
        inputs_b = [by_name[ch] for ch in machine_b.in_channels]
        out_a = dict(zip(machine_a.out_channels, _run_kernel(machine_a, inputs, horizon)[0]))
        out_b = dict(zip(machine_b.out_channels, _run_kernel(machine_b, inputs_b, horizon)[0]))
        for ch in sorted(out_a):
            seq_a = tuple(chain.from_iterable(out_a[ch]))
            seq_b = tuple(chain.from_iterable(out_b[ch]))
            if seq_a != seq_b:
                return SimulationCheckResult(
                    agree=False, trials=trials, witness=_trace(channels, inputs, horizon),
                    channel=ch, abstraction_a=seq_a, abstraction_b=seq_b,
                )
    return SimulationCheckResult(agree=True, trials=trials)
