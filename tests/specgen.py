"""Seeded specs wider than ``tstd.gen.random_spec`` makes.

``random_spec`` builds the benchmark's probe corpus, whose outputs are
pinned, so it stays one-in/one-out with payload-free tags.  The specs here
have two input channels (``a``, ``b``), two output channels (``y``, ``z``),
two variables (``u``, ``v``) that are each guarded and updated, up to 64
states, every interval pattern with messages that carry payloads, and
``pass`` from either input to either output.  Inputs drawn with the same
tags and payloads (see ``PAYLOADS``) make the guards hit.
"""

from random import Random

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
)
from tstd.streams import Message

TAGS = ("a", "b")
PAYLOADS = (None, None, 0, 1, -3)
INPUTS = ("a", "b")
OUTPUTS = ("y", "z")
VARS = ("u", "v")


def message(rng: Random) -> Message:
    return Message(rng.choice(TAGS), rng.choice(PAYLOADS))


def _pattern(rng: Random) -> IntervalPattern:
    kind = rng.randrange(6)
    if kind == 0:
        return IntervalPattern.empty()
    if kind == 1:
        return IntervalPattern.nonempty()
    if kind == 2:
        return IntervalPattern.contains(message(rng))
    if kind == 3:
        return IntervalPattern.first_is(message(rng))
    if kind == 4:
        return IntervalPattern.len_eq(rng.randint(0, 3))
    return IntervalPattern.len_ge(rng.randint(1, 3))


def _transition(rng: Random, source: str, states, outputs: bool, passes: bool, guarded: bool):
    interval_guards = ()
    var_guards = ()
    if guarded:
        interval_guards = tuple(
            IntervalGuard(ch, _pattern(rng)) for ch in INPUTS if rng.random() < 0.5
        )
        var_guards = tuple(
            VarGuard(var, rng.choice(list(Relation)), rng.randint(-3, 3))
            for var in VARS
            if rng.random() < 0.4
        )
    actions = []
    for ch in OUTPUTS if outputs else ():
        roll = rng.random()
        if passes and roll < 0.3:
            actions.append(OutputAction.passthrough(ch, rng.choice(INPUTS)))
        elif roll < 0.7:
            actions.append(
                OutputAction.literal(ch, tuple(message(rng) for _ in range(rng.randint(1, 2))))
            )
    updates = tuple(
        VarUpdate(var, rng.choice(list(UpdateOp)), rng.randint(-2, 2))
        for var in VARS
        if rng.random() < 0.4
    )
    return Transition(
        source, rng.choice(states), interval_guards, var_guards, tuple(actions), updates
    )


def wide_spec(rng: Random, name: str, max_states: int = 64) -> ComponentSpec:
    """A valid spec; about a quarter are strongly causal by construction.

    A strong spec passes nothing, and each of its states either has a
    single unguarded transition, which may emit, or only silent ones.
    """
    states = tuple(f"S{i}" for i in range(rng.randint(1, max_states)))
    strong = rng.random() < 0.25
    transitions = []
    for source in states:
        if strong and rng.random() < 0.5:
            transitions.append(_transition(rng, source, states, True, False, False))
            continue
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            transitions.append(_transition(rng, source, states, not strong, True, True))
    return _spec(rng, name, states, transitions)


def tap_spec(rng: Random, name: str, max_states: int = 12) -> ComponentSpec:
    """A valid spec whose ``z`` the state fixes next to a ``y`` that may
    pass an input, so a loop may close through ``z`` but not through ``y``.

    Each state either has a single unguarded transition, which may emit a
    literal on ``z``, or guarded ones that are all silent on ``z``.
    """
    states = tuple(f"S{i}" for i in range(rng.randint(1, max_states)))
    transitions = []
    for source in states:
        single = rng.random() < 0.5
        for _ in range(1 if single else rng.choice((0, 1, 2, 2, 3))):
            t = _transition(rng, source, states, True, True, not single)
            outputs = tuple(o for o in t.outputs if o.channel != "z" or single and not o.is_pass)
            transitions.append(
                Transition(t.source, t.target, t.interval_guards, t.var_guards, outputs, t.updates)
            )
    return _spec(rng, name, states, transitions)


def _spec(rng: Random, name: str, states, transitions) -> ComponentSpec:
    return ComponentSpec(
        name=name,
        channels=tuple(ChannelDecl(ch, Direction.IN) for ch in INPUTS)
        + tuple(ChannelDecl(ch, Direction.OUT) for ch in OUTPUTS),
        vars=tuple(VarDecl(var, rng.randint(-2, 2)) for var in VARS),
        states=states,
        initial=rng.choice(states),
        transitions=tuple(transitions),
    )
