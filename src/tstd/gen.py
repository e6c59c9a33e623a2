"""Seeded random generation of traces and component specs.

Everything here is driven by an explicit :class:`random.Random`, so a fixed
seed reproduces the exact same traces, specs and therefore check verdicts.
Generated message alphabets are kept tiny on purpose: with two or three tags
in play, guards and emissions collide often, which is what exercises the
interesting machine behavior.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .streams import Message, StreamPrefix, TimeInterval, Trace

if TYPE_CHECKING:
    from .model import ComponentSpec, Transition

__all__ = [
    "draw_trace",
    "fresh_tag",
    "interval_drawer",
    "random_prefix",
    "random_spec",
    "random_trace",
    "spec_tags",
]

DEFAULT_ALPHABET = ("a", "b", "c")


def interval_drawer(alphabet: Sequence[str], max_len: int) -> Callable[[Random], TimeInterval]:
    """A function that draws one tick's content from its ``rng``: length
    uniform in 0..max_len, then each message uniform over ``alphabet``.

    The messages are built once, here, so a bad tag raises even when nothing
    is drawn.  ``randrange(max_len + 1)`` and ``choice(messages)`` make the
    same ``_randbelow`` draws as ``randint(0, max_len)`` and
    ``Message(choice(alphabet))``, so a seed gives the same intervals.
    """
    messages = tuple(Message(tag) for tag in alphabet)
    bound = max_len + 1

    def draw(rng: Random) -> TimeInterval:
        choice = rng.choice
        return tuple([choice(messages) for _ in range(rng.randrange(bound))])

    return draw


def draw_trace(
    channels: Sequence[str], ticks: int, rng: Random, draw: Callable[[Random], TimeInterval]
) -> Trace:
    """A trace whose intervals come from ``draw``, channel after channel."""
    return Trace(
        {ch: StreamPrefix(tuple([draw(rng) for _ in range(ticks)])) for ch in channels},
        length=ticks,
    )


def random_prefix(
    rng: Random,
    ticks: int,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    max_len: int = 3,
) -> StreamPrefix:
    draw = interval_drawer(alphabet, max_len)
    return StreamPrefix(tuple([draw(rng) for _ in range(ticks)]))


def random_trace(
    channels: Sequence[str],
    ticks: int,
    rng: Random,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    max_len: int = 3,
) -> Trace:
    return draw_trace(channels, ticks, rng, interval_drawer(alphabet, max_len))


def spec_tags(spec: ComponentSpec) -> List[str]:
    """All message tags mentioned by a spec's guards and emissions, sorted."""
    tags = set()
    for t in spec.transitions:
        for g in t.interval_guards:
            if g.pattern.message is not None:
                tags.add(g.pattern.message.tag)
        for o in t.outputs:
            for m in o.messages or ():
                tags.add(m.tag)
    return sorted(tags)


def fresh_tag(taken: Sequence[str]) -> str:
    """A tag guaranteed not to collide with ``taken``."""
    tag = "fresh"
    while tag in taken:
        tag += "_x"
    return tag


def probe_alphabet(spec: ComponentSpec) -> List[str]:
    """The spec's own tags plus one tag it never mentions."""
    tags = spec_tags(spec)
    tags.append(fresh_tag(tags))
    return tags


# Each maker draws one IntervalPattern, passed in as ``P``.
_PATTERN_MAKERS = (
    lambda P, rng, alphabet: P.empty(),
    lambda P, rng, alphabet: P.nonempty(),
    lambda P, rng, alphabet: P.contains(Message(rng.choice(alphabet))),
    lambda P, rng, alphabet: P.len_eq(rng.randint(0, 2)),
    lambda P, rng, alphabet: P.len_ge(rng.randint(1, 2)),
    lambda P, rng, alphabet: P.first_is(Message(rng.choice(alphabet))),
)


def _random_transition(
    rng: Random,
    states: Sequence[str],
    source: str,
    alphabet: Sequence[str],
    var: Optional[str],
    mode: str,
) -> Transition:
    from .model import IntervalGuard, IntervalPattern, OutputAction, Relation, Transition
    from .model import UpdateOp, VarGuard, VarUpdate

    interval_guards: Tuple[IntervalGuard, ...] = ()
    var_guards: Tuple[VarGuard, ...] = ()
    outputs: Tuple[OutputAction, ...] = ()
    updates: Tuple[VarUpdate, ...] = ()

    if mode == "free":
        if rng.random() < 0.7:
            maker = rng.choice(_PATTERN_MAKERS)
            interval_guards = (IntervalGuard("in", maker(IntervalPattern, rng, alphabet)),)
        if var is not None and rng.random() < 0.4:
            rel = rng.choice(list(Relation))
            var_guards = (VarGuard(var, rel, rng.randint(-2, 3)),)
        roll = rng.random()
        if roll < 0.4:
            msgs = tuple(Message(rng.choice(alphabet)) for _ in range(rng.randint(1, 2)))
            outputs = (OutputAction.literal("out", msgs),)
        elif roll < 0.6:
            outputs = (OutputAction.passthrough("out", "in"),)
    elif mode == "single_total":
        # Always enabled, fixed literal: the shape of a strongly causal state.
        msgs = tuple(Message(rng.choice(alphabet)) for _ in range(rng.randint(1, 2)))
        outputs = (OutputAction.literal("out", msgs),)
    # mode == "silent": guards allowed, no emission at all.
    if mode == "silent":
        if rng.random() < 0.6:
            maker = rng.choice(_PATTERN_MAKERS)
            interval_guards = (IntervalGuard("in", maker(IntervalPattern, rng, alphabet)),)
        if var is not None and rng.random() < 0.4:
            rel = rng.choice(list(Relation))
            var_guards = (VarGuard(var, rel, rng.randint(-2, 3)),)

    if var is not None and mode != "single_total" and rng.random() < 0.4:
        if rng.random() < 0.5:
            updates = (VarUpdate(var, UpdateOp.SET, rng.randint(-2, 3)),)
        else:
            updates = (VarUpdate(var, UpdateOp.ADD, rng.choice((-1, 1, 2))),)

    return Transition(
        source=source,
        target=rng.choice(list(states)),
        interval_guards=interval_guards,
        var_guards=var_guards,
        outputs=outputs,
        updates=updates,
    )


def random_spec(rng: Random, name: str = "rand", max_states: int = 4) -> ComponentSpec:
    """A small machine over one input and one output channel.

    Three shapes are mixed deliberately: machines that never emit, machines
    whose states each carry one always-enabled literal emission (both end up
    classified strongly causal), and unconstrained machines that usually end
    up weak, pass-throughs included.
    """
    from .model import ChannelDecl, ComponentSpec, Direction, VarDecl

    n_states = rng.randint(1, max_states)
    states = tuple(f"S{i}" for i in range(n_states))
    alphabet = ("a", "b")
    roll = rng.random()
    if roll < 0.30:
        mode = "silent"
    elif roll < 0.45:
        mode = "single_total"
    else:
        mode = "free"

    use_var = mode != "single_total" and rng.random() < 0.5
    var = "v" if use_var else None
    vars_ = (VarDecl("v", rng.randint(-1, 1)),) if use_var else ()

    transitions: List[Transition] = []
    for s in states:
        if mode == "single_total":
            n_trans = 1
        else:
            n_trans = rng.randint(0, 3)
        for _ in range(n_trans):
            transitions.append(_random_transition(rng, states, s, alphabet, var, mode))

    return ComponentSpec(
        name=name,
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=vars_,
        states=states,
        initial=states[0],
        transitions=tuple(transitions),
    )
