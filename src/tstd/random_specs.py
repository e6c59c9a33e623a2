"""Seeded random component specs for the tests and the benchmark.

They are kept apart from :mod:`tstd.gen`, whose trace drawing the ``check``
commands import, so that those commands do not compile the spec generator.
``from tstd.gen import random_spec`` still resolves, to this module's.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Sequence, Tuple

from .model import (
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
from .streams import Message

__all__ = ["random_spec"]


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
