"""Seeded random generation of traces and, through :mod:`tstd.random_specs`,
of component specs.

Everything here is driven by an explicit :class:`random.Random`, so a fixed
seed reproduces the exact same traces, specs and therefore check verdicts.
Generated message alphabets are kept tiny on purpose: with two or three tags
in play, guards and emissions collide often, which is what exercises the
interesting machine behavior.
"""

from __future__ import annotations

from itertools import repeat
from random import Random
from typing import TYPE_CHECKING, Callable, List, Sequence

from .streams import Message, StreamPrefix, TimeInterval, Trace

if TYPE_CHECKING:
    from .model import ComponentSpec

__all__ = [
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

    The messages are built once, here, so a bad tag or a negative
    ``max_len`` raises even when nothing is drawn.  Each draw is the one that
    ``randrange`` and ``choice`` make through ``Random._randbelow``, inlined:
    a number below n is ``getrandbits(n.bit_length())``, drawn again while
    it is not below n.  So ``rng`` gives the intervals, and is left in the
    state, of ``randrange(max_len + 1)`` and then ``choice(messages)`` per
    message, without those methods' frames.  As with ``choice``, an empty
    alphabet raises IndexError once a length above zero is drawn.
    """
    messages = tuple(Message(tag) for tag in alphabet)
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    count, count_bits = len(messages), len(messages).bit_length()
    length_bits = (max_len + 1).bit_length()

    def draw(rng: Random) -> TimeInterval:
        bits = rng.getrandbits
        length = bits(length_bits)
        while length > max_len:
            length = bits(length_bits)
        if length and not count:
            raise IndexError("Cannot choose from an empty sequence")
        out = []
        for _ in range(length):
            r = bits(count_bits)
            while r >= count:
                r = bits(count_bits)
            out.append(messages[r])
        return tuple(out)

    return draw


def random_prefix(
    rng: Random,
    ticks: int,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    max_len: int = 3,
) -> StreamPrefix:
    draw = interval_drawer(alphabet, max_len)
    return StreamPrefix(tuple(map(draw, repeat(rng, ticks))))


def random_trace(
    channels: Sequence[str],
    ticks: int,
    rng: Random,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    max_len: int = 3,
) -> Trace:
    draw = interval_drawer(alphabet, max_len)
    columns = {ch: StreamPrefix(tuple(map(draw, repeat(rng, ticks)))) for ch in channels}
    return Trace(columns, length=ticks)


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


def probe_alphabet(*specs: ComponentSpec) -> List[str]:
    """Every tag the specs mention, sorted, plus one tag none of them mentions."""
    tags = sorted({tag for spec in specs for tag in spec_tags(spec)})
    tags.append(fresh_tag(tags))
    return tags


def __getattr__(name: str) -> Callable[..., ComponentSpec]:
    """``random_spec`` is kept in :mod:`tstd.random_specs`, which the checks
    do not need, so the ``check`` commands do not compile it."""
    if name == "random_spec":
        from .random_specs import random_spec

        return random_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
