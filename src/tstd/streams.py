"""Timed message streams and the operators that rework their granularity.

A stream is observed one tick at a time.  During a tick, a channel carries a
finite (possibly empty) sequence of messages; that per-tick sequence is a
*time interval*.  An infinite stream is handled through finite prefixes of an
explicit tick count, so every operator here maps prefixes to prefixes.  A
:class:`Trace` bundles equally long prefixes of named channels.

All values are immutable; the operators are pure functions.  The lexical
rules that every text format and :func:`interval` follow live here too,
next to :meth:`Message.token`, which writes tokens by them: an identifier,
an integer literal and a message token ``tag`` or ``tag:INT``.
"""

from __future__ import annotations

import enum
import re
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from ._value import FrozenDict, value

__all__ = [
    "IDENT_RE",
    "InvalidGranularityError",
    "LengthMismatchError",
    "Message",
    "NonAlignedPrefixError",
    "SplitStrategy",
    "StreamError",
    "StreamPrefix",
    "TimeInterval",
    "Trace",
    "delay_stream",
    "interval",
    "join",
    "message_count",
    "split",
    "timed_merge",
    "untimed_abstraction",
]

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_INT = r"-?[0-9]+"
IDENT_RE = re.compile(_IDENT + r"\Z")
_MESSAGE_RE = re.compile(rf"({_IDENT})(?::({_INT}))?\Z")

EMPTY_INTERVAL: "TimeInterval" = ()


class StreamError(ValueError):
    """Base class for stream-operator failures."""


class InvalidGranularityError(StreamError):
    """Raised when a granularity factor n is not a positive integer."""


class NonAlignedPrefixError(StreamError):
    """Raised when joining a prefix whose length is not a multiple of n."""


class LengthMismatchError(StreamError):
    """Raised when an operator needs equally long prefixes and got unequal ones."""


@value
class Message:
    """One symbolic message: a tag plus an optional integer payload.

    A payload of ``None`` is distinct from a payload of ``0``.  Any other
    payload must be a plain ``int`` (``bool`` is refused), so that every
    message prints to a token the trace parser reads back.
    """

    tag: str
    payload: Optional[int] = None

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.tag):
            raise ValueError(f"invalid message tag: {self.tag!r}")
        if self.payload is not None and type(self.payload) is not int:
            raise ValueError(f"invalid message payload: {self.payload!r} (expected an int or None)")

    def token(self) -> str:
        """Render as the textual token form ``tag`` or ``tag:int``."""
        if self.payload is None:
            return self.tag
        return f"{self.tag}:{self.payload}"

    def __repr__(self) -> str:
        return f"Message({self.token()!r})"


# The content of one channel during one tick: a finite ordered message
# sequence.  The empty tuple is the silent interval.
TimeInterval = Tuple[Message, ...]


def interval(*tokens: str | Message) -> TimeInterval:
    """Build a TimeInterval from message tokens, e.g. ``interval("a", "b:3")``;
    a token that a trace file may not hold raises ValueError."""
    out = []
    for tok in tokens:
        if not isinstance(tok, Message):
            m = _MESSAGE_RE.match(tok)
            if m is None:
                raise ValueError(f"malformed message token {tok!r}")
            tag, digits = m.groups()
            tok = Message(tag, None if digits is None else int(digits))
        out.append(tok)
    return tuple(out)


@value
class StreamPrefix:
    """The first T ticks of a timed stream on one channel.

    ``intervals[i]`` is the interval observed at tick i; there are no partial
    ticks.  A prefix of length zero is legal and denotes "nothing observed
    yet".
    """

    intervals: Tuple[TimeInterval, ...] = ()

    @classmethod
    def empty(cls, ticks: int) -> "StreamPrefix":
        return cls((EMPTY_INTERVAL,) * ticks)

    @property
    def length(self) -> int:
        return len(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[TimeInterval]:
        return iter(self.intervals)

    def __getitem__(self, tick: int) -> TimeInterval:
        return self.intervals[tick]


@value
class Trace:
    """A bundle of equally long stream prefixes, one per named channel."""

    channels: Dict[str, StreamPrefix]
    length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", FrozenDict(self.channels))
        for name, prefix in self.channels.items():
            if prefix.length != self.length:
                raise ValueError(
                    f"channel '{name}' has {prefix.length} ticks, expected {self.length}"
                )

    @classmethod
    def empty(cls, channels: Tuple[str, ...] | List[str], ticks: int) -> "Trace":
        return cls({ch: StreamPrefix.empty(ticks) for ch in channels}, ticks)

    def tick(self, t: int) -> Dict[str, TimeInterval]:
        return {ch: prefix[t] for ch, prefix in self.channels.items()}


def _check_granularity(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidGranularityError(f"granularity must be a positive integer, got {n!r}")


class SplitStrategy(enum.Enum):
    """Placement rule used by :func:`split` when an interval is subdivided."""

    ALL_FIRST = "all-first"
    ALL_LAST = "all-last"
    SPREAD = "spread"

    @classmethod
    def parse(cls, name: str) -> "SplitStrategy":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown split strategy: {name!r}")


def split(s: StreamPrefix, n: int, strategy: SplitStrategy) -> StreamPrefix:
    """Refine time granularity: each tick of ``s`` becomes ``n`` ticks.

    Every source interval with k messages maps to n consecutive result
    intervals, preserving message order.  ALL_FIRST packs the k messages into
    the first sub-interval, ALL_LAST into the last, and SPREAD places message
    j into sub-interval ``j * n // k``.  The result has length ``n * len(s)``
    and carries exactly the same messages, in the same order, as ``s``.

    The result starts as ``n * len(s)`` empty intervals.  ALL_FIRST and
    ALL_LAST fill every n-th one with a slice assignment; SPREAD writes each
    message of an interval with at most n messages as a one-message interval
    in its place, and only a longer interval is sorted through n buckets.
    """
    _check_granularity(n)
    if n == 1:
        return s
    intervals = s.intervals
    out: list[TimeInterval] = [EMPTY_INTERVAL] * (n * len(intervals))
    if strategy is SplitStrategy.ALL_FIRST:
        out[::n] = intervals
    elif strategy is SplitStrategy.ALL_LAST:
        out[n - 1 :: n] = intervals
    else:
        for base, iv in zip(range(0, len(out), n), intervals):
            k = len(iv)
            if k <= n:
                # At most one message per sub-interval: j * n // k is injective.
                for j, msg in enumerate(iv):
                    out[base + j * n // k] = (msg,)
            else:
                buckets: list[list[Message]] = [[] for _ in range(n)]
                for j, msg in enumerate(iv):
                    buckets[j * n // k].append(msg)
                out[base : base + n] = map(tuple, buckets)
    return StreamPrefix(tuple(out))


def join(s: StreamPrefix, n: int) -> StreamPrefix:
    """Coarsen time granularity: every n consecutive ticks of ``s`` become one.

    Result interval i is the in-order concatenation of source intervals
    ``i*n .. i*n+n-1``.  The prefix length must be divisible by n; anything
    else raises :class:`NonAlignedPrefixError` rather than silently dropping
    a partial group.  The groups come from ``zip`` over n references to one
    iterator, so no slice of ``s`` is copied.
    """
    _check_granularity(n)
    t = s.length
    if t % n != 0:
        raise NonAlignedPrefixError(f"prefix length {t} is not a multiple of {n}")
    if n == 1 or t == 0:
        return s
    groups = zip(*[iter(s.intervals)] * n)
    return StreamPrefix(tuple(map(tuple, map(chain.from_iterable, groups))))


def timed_merge(s1: StreamPrefix, s2: StreamPrefix) -> StreamPrefix:
    """Merge two equally long prefixes tick-wise, left messages first."""
    if s1.length != s2.length:
        raise LengthMismatchError(
            f"cannot merge prefixes of lengths {s1.length} and {s2.length}"
        )
    return StreamPrefix(tuple(a + b for a, b in zip(s1.intervals, s2.intervals)))


def untimed_abstraction(s: StreamPrefix) -> Tuple[Message, ...]:
    """Drop all tick boundaries: the plain message sequence of the prefix."""
    return tuple(chain.from_iterable(s.intervals))


def delay_stream(s: StreamPrefix, d: int) -> StreamPrefix:
    """Prefix ``s`` with ``d`` empty ticks; the result has length ``len(s) + d``."""
    if not isinstance(d, int) or d < 0:
        raise StreamError(f"delay must be a nonnegative integer, got {d!r}")
    if d == 0:
        return s
    return StreamPrefix((EMPTY_INTERVAL,) * d + s.intervals)


def message_count(s: StreamPrefix) -> int:
    """Total number of messages across all ticks of the prefix."""
    return sum(len(iv) for iv in s.intervals)
