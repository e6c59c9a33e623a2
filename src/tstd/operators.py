"""The stream operators: granularity refinement and coarsening, merge,
delay, untimed abstraction and message count.

Each maps prefixes to prefixes (see :mod:`tstd.streams`) and is a pure
function.  Only the ``stream`` commands run them, each handler importing
the operator it calls, so no other command compiles this module.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Tuple

from .streams import EMPTY_INTERVAL, Message, StreamPrefix, TimeInterval

__all__ = [
    "InvalidGranularityError",
    "LengthMismatchError",
    "NonAlignedPrefixError",
    "SplitStrategy",
    "StreamError",
    "delay_stream",
    "join",
    "message_count",
    "split",
    "timed_merge",
    "untimed_abstraction",
]


class StreamError(ValueError):
    """Base class for stream-operator failures."""


class InvalidGranularityError(StreamError):
    """Raised when a granularity factor n is not a positive integer."""


class NonAlignedPrefixError(StreamError):
    """Raised when joining a prefix whose length is not a multiple of n."""


class LengthMismatchError(StreamError):
    """Raised when an operator needs equally long prefixes and got unequal ones."""


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
