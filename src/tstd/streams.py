"""Timed message streams, and the lexing that every text format shares.

A stream is observed one tick at a time.  During a tick, a channel carries a
finite (possibly empty) sequence of messages; that per-tick sequence is a
*time interval*.  An infinite stream is handled through finite prefixes of an
explicit tick count.  A :class:`Trace` bundles equally long prefixes of named
channels.  All values are immutable; the operators on prefixes live in
:mod:`tstd.operators`.

Every system, a component or a network, compiles into one tick loop,
:class:`_CompiledSystem`, which :func:`_run_kernel` fires; it lives here so
that neither kind of command loads the other's modules.

The lexical rules that every text format and :func:`interval` follow live
here too, next to :meth:`Message.token`, which writes tokens by them: an
identifier, an integer literal and a message token ``tag`` or ``tag:INT``.
So do :class:`ParseFailure`, its located issues, and the reading of lines,
integers and message tokens that the trace, component, table and network
readers share, so that a spec command loads no trace reader.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._value import FrozenDict, _tuple, value

__all__ = [
    "ChannelMismatchError",
    "IDENT_RE",
    "Message",
    "ParseFailure",
    "ParseIssue",
    "SourceSpan",
    "StreamPrefix",
    "TimeInterval",
    "Trace",
    "interval",
]

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_INT = r"-?[0-9]+"
IDENT_RE = re.compile(_IDENT + r"\Z")
_INT_RE = re.compile(_INT + r"\Z")
_MESSAGE_RE = re.compile(rf"({_IDENT})(?::({_INT}))?\Z")

EMPTY_INTERVAL: "TimeInterval" = ()


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

    # Machines compare messages every tick: these skip ``@value``'s ``_key``.
    def __eq__(self, other):
        if other.__class__ is Message:
            return self.tag == other.tag and self.payload == other.payload
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tag, self.payload))


# The content of one channel during one tick: a finite ordered message
# sequence.  The empty tuple is the silent interval.
TimeInterval = Tuple[Message, ...]


def interval(*tokens: str | Message) -> TimeInterval:
    """Build a TimeInterval from message tokens, e.g. ``interval("a", "b:3")``;
    a token that a trace file may not hold raises ValueError."""
    out = []
    for tok in tokens:
        msg = tok if isinstance(tok, Message) else _parse_message(tok)
        if msg is None:
            raise ValueError(f"malformed message token {tok!r}")
        out.append(msg)
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


class ChannelMismatchError(ValueError):
    """A trace's channel set does not match what the spec expects."""


def _trace(channels: Iterable[str], columns: Iterable, length: int) -> Trace:
    """The ``length``-tick trace whose ``channels``, in order, carry ``columns``."""
    return Trace({ch: StreamPrefix(tuple(col)) for ch, col in zip(channels, columns)}, length)


class _CompiledSystem:
    """A component or a network compiled once into one generated function.

    Its columns come in ``in_channels`` and ``out_channels`` order, and its
    configuration is a hashable tuple of parts, a machine's ``(state, env)``
    or a delay's buffer as a tuple of intervals.  Each of ``parts`` is
    ``(unpack, pack, start)``: a statement template that unpacks the part
    from the expression it is formatted with, the expression that packs it
    back, and its start, a machine's ``(state, env)`` or a delay's depth.

    ``kernel(ticks, config, o0, ...)`` unpacks ``config``, runs the lines
    ``tick`` once per row of the iterator ``ticks``, the row's intervals in
    the names ``row``, each output channel's interval passed to its
    ``o<k>``, and returns the packed configuration it ends in.  The source
    holds only names and integer indices: every value that it reads (a
    spec's constants, ``deque``) is in ``namespace``.
    """

    __slots__ = ("in_channels", "out_channels", "starts", "kernel")

    def __init__(self, in_channels, out_channels, row, parts, tick, namespace):
        self.in_channels, self.out_channels = in_channels, out_channels
        self.starts = [start for _, _, start in parts]
        appends = "".join(f", o{k}" for k in range(len(self.out_channels)))
        source = [
            f"def kernel(ticks, config{appends}):",
            *(f"    {unpack.format(f'config[{i}]')}" for i, (unpack, _, _) in enumerate(parts)),
            f"    for {_tuple(row)} in ticks:",
            *("        " + line for line in tick or ["pass"]),
            f"    return {_tuple([pack for _, pack, _ in parts])}",
        ]
        exec("\n".join(source), namespace)
        self.kernel = namespace["kernel"]

    def initial(self, length: int) -> tuple:
        """The start of a run of up to ``length`` ticks: a delay holds at
        most ``length`` empty intervals, all that such a run reads."""
        return tuple(((),) * min(s, length) if type(s) is int else s for s in self.starts)


def _run_kernel(system, columns: Sequence, length: int, config=None) -> Tuple[list, tuple]:
    """Fire ``system``, a :class:`_CompiledSystem`, on the rows of
    ``columns``, or on ``length`` empty rows if none, from ``config`` (else
    ``system.initial(length)``): its output columns and the configuration
    it ends in."""
    outputs: List[list] = [[] for _ in system.out_channels]
    rows = zip(*columns) if columns else repeat((), length)
    config = system.initial(length) if config is None else config
    return outputs, system.kernel(rows, config, *[c.append for c in outputs])


# --------------------------------------------------------------------------
# Lexing shared by the text formats


@value
class SourceSpan:
    """1-based line/column position of a parse diagnostic."""

    line: int
    column: int

    def render(self) -> str:
        return f"{self.line}:{self.column}"


@value
class ParseIssue:
    span: SourceSpan
    message: str

    def render(self) -> str:
        return f"{self.span.render()}: {self.message}"


class ParseFailure(ValueError):
    """Parsing failed; ``issues`` lists every located problem found."""

    def __init__(self, issues: Sequence[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(i.render() for i in self.issues))


class _LongInteger(ValueError):
    """An integer literal with more digits than ``int`` converts."""


def _int(digits: str) -> int:
    """``int`` of an integer literal; raises _LongInteger past the digit limit."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("-"))
        raise _LongInteger(
            f"integer literal of {count} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


class _Issues:
    """Error accumulator shared by all the parsers."""

    def __init__(self) -> None:
        self.items: List[ParseIssue] = []

    def add(self, line: int, column: int, message: str) -> None:
        self.items.append(ParseIssue(SourceSpan(line, column), message))

    def __bool__(self) -> bool:
        return bool(self.items)

    def raise_if_any(self) -> None:
        if self.items:
            raise ParseFailure(self.items)

    @contextmanager
    def located(self, line: int, column: int = 1) -> Iterator[None]:
        """Report an integer too long to convert, raised in the block, at (line, column)."""
        try:
            yield
        except _LongInteger as exc:
            self.add(line, column, str(exc))


def _parse_message(token: str) -> Optional[Message]:
    m = _MESSAGE_RE.match(token)
    if not m:
        return None
    tag, digits = m.groups()
    return Message(tag, None if digits is None else _int(digits))


def _strip_comment(raw: str) -> str:
    pos = raw.find("#")
    return raw if pos < 0 else raw[:pos]


def _logical_lines(text: str) -> Iterable[Tuple[int, str]]:
    """(line number, comment-stripped content) pairs: blank lines are kept
    (a trace tick can be one), lines holding only a comment are dropped.
    A CR before the LF stays in the content; every parser strips the lines
    it reads."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "#" not in text:
        # Nothing to strip: each line is its own content.
        return enumerate(lines, 1)
    return [
        (i + 1, _strip_comment(raw))
        for i, raw in enumerate(lines)
        if not raw.lstrip().startswith("#")
    ]
