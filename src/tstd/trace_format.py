"""The trace text format: its one reader and its printer.

Trace (``*.trc``): a header ``ticks CH...`` followed by one line per tick,
``CH: m1 m2 | CH2: -`` where ``-`` is the empty interval.  Canonical form
lists channels sorted by name.  A comment-only line is not a tick.

One reader, :func:`_read_ticks`, serves :func:`parse_trace` and the
``stream`` commands, which transform each distinct interval once per file.
The lexing it shares with the other formats, and :class:`ParseFailure`,
live in :mod:`tstd.streams`, the only module imported, so traces load no
spec code.  A command imports this module only where it reads or prints a
trace, so a spec check that ends without a witness never compiles it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .streams import (
    IDENT_RE,
    Message,
    StreamPrefix,
    TimeInterval,
    Trace,
    _Issues,
    _logical_lines,
    _LongInteger,
    _parse_message,
)

__all__ = ["parse_trace", "print_trace"]


def _read_ticks(text: str) -> Tuple[List[str], List[Tuple[str, ...]], Dict[str, TimeInterval]]:
    """The channels, one tuple of stripped body texts per tick in channel
    order, and the table from each body text to its interval, parsed once
    per file.  Raises ParseFailure on any error.  A clean line made only of
    bodies seen before is remembered, so each later copy costs one lookup
    and one append and shares its tuple.  A line with issues is never
    remembered, nor is any line of a trace whose every body is new."""
    issues = _Issues()
    lines = iter(_logical_lines(text))
    for lineno, content in lines:
        header = content.split()
        if header:
            break
    else:
        lineno, header = 1, []
    if header[:1] != ["ticks"]:
        issues.add(lineno, 1, "expected header line 'ticks CH ...'")
        issues.raise_if_any()
    channels: List[str] = []
    for name in header[1:]:
        if not IDENT_RE.match(name):
            issues.add(lineno, 1, f"invalid channel name {name!r}")
        elif name in channels:
            issues.add(lineno, 1, f"duplicate channel name '{name}'")
        else:
            channels.append(name)

    position = {name: i for i, name in enumerate(channels)}
    unfilled: List[Optional[str]] = [None] * len(channels)
    table: Dict[str, TimeInterval] = {"-": ()}
    rows: List[Tuple[str, ...]] = []
    append = rows.append
    # Clean lines of known bodies -> their rows; while it is empty, no line is hashed.
    seen: Dict[str, Tuple[str, ...]] = {}
    for lineno, content in lines:
        row = seen.get(content) if seen else None
        if row is not None:
            append(row)
            continue
        stripped = content.strip()
        if not stripped:
            if channels:
                issues.add(lineno, 1, f"tick {len(rows)}: missing channel '{channels[0]}'")
            append(())
            continue
        bodies = unfilled.copy()
        fresh = False
        for segment in stripped.split("|"):
            name, colon, body = segment.partition(":")
            name = name.strip()
            pos = position.get(name)
            if pos is None or not colon:
                if not colon or not IDENT_RE.match(name):
                    issues.add(lineno, 1, f"malformed channel segment {segment.strip()!r}")
                else:
                    issues.add(lineno, 1, f"unknown channel '{name}' at tick {len(rows)}")
                continue
            if bodies[pos] is not None:
                issues.add(lineno, 1, f"duplicate channel '{name}' at tick {len(rows)}")
                continue
            body = body.strip()
            iv = table.get(body)
            if iv is None:
                fresh = True
                if not body:
                    issues.add(lineno, 1, f"empty interval must be written '-' ({name})")
                else:
                    messages = []
                    try:
                        for token in body.split():
                            msg = _parse_message(token)
                            if msg is None:
                                issues.add(lineno, 1, f"malformed message token {token!r}")
                                break
                            messages.append(msg)
                        else:
                            iv = table[body] = tuple(messages)
                    except _LongInteger as exc:
                        issues.add(lineno, 1, str(exc))
                    if iv is None:
                        continue
            bodies[pos] = body
        row = tuple(bodies)
        if None in row:
            for pos, name in enumerate(channels):
                if row[pos] is None:
                    issues.add(lineno, 1, f"tick {len(rows)}: missing channel '{name}'")
        elif not fresh and not issues.items:
            seen[content] = row
        append(row)

    issues.raise_if_any()
    return channels, rows, table


def parse_trace(text: str) -> Trace:
    """Parse a trace file; raises ParseFailure on any error.  The reader's rows
    are decoded a channel at a time in C, so equal bodies share one tuple."""
    channels, rows, table = _read_ticks(text)
    decode = table.__getitem__
    columns = [tuple(map(decode, map(itemgetter(i), rows))) for i in range(len(channels))]
    return Trace(dict(zip(channels, map(StreamPrefix, columns))), length=len(rows))


def _print_column(channel: str, intervals: Iterable[TimeInterval]) -> Iterator[str]:
    """The segments ``CH: BODY`` of one channel, one per tick, made lazily."""
    head = channel + ": "
    silent = head + "-"
    token = Message.token
    return (head + " ".join(map(token, iv)) if iv else silent for iv in intervals)


def _trace_text(channels: Sequence[str], columns: Iterable[Iterator[str]], length: int) -> str:
    """The text of a ``length``-tick trace from its sorted channels and
    their lazy segment columns: the header line, then one line per tick.

    ``zip`` over the columns joins one tick's segments into its line, so no
    segment outlives its line.
    """
    if not channels:
        return "ticks" + "\n" * (length + 1)
    lines = ["ticks " + " ".join(channels)]
    lines += map(" | ".join, zip(*columns))
    return "\n".join(lines) + "\n"


def print_trace(trace: Trace) -> str:
    """Canonical trace text: channels sorted by name, '-' for empty intervals,
    each channel rendered as a lazy column of segments."""
    channels = sorted(trace.channels)
    columns = [_print_column(ch, trace.channels[ch].intervals) for ch in channels]
    return _trace_text(channels, columns, trace.length)
