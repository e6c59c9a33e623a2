"""The trace commands of the CLI: ``stream split|join|merge|abstract|delay``
and ``gen-trace``.

:mod:`tstd.cli` parses the arguments and imports this module only when one of
these commands runs, so the spec commands do not compile it.  Like the rest of
the trace side, it loads none of the spec machinery (:mod:`tstd.dsl`,
:mod:`tstd.model`, :mod:`tstd.executor`, :mod:`tstd.network`).

``stream split``, ``join`` and ``delay`` work on dictionary-encoded columns.
They read a file with :func:`tstd.trace_format._read_ticks`, the reader behind
:func:`~tstd.trace_format.parse_trace`, which gives each tick's body texts and
the file's table from body text to interval.  For each channel,
:func:`_encoded_column` collects the distinct keys (bodies, or n-tick groups
of bodies for ``join``), calls the :mod:`tstd.streams` operator once on a
prefix made of their intervals, renders that result once and gives each
output tick its key's segments.  So each distinct interval or group is
transformed and rendered once per file.  On a trace whose every interval is
distinct nothing is shared, and the keys cost a few dictionary operations
per tick: ``split -n 8``, ``join -n 8`` and ``delay -d 2`` take about 5-12%
longer than parsing, one operator call per channel on whole prefixes and
printing would (10k ticks, 1 and 3 channels).  ``merge`` and ``abstract``
parse with :func:`~tstd.trace_format.parse_trace`, the same reader, and run
their operator on whole prefixes: keyed by pairs or bodies, they took up to
15% and 27% longer on such traces.
"""

from __future__ import annotations

import argparse
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

from .cli import (
    OK,
    REFUTED,
    USAGE,
    _check_result_ticks,
    _emit_trace,
    _Failure,
    _load_trace,
    _parse_file,
    _write_stdout,
)
from .streams import (
    IDENT_RE,
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    TimeInterval,
    Trace,
    delay_stream,
    join,
    split,
    timed_merge,
    untimed_abstraction,
)
from .trace_format import _print_column, _read_ticks, _trace_text, print_trace


def _read_columns(path: str) -> Tuple[List[Tuple[str, List[str]]], int, Dict[str, TimeInterval]]:
    """The trace at ``path`` as (channel, bodies) pairs sorted by channel,
    its tick count and its table from body text to interval."""
    channels, rows, table = _parse_file(path, _read_ticks)
    columns = [(ch, list(map(itemgetter(i), rows))) for i, ch in enumerate(channels)]
    return sorted(columns, key=itemgetter(0)), len(rows), table


def _prefix(table: Dict[str, TimeInterval], bodies: Iterable[str]) -> StreamPrefix:
    return StreamPrefix(tuple(map(table.__getitem__, bodies)))


def _encoded_column(
    channel: str,
    keys: Sequence[Hashable],
    operate: Callable[[List[Hashable]], StreamPrefix],
    size: int = 1,
    lead: int = 0,
) -> Iterator[str]:
    """The output segments of ``channel``, whose ticks hold ``keys``.
    ``operate`` maps the distinct keys, in order of first use, to the
    operator's result on their intervals, which is rendered once.  After the
    result's first ``lead`` ticks, each key gives the ``size`` segments that
    the result holds for its place among the distinct keys."""
    distinct = list(dict.fromkeys(keys))
    segments = _print_column(channel, operate(distinct).intervals)
    head = list(islice(segments, lead))
    if len(distinct) == len(keys):
        # Every key is new where it stands: the segments are the column.
        return chain(head, segments)
    if size == 1:
        return chain(head, map(dict(zip(distinct, segments)).__getitem__, keys))
    groups = dict(zip(distinct, zip(*[segments] * size)))
    return chain(head, chain.from_iterable(map(groups.__getitem__, keys)))


def cmd_stream_split(args: argparse.Namespace) -> int:
    columns, length, table = _read_columns(args.trace)
    # split builds an n-tick filler even when the trace is empty.
    _check_result_ticks(max(length, 1) * args.n)
    n, strategy = args.n, SplitStrategy.parse(args.strategy)

    def operate(distinct: List[str]) -> StreamPrefix:
        return split(_prefix(table, distinct), n, strategy)

    out = [_encoded_column(ch, bodies, operate, size=n) for ch, bodies in columns]
    _write_stdout(_trace_text([ch for ch, _ in columns], out, length * n))
    return OK


def cmd_stream_join(args: argparse.Namespace) -> int:
    columns, length, table = _read_columns(args.trace)
    n = args.n
    if args.pad:
        pad = (-length) % n
        _check_result_ticks(length + pad)
        length += pad
        for _, bodies in columns:
            bodies += ["-"] * pad

    def operate(distinct: List[Tuple[str, ...]]) -> StreamPrefix:
        return join(_prefix(table, chain.from_iterable(distinct)), n)

    try:
        if columns and length % n:
            # join refuses a prefix of this length, in its own words; the
            # distinct groups would hide the misalignment from it.
            join(StreamPrefix.empty(length), n)
        out = [
            _encoded_column(ch, list(zip(*[iter(bodies)] * n)), operate)
            for ch, bodies in columns
        ]
    except NonAlignedPrefixError as exc:
        raise _Failure(REFUTED, f"{exc} (use --pad to pad with empty ticks)") from exc
    _write_stdout(_trace_text([ch for ch, _ in columns], out, length // n))
    return OK


def cmd_stream_merge(args: argparse.Namespace) -> int:
    left = _load_trace(args.trace_a)
    right = _load_trace(args.trace_b)
    if set(left.channels) != set(right.channels):
        raise _Failure(REFUTED, "traces carry different channel sets")
    if left.length != right.length:
        raise _Failure(
            REFUTED, f"cannot merge traces of lengths {left.length} and {right.length}"
        )
    result = Trace(
        {ch: timed_merge(left.channels[ch], right.channels[ch]) for ch in left.channels},
        length=left.length,
    )
    _emit_trace(result, None)
    return OK


def cmd_stream_abstract(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    lines = []
    for ch in sorted(trace.channels):
        seq = untimed_abstraction(trace.channels[ch])
        body = " ".join(m.token() for m in seq) if seq else "-"
        lines.append(f"{ch}: {body}\n")
    _write_stdout("".join(lines))
    return OK


def cmd_stream_delay(args: argparse.Namespace) -> int:
    columns, length, table = _read_columns(args.trace)
    d = args.d
    _check_result_ticks(length + d)

    def operate(distinct: List[str]) -> StreamPrefix:
        return delay_stream(_prefix(table, distinct), d)

    out = [_encoded_column(ch, bodies, operate, lead=d) for ch, bodies in columns]
    _write_stdout(_trace_text([ch for ch, _ in columns], out, length + d))
    return OK


def cmd_gen_trace(args: argparse.Namespace) -> int:
    from random import Random

    from .gen import random_trace

    channels = _name_list(args.channels, "--channels")
    alphabet = _name_list(args.alphabet, "--alphabet")
    _check_result_ticks(args.ticks)
    _check_result_ticks(args.max_len, "messages per interval")
    rng = Random(args.seed)
    trace = random_trace(channels, args.ticks, rng, alphabet=alphabet, max_len=args.max_len)
    _write_stdout(print_trace(trace))
    return OK


def _name_list(raw: str, flag: str) -> List[str]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise _Failure(USAGE, f"{flag} must list at least one name")
    for name in names:
        if not IDENT_RE.match(name):
            raise _Failure(USAGE, f"{flag}: invalid name {name!r}")
    if len(set(names)) != len(names):
        raise _Failure(USAGE, f"{flag} lists a name twice")
    return names
