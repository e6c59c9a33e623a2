"""The trace commands of the CLI: ``stream split|join|merge|abstract|delay``
and ``gen-trace``.

:mod:`tstd.cli` parses the arguments and imports this module only when one of
these commands runs, so the spec commands do not compile it.  Like the rest of
the trace side, it loads none of the spec machinery (:mod:`tstd.dsl`,
:mod:`tstd.model`, :mod:`tstd.executor`, :mod:`tstd.network`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from .cli import OK, REFUTED, USAGE, _check_result_ticks, _emit_trace, _Failure, _load_trace
from .streams import (
    IDENT_RE,
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    Trace,
    delay_stream,
    join,
    split,
    timed_merge,
    untimed_abstraction,
)
from .trace_format import print_trace


def cmd_stream_split(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    # split builds an n-tick filler even when the trace is empty.
    _check_result_ticks(max(trace.length, 1) * args.n)
    strategy = SplitStrategy.parse(args.strategy)
    result = Trace(
        {ch: split(p, args.n, strategy) for ch, p in trace.channels.items()},
        length=trace.length * args.n,
    )
    _emit_trace(result, None)
    return OK


def cmd_stream_join(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    length = trace.length
    if args.pad:
        pad = (-length) % args.n
        _check_result_ticks(length + pad)
        if pad:
            trace = Trace(
                {
                    ch: StreamPrefix(p.intervals + ((),) * pad)
                    for ch, p in trace.channels.items()
                },
                length=length + pad,
            )
    try:
        result = Trace(
            {ch: join(p, args.n) for ch, p in trace.channels.items()},
            length=trace.length // args.n,
        )
    except NonAlignedPrefixError as exc:
        raise _Failure(REFUTED, f"{exc} (use --pad to pad with empty ticks)") from exc
    _emit_trace(result, None)
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
    for ch in sorted(trace.channels):
        seq = untimed_abstraction(trace.channels[ch])
        body = " ".join(m.token() for m in seq) if seq else "-"
        print(f"{ch}: {body}")
    return OK


def cmd_stream_delay(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    _check_result_ticks(trace.length + args.d)
    result = Trace(
        {ch: delay_stream(p, args.d) for ch, p in trace.channels.items()},
        length=trace.length + args.d,
    )
    _emit_trace(result, None)
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
    sys.stdout.write(print_trace(trace))
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
