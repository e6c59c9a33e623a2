"""Command-line front end.

Exit codes: 0 success, 1 a check was refuted or the input failed validation,
2 usage or parse error, 3 unreadable or unwritable file.  Data goes to
stdout, diagnostics to stderr; every command is deterministic given its
arguments, input files, and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random
from typing import Callable, List, Optional, TypeVar

from .dsl import (
    ParseFailure,
    export_dot,
    parse_component,
    parse_network,
    parse_table,
    parse_trace,
    print_trace,
)
from .executor import (
    ChannelMismatchError,
    Trace,
    check_untimed_simulation,
    probe_causality,
    run,
)
from .gen import random_trace
from .model import ComponentSpec, has_errors, validate_spec
from .network import (
    ChannelSetError,
    IllFormedNetworkError,
    Network,
    check_feedback_wellformed,
    run_network,
)
from .streams import (
    IDENT_RE,
    LengthMismatchError,
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    delay_stream,
    join,
    split,
    timed_merge,
    untimed_abstraction,
)

OK = 0
REFUTED = 1
USAGE = 2
IO_ERROR = 3


class _Failure(Exception):
    """Abort the current command with a message and an exit code."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _Failure(IO_ERROR, f"cannot read '{path}': {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Failure(IO_ERROR, f"cannot write '{path}': {exc}") from exc


def _infer_format(path: str) -> str:
    return "table" if path.endswith(".ttab") else "textual"


def _parse_spec_text(text: str, fmt: str) -> ComponentSpec:
    return parse_table(text) if fmt == "table" else parse_component(text)


_T = TypeVar("_T")


def _parse_file(path: str, parse: Callable[[str], _T]) -> _T:
    """Read ``path`` and parse it; a parse failure is a usage error."""
    text = _read_text(path)
    try:
        return parse(text)
    except ParseFailure as exc:
        lines = [f"{path}:{issue.render()}" for issue in exc.issues]
        raise _Failure(USAGE, "\n".join(lines)) from exc


def _load_validated_spec(path: str) -> ComponentSpec:
    spec = _parse_file(path, lambda text: _parse_spec_text(text, _infer_format(path)))
    findings = validate_spec(spec)
    if has_errors(findings):
        report = "\n".join(f"{path}: {f.render()}" for f in findings)
        raise _Failure(REFUTED, report)
    return spec


def _load_trace(path: str) -> Trace:
    return _parse_file(path, parse_trace)


def _emit_trace(trace: Trace, out_path: Optional[str], summary: Optional[str] = None) -> None:
    text = print_trace(trace)
    if out_path:
        _write_text(out_path, text)
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary:
            print(summary, file=sys.stderr)


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read_text(args.spec)
    fmt = args.format or _infer_format(args.spec)
    try:
        spec = _parse_spec_text(text, fmt)
    except ParseFailure as exc:
        for issue in exc.issues:
            print(f"error: line {issue.render()}: {issue.message}")
        return REFUTED
    findings = validate_spec(spec)
    for f in findings:
        print(f.render())
    if has_errors(findings):
        return REFUTED
    print(f"ok: component '{spec.name}'")
    return OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_validated_spec(args.spec)
    inputs = _load_trace(args.trace)
    try:
        outputs = run(spec, inputs)
    except ChannelMismatchError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    _emit_trace(outputs, args.out, summary=f"simulated {outputs.length} ticks")
    return OK


def cmd_stream_split(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
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
    try:
        result = Trace(
            {ch: timed_merge(left.channels[ch], right.channels[ch]) for ch in left.channels},
            length=left.length,
        )
    except LengthMismatchError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
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
    result = Trace(
        {ch: delay_stream(p, args.d) for ch, p in trace.channels.items()},
        length=trace.length + args.d,
    )
    _emit_trace(result, None)
    return OK


def cmd_check_causality(args: argparse.Namespace) -> int:
    spec = _load_validated_spec(args.spec)
    result = probe_causality(spec, trials=args.trials, horizon=args.horizon, seed=args.seed)
    if result.consistent_with_strong:
        print(f"consistent-with-strong ({args.trials} trials, horizon {args.horizon})")
        return OK
    print(
        f"refuted-strong: outputs diverge at tick {result.tick} on channel "
        f"'{result.channel}'; inputs diverge only at tick {result.cut}"
    )
    print("# input a")
    sys.stdout.write(print_trace(result.witness_a))
    print("# input b")
    sys.stdout.write(print_trace(result.witness_b))
    return REFUTED


def cmd_check_untimed_sim(args: argparse.Namespace) -> int:
    spec_a = _load_validated_spec(args.spec_a)
    spec_b = _load_validated_spec(args.spec_b)
    try:
        result = check_untimed_simulation(
            spec_a, spec_b, trials=args.trials, horizon=args.horizon, seed=args.seed
        )
    except ChannelMismatchError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    if result.agree:
        print(f"agree ({args.trials} trials, horizon {args.horizon})")
        return OK
    seq_a = " ".join(m.token() for m in result.abstraction_a) or "-"
    seq_b = " ".join(m.token() for m in result.abstraction_b) or "-"
    print(f"disagree: untimed outputs differ on channel '{result.channel}'")
    print("# input")
    sys.stdout.write(print_trace(result.witness))
    print(f"# abstraction a: {seq_a}")
    print(f"# abstraction b: {seq_b}")
    return REFUTED


def _load_network(path: str) -> Network:
    return _parse_file(path, lambda text: parse_network(text, base_dir=Path(path).parent))


def cmd_check_feedback(args: argparse.Namespace) -> int:
    net = _load_network(args.network)
    result = check_feedback_wellformed(net)
    if result.well_formed:
        print("well-formed")
        return OK
    print("ill-formed: instantaneous cycle " + " -> ".join(result.cycle))
    return REFUTED


def cmd_compose(args: argparse.Namespace) -> int:
    net = _load_network(args.network)
    inputs = _load_trace(args.trace)
    ticks = args.ticks if args.ticks is not None else inputs.length
    if net.external_in and ticks != inputs.length:
        raise _Failure(
            USAGE,
            f"--ticks {ticks} conflicts with the {inputs.length}-tick input trace",
        )
    try:
        outputs = run_network(net, inputs, ticks)
    except IllFormedNetworkError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    except ChannelSetError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    _emit_trace(outputs, args.out)
    return OK


def cmd_gen_trace(args: argparse.Namespace) -> int:
    channels = _name_list(args.channels, "--channels")
    alphabet = _name_list(args.alphabet, "--alphabet")
    rng = Random(args.seed)
    trace = random_trace(channels, args.ticks, rng, alphabet=alphabet, max_len=args.max_len)
    sys.stdout.write(print_trace(trace))
    return OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    spec = _load_validated_spec(args.spec)
    sys.stdout.write(export_dot(spec))
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


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tstd",
        description="Validate, simulate, compose and check timed state transition diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a component and report findings")
    p.add_argument("spec")
    p.add_argument("--format", choices=("textual", "table"))
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run a component on an input trace")
    p.add_argument("spec")
    p.add_argument("trace")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stream", help="apply a stream operator to a trace file")
    stream_sub = p.add_subparsers(dest="op", required=True)

    q = stream_sub.add_parser("split", help="refine granularity by a factor")
    q.add_argument("trace")
    q.add_argument("-n", type=_positive_int, required=True)
    q.add_argument("--strategy", choices=("all-first", "all-last", "spread"), default="all-first")
    q.set_defaults(func=cmd_stream_split)

    q = stream_sub.add_parser("join", help="coarsen granularity by a factor")
    q.add_argument("trace")
    q.add_argument("-n", type=_positive_int, required=True)
    q.add_argument("--pad", action="store_true", help="pad with empty ticks to a multiple of n")
    q.set_defaults(func=cmd_stream_join)

    q = stream_sub.add_parser("merge", help="tick-wise merge of two traces, left first")
    q.add_argument("trace_a")
    q.add_argument("trace_b")
    q.set_defaults(func=cmd_stream_merge)

    q = stream_sub.add_parser("abstract", help="drop tick boundaries")
    q.add_argument("trace")
    q.set_defaults(func=cmd_stream_abstract)

    q = stream_sub.add_parser("delay", help="prepend empty ticks")
    q.add_argument("trace")
    q.add_argument("-d", type=_nonneg_int, required=True)
    q.set_defaults(func=cmd_stream_delay)

    p = sub.add_parser("check", help="randomized and structural checks")
    check_sub = p.add_subparsers(dest="kind", required=True)

    q = check_sub.add_parser("causality", help="probe strong causality of a component")
    q.add_argument("spec")
    _add_probe_flags(q)
    q.set_defaults(func=cmd_check_causality)

    q = check_sub.add_parser("untimed-sim", help="compare two components modulo ticks")
    q.add_argument("spec_a")
    q.add_argument("spec_b")
    _add_probe_flags(q)
    q.set_defaults(func=cmd_check_untimed_sim)

    q = check_sub.add_parser("feedback", help="check network feedback well-formedness")
    q.add_argument("network")
    q.set_defaults(func=cmd_check_feedback)

    p = sub.add_parser("compose", help="run a component network on a trace")
    p.add_argument("network")
    p.add_argument("trace")
    p.add_argument("--ticks", type=_nonneg_int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("gen-trace", help="generate a seeded random trace")
    p.add_argument("--channels", required=True, metavar="LIST")
    p.add_argument("--ticks", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_nonneg_int, default=3)
    p.add_argument("--alphabet", default="a,b,c", metavar="LIST")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("export-dot", help="render a component as a DOT digraph")
    p.add_argument("spec")
    p.set_defaults(func=cmd_export_dot)

    return parser


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--horizon", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
