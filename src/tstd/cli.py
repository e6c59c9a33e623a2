"""Command-line front end.

Exit codes: 0 success, 1 a check was refuted or the input failed validation,
2 usage or parse error, 3 unreadable or unwritable file, stdout included.
Data goes to stdout, diagnostics to stderr; every command is deterministic
given its arguments, input files, and seed.

Start-up is most of a short command's time, and without cached bytecode
most of start-up is compiling source.  So this module imports only
:mod:`tstd.trace_format` (and through it :mod:`tstd.streams`), which every
command uses, and each command imports the rest of what it runs when it runs:
a ``.tstd`` spec loads :mod:`tstd.dsl`, a ``.ttab`` :mod:`tstd.table_format`.
Likewise only the named command's argument parser is built.
The handlers of the ``stream`` commands and ``gen-trace`` live in
:mod:`tstd.trace_commands`, which only those commands compile; they load none
of the spec machinery (:mod:`tstd.dsl`, :mod:`tstd.model`,
:mod:`tstd.executor`, :mod:`tstd.checks`, :mod:`tstd.network`).
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, TypeVar

from .trace_format import ParseFailure, parse_trace, print_trace

if TYPE_CHECKING:
    from .model import ComponentSpec
    from .network import Network
    from .streams import Trace

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


def _stdout_failure(exc: OSError) -> _Failure:
    """The failure of a write or flush of stdout.

    Stdout is pointed at the null device first, so that the interpreter's
    flush at exit of what is still buffered does not fail a second time.
    """
    import os

    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        pass  # not a file, so nothing of it is flushed at exit
    else:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return _Failure(IO_ERROR, f"cannot write to stdout: {exc}")


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _stdout_failure(exc) from exc


def _flush_stdout() -> None:
    try:
        sys.stdout.flush()
    except OSError as exc:
        raise _stdout_failure(exc) from exc


class _Parser(argparse.ArgumentParser):
    """Writes its help to stdout through :func:`_write_stdout`, so a failed
    write is reported: argparse's own writer drops the error.  The parsers
    of the subcommands are of this class too."""

    def print_help(self, file=None) -> None:
        if file is None:
            _write_stdout(self.format_help())
        else:
            super().print_help(file)


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
    from .dsl import _spec_parser
    from .model import _errors

    spec = _parse_file(path, _spec_parser(path))
    errors = _errors(spec)
    if errors:
        report = "\n".join(f"{path}: {f.render()}" for f in errors)
        raise _Failure(REFUTED, report)
    return spec


def _load_trace(path: str) -> Trace:
    return _parse_file(path, parse_trace)


def _emit_trace(trace: Trace, out_path: Optional[str], summary: Optional[str] = None) -> None:
    text = print_trace(trace)
    if out_path:
        _write_text(out_path, text)
        if summary:
            _write_stdout(summary + "\n")
    else:
        _write_stdout(text)
        if summary:
            _flush_stdout()  # the trace is out before the summary says so
            print(summary, file=sys.stderr)


def cmd_validate(args: argparse.Namespace) -> int:
    from .dsl import _spec_parser
    from .model import has_errors, validate_spec

    text = _read_text(args.spec)
    try:
        spec = _spec_parser(args.spec, args.format)(text)
    except ParseFailure as exc:
        _write_stdout("".join(f"error: line {issue.render()}\n" for issue in exc.issues))
        return REFUTED
    findings = validate_spec(spec)
    _write_stdout("".join(f"{f.render()}\n" for f in findings))
    if has_errors(findings):
        return REFUTED
    _write_stdout(f"ok: component '{spec.name}'\n")
    return OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .executor import ChannelMismatchError, run

    spec = _load_validated_spec(args.spec)
    inputs = _load_trace(args.trace)
    try:
        outputs = run(spec, inputs)
    except ChannelMismatchError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    _emit_trace(outputs, args.out, summary=f"simulated {outputs.length} ticks")
    return OK


def _check_result_ticks(count: int, unit: str = "ticks") -> None:
    """Refuse a factor, tick count or length that makes the result longer
    than any sequence can be.

    Checked before the operator, network or generator runs, which would
    otherwise fail on the index-sized repeat count or start filling memory.
    """
    if count > sys.maxsize:
        raise _Failure(USAGE, f"result too large: more than {sys.maxsize} {unit}")


def cmd_check_causality(args: argparse.Namespace) -> int:
    from .checks import probe_causality

    spec = _load_validated_spec(args.spec)
    _check_result_ticks(args.horizon)
    result = probe_causality(spec, trials=args.trials, horizon=args.horizon, seed=args.seed)
    if result.consistent_with_strong:
        _write_stdout(f"consistent-with-strong ({args.trials} trials, horizon {args.horizon})\n")
        return OK
    _write_stdout(
        f"refuted-strong: outputs diverge at tick {result.tick} on channel "
        f"'{result.channel}'; inputs diverge only at tick {result.cut}\n"
        f"# input a\n{print_trace(result.witness_a)}"
        f"# input b\n{print_trace(result.witness_b)}"
    )
    return REFUTED


def cmd_check_untimed_sim(args: argparse.Namespace) -> int:
    from .checks import check_untimed_simulation
    from .executor import ChannelMismatchError

    spec_a = _load_validated_spec(args.spec_a)
    spec_b = _load_validated_spec(args.spec_b)
    _check_result_ticks(args.horizon)
    try:
        result = check_untimed_simulation(
            spec_a, spec_b, trials=args.trials, horizon=args.horizon, seed=args.seed
        )
    except ChannelMismatchError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    if result.agree:
        _write_stdout(f"agree ({args.trials} trials, horizon {args.horizon})\n")
        return OK
    seq_a = " ".join(m.token() for m in result.abstraction_a) or "-"
    seq_b = " ".join(m.token() for m in result.abstraction_b) or "-"
    _write_stdout(
        f"disagree: untimed outputs differ on channel '{result.channel}'\n"
        f"# input\n{print_trace(result.witness)}"
        f"# abstraction a: {seq_a}\n"
        f"# abstraction b: {seq_b}\n"
    )
    return REFUTED


def _load_network(path: str) -> Network:
    from .network import parse_network

    return _parse_file(path, lambda text: parse_network(text, base_dir=Path(path).parent))


def cmd_check_feedback(args: argparse.Namespace) -> int:
    from .network import check_feedback_wellformed

    net = _load_network(args.network)
    result = check_feedback_wellformed(net)
    if result.well_formed:
        _write_stdout("well-formed\n")
        return OK
    _write_stdout("ill-formed: instantaneous cycle " + " -> ".join(result.cycle) + "\n")
    return REFUTED


def cmd_compose(args: argparse.Namespace) -> int:
    from .network import ChannelSetError, IllFormedNetworkError, run_network

    net = _load_network(args.network)
    inputs = _load_trace(args.trace)
    ticks = args.ticks if args.ticks is not None else inputs.length
    if net.external_in and ticks != inputs.length:
        raise _Failure(
            USAGE,
            f"--ticks {ticks} conflicts with the {inputs.length}-tick input trace",
        )
    _check_result_ticks(ticks)
    try:
        outputs = run_network(net, inputs, ticks)
    except IllFormedNetworkError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    except ChannelSetError as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    _emit_trace(outputs, args.out)
    return OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    from .dsl import export_dot

    spec = _load_validated_spec(args.spec)
    _write_stdout(export_dot(spec))
    return OK


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


def _trace_command(name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``name`` of :mod:`tstd.trace_commands`, imported when it runs."""

    def run(args: argparse.Namespace) -> int:
        from . import trace_commands

        return getattr(trace_commands, name)(args)

    return run


def _add_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("--format", choices=("textual", "table"))
    p.set_defaults(func=cmd_validate)


def _add_simulate(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("trace")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_simulate)


def _add_stream(p: argparse.ArgumentParser) -> None:
    stream_sub = p.add_subparsers(dest="op", required=True)

    q = stream_sub.add_parser("split", help="refine granularity by a factor")
    q.add_argument("trace")
    q.add_argument("-n", type=_positive_int, required=True)
    q.add_argument("--strategy", choices=("all-first", "all-last", "spread"), default="all-first")
    q.set_defaults(func=_trace_command("cmd_stream_split"))

    q = stream_sub.add_parser("join", help="coarsen granularity by a factor")
    q.add_argument("trace")
    q.add_argument("-n", type=_positive_int, required=True)
    q.add_argument("--pad", action="store_true", help="pad with empty ticks to a multiple of n")
    q.set_defaults(func=_trace_command("cmd_stream_join"))

    q = stream_sub.add_parser("merge", help="tick-wise merge of two traces, left first")
    q.add_argument("trace_a")
    q.add_argument("trace_b")
    q.set_defaults(func=_trace_command("cmd_stream_merge"))

    q = stream_sub.add_parser("abstract", help="drop tick boundaries")
    q.add_argument("trace")
    q.set_defaults(func=_trace_command("cmd_stream_abstract"))

    q = stream_sub.add_parser("delay", help="prepend empty ticks")
    q.add_argument("trace")
    q.add_argument("-d", type=_nonneg_int, required=True)
    q.set_defaults(func=_trace_command("cmd_stream_delay"))


def _add_check(p: argparse.ArgumentParser) -> None:
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


def _add_compose(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("trace")
    p.add_argument("--ticks", type=_nonneg_int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_compose)


def _add_gen_trace(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channels", required=True, metavar="LIST")
    p.add_argument("--ticks", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_nonneg_int, default=3)
    p.add_argument("--alphabet", default="a,b,c", metavar="LIST")
    p.set_defaults(func=_trace_command("cmd_gen_trace"))


def _add_export_dot(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.set_defaults(func=cmd_export_dot)


# Each command: its help line and what adds its arguments, in --help order.
_COMMANDS = {
    "validate": ("parse a component and report findings", _add_validate),
    "simulate": ("run a component on an input trace", _add_simulate),
    "stream": ("apply a stream operator to a trace file", _add_stream),
    "check": ("randomized and structural checks", _add_check),
    "compose": ("run a component network on a trace", _add_compose),
    "gen-trace": ("generate a seeded random trace", _add_gen_trace),
    "export-dot": ("render a component as a DOT digraph", _add_export_dot),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command's name, a parser
    with only that command's subparser, which takes less time to build.

    The one-command parser parses that command's arguments as the full one
    does and prints the same help and errors: only the top-level parser
    lists the other commands, and it does so in its usage line, which the
    one-command parser writes out in full."""
    parser = _Parser(
        prog="tstd",
        description="Validate, simulate, compose and check timed state transition diagrams.",
    )
    names = _COMMANDS if command is None else [command]
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--horizon", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)


def _parser_for(argv: List[str]) -> argparse.ArgumentParser:
    """The one-command parser when ``argv`` starts with a command's name,
    else the full parser (for ``--help``, no command or an unknown one)."""
    return build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _parser_for(argv).parse_args(argv)
            return args.func(args)
        finally:
            # Flush now, not at exit, so that a failed write is reported
            # here; argparse writes --help to stdout before it exits.
            _flush_stdout()
    except _Failure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except MemoryError:
        # A result or buffer sized from the arguments that cannot be
        # allocated, such as `stream delay -d` with a huge depth.
        print("result too large: not enough memory", file=sys.stderr)
        return USAGE


def run() -> int:
    """The process entry point: ``python -m tstd``, ``python -m tstd.cli``
    and the ``tstd`` script all run :func:`main` through it.

    A command leaves a few hundred objects of cyclic garbage whatever its
    input size, so it runs with the cyclic collector off, and what it built
    is frozen before the interpreter's last collection at shutdown, which
    then skips it.  Atexit handlers, the flush of stdio and the exit code
    are unchanged.  :func:`main` itself leaves the collector as it is.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    # Run the copy that tstd.trace_commands imports, so main catches the
    # _Failure class its handlers raise.
    from tstd.cli import run

    raise SystemExit(run())
