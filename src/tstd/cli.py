"""Command-line front end.

Exit codes: 0 success, 1 a check was refuted or the input failed validation,
2 usage or parse error, 3 unreadable or unwritable file, stdout included.
Data goes to stdout, diagnostics to stderr; every command is deterministic
given its arguments, input files, and seed.  One loader, :func:`_load_system`,
reads each argument that names a system by its file name: a ``.tnet`` is a
network, any other a component.  Every such command takes either kind but
``check feedback``, which takes a network, and ``export-dot``.

Start-up is most of a short command's time, and without cached bytecode
most of start-up is compiling source.  So this module imports no other
module of the package at its top, and each command imports what it runs
when it runs: :mod:`tstd.streams` for what every format shares, a ``.tstd``
spec :mod:`tstd.dsl`, a ``.ttab`` :mod:`tstd.table_format`, a ``.tnet``
:mod:`tstd.network`, and only a command that reads or prints a trace
:mod:`tstd.trace_format`, so a seeded check that finds no witness does not.
Every command and its arguments are written once, in :data:`_COMMANDS`:
:func:`_read_argv` reads a well-formed command's arguments from it, and only
help and usage errors import :mod:`argparse` and build the parser of every
command from it.  The handlers of the ``stream`` commands and ``gen-trace``
live in :mod:`tstd.trace_commands`, which only those commands compile; they
load none of the spec machinery (:mod:`tstd.dsl`, :mod:`tstd.model`,
:mod:`tstd.executor`, :mod:`tstd.checks`, :mod:`tstd.network`).
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, TypeVar

if TYPE_CHECKING:
    import argparse

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
        raise _Failure(IO_ERROR, f"cannot read '{path}': {exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Failure(IO_ERROR, f"cannot write '{path}': {exc.strerror or exc}") from exc


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


_T = TypeVar("_T")


def _parse_file(path: str, parse: Callable[[str], _T]) -> _T:
    """Read ``path`` and parse it; a parse failure is a usage error."""
    from .streams import ParseFailure

    text = _read_text(path)
    try:
        return parse(text)
    except ParseFailure as exc:
        lines = [f"{path}:{issue.render()}" for issue in exc.issues]
        raise _Failure(USAGE, "\n".join(lines)) from exc


def _is_network(path: str) -> bool:
    return path.endswith(".tnet")


def _parser(path: str) -> Callable[[str], ComponentSpec | Network]:
    """The parser of the system file ``path`` by its name: a network's, whose
    components resolve relative to it, else :func:`tstd.dsl._spec_parser`'s."""
    if _is_network(path):
        from .network import parse_network

        return lambda text: parse_network(text, base_dir=Path(path).parent)
    from .dsl import _spec_parser

    return _spec_parser(path)


def _load_system(path: str) -> Tuple[ComponentSpec | Network, Tuple[type, ...]]:
    """The system at ``path`` (:func:`_parser`), a component refused with its
    errors, exit 1; and the errors, exit 1, that refuse a run of it: a channel
    mismatch, and an ill-formed network's."""
    from .streams import ChannelMismatchError

    system = _parse_file(path, _parser(path))
    if _is_network(path):
        from .network import IllFormedNetworkError

        return system, (ChannelMismatchError, IllFormedNetworkError)
    from .model import _errors

    report = "\n".join(f"{path}: {f.render()}" for f in _errors(system))
    if report:
        raise _Failure(REFUTED, report)
    return system, (ChannelMismatchError,)


def _load_trace(path: str) -> Trace:
    from .trace_format import parse_trace

    return _parse_file(path, parse_trace)


def _emit_trace(trace: Trace, out_path: Optional[str], summary: Optional[str] = None) -> None:
    from .trace_format import print_trace

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
    from .streams import ParseFailure

    try:
        system = _parser(args.spec)(_read_text(args.spec))
    except ParseFailure as exc:
        _write_stdout("".join(f"error: line {issue.render()}\n" for issue in exc.issues))
        return REFUTED
    if _is_network(args.spec):
        return _feedback_verdict(system, "ok: network", "error")
    from .analysis import validate_spec
    from .model import has_errors

    findings = validate_spec(system)
    _write_stdout("".join(f"{f.render()}\n" for f in findings))
    if has_errors(findings):
        return REFUTED
    _write_stdout(f"ok: component '{system.name}'\n")
    return OK


def _run_system(args: argparse.Namespace, path: str, ticks: Optional[int], summary: bool) -> int:
    """Run the system at ``path`` (:func:`_load_system`) on ``args.trace``
    for ``ticks`` ticks if given, which a system with inputs takes only as
    the trace's length, and print its output and, if asked, a summary."""
    from .streams import Trace

    system, refused = _load_system(path)
    inputs = _load_trace(args.trace)
    network, length = _is_network(path), inputs.length
    ticks = length if ticks is None else ticks
    if ticks != length and (system.external_in if network else system.in_channels()):
        raise _Failure(USAGE, f"--ticks {ticks} conflicts with the {length}-tick input trace")
    _check_result_ticks(ticks)
    try:
        if network:
            from .network import run_network

            outputs = run_network(system, inputs, ticks)
        else:
            from .executor import run

            # A trace of no channel is only its length.
            outputs = run(system, inputs if inputs.channels else Trace.empty((), ticks))
    except refused as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    _emit_trace(outputs, args.out, f"simulated {ticks} ticks" if summary else None)
    return OK


def cmd_simulate(args: argparse.Namespace) -> int:
    return _run_system(args, args.spec, None, summary=True)


def cmd_compose(args: argparse.Namespace) -> int:
    return _run_system(args, args.network, args.ticks, summary=False)


def _check_result_ticks(count: int, unit: str = "ticks") -> None:
    """Refuse a factor, tick count or length that makes the result longer
    than any sequence can be, before the operator, system or generator runs
    and fails on the index-sized repeat count or starts filling memory."""
    if count > sys.maxsize:
        raise _Failure(USAGE, f"result too large: more than {sys.maxsize} {unit}")


def cmd_check_causality(args: argparse.Namespace) -> int:
    from .checks import probe_causality

    system, refused = _load_system(args.spec)
    _check_result_ticks(args.horizon)
    try:
        result = probe_causality(system, trials=args.trials, horizon=args.horizon, seed=args.seed)
    except refused as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    if result.consistent_with_strong:
        _write_stdout(f"consistent-with-strong ({result.trials} trials, horizon {args.horizon})\n")
        return OK
    from .trace_format import print_trace

    _write_stdout(
        f"refuted-strong: outputs diverge at tick {result.tick} on channel "
        f"'{result.channel}'; inputs diverge only at tick {result.cut}\n"
        f"# input a\n{print_trace(result.witness_a)}"
        f"# input b\n{print_trace(result.witness_b)}"
    )
    return REFUTED


def cmd_check_untimed_sim(args: argparse.Namespace) -> int:
    from .checks import check_untimed_simulation

    system_a, refused_a = _load_system(args.spec_a)
    system_b, refused_b = _load_system(args.spec_b)
    _check_result_ticks(args.horizon)
    try:
        result = check_untimed_simulation(
            system_a, system_b, trials=args.trials, horizon=args.horizon, seed=args.seed
        )
    except (*refused_a, *refused_b) as exc:
        raise _Failure(REFUTED, str(exc)) from exc
    if result.agree:
        _write_stdout(f"agree ({args.trials} trials, horizon {args.horizon})\n")
        return OK
    from .trace_format import print_trace

    seq_a = " ".join(m.token() for m in result.abstraction_a) or "-"
    seq_b = " ".join(m.token() for m in result.abstraction_b) or "-"
    _write_stdout(
        f"disagree: untimed outputs differ on channel '{result.channel}'\n"
        f"# input\n{print_trace(result.witness)}"
        f"# abstraction a: {seq_a}\n"
        f"# abstraction b: {seq_b}\n"
    )
    return REFUTED


def _feedback_verdict(net: Network, ok: str, refuted: str) -> int:
    """Print ``ok`` if ``net``'s feedback is well-formed, else ``refuted`` and its cycle."""
    from .network import check_feedback_wellformed

    result = check_feedback_wellformed(net)
    if result.well_formed:
        _write_stdout(f"{ok}\n")
        return OK
    _write_stdout(f"{refuted}: instantaneous cycle {' -> '.join(result.cycle)}\n")
    return REFUTED


def cmd_check_feedback(args: argparse.Namespace) -> int:
    if not _is_network(args.network):
        raise _Failure(USAGE, f"{args.network}: check feedback takes a network (*.tnet)")
    return _feedback_verdict(_load_system(args.network)[0], "well-formed", "ill-formed")


def cmd_export_dot(args: argparse.Namespace) -> int:
    if _is_network(args.spec):
        raise _Failure(USAGE, f"{args.spec}: export-dot draws a component, not a network")
    from .dsl import export_dot

    _write_stdout(export_dot(_load_system(args.spec)[0]))
    return OK


def _type_error(message: str) -> Exception:
    from argparse import ArgumentTypeError  # which argparse reports as ``message``

    return ArgumentTypeError(message)


def _integer(raw: str) -> int:
    """An integer option, read by the file formats' rule: ASCII digits with
    an optional leading ``-``, and no ``+``, ``_`` or space, within the
    interpreter's digit limit."""
    from .streams import _INT_RE, _int, _LongInteger

    if not _INT_RE.match(raw):
        raise _type_error(f"invalid integer: {raw!r}")
    try:
        return _int(raw)
    except _LongInteger as exc:
        raise _type_error(str(exc)) from None


def _positive_int(raw: str) -> int:
    value = _integer(raw)
    if value < 1:
        raise _type_error("must be a positive integer")
    return value


def _nonneg_int(raw: str) -> int:
    value = _integer(raw)
    if value < 0:
        raise _type_error("must be a nonnegative integer")
    return value


def _trace_command(name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``name`` of :mod:`tstd.trace_commands`, imported when it runs."""

    def run(args: argparse.Namespace) -> int:
        from . import trace_commands

        return getattr(trace_commands, name)(args)

    return run


_PROBE_OPTIONS = {
    "--trials": dict(type=_positive_int, default=200),
    "--horizon": dict(type=_positive_int, default=16),
    "--seed": dict(type=_integer, default=0),
}

# Each command, in --help order, with its help line.  A command that runs
# has its handler, its positionals and its options, each a flag and the
# keywords argparse is given for it; a command with subcommands has the name
# its subcommand is stored under and their table, which is of the same kind.
_COMMANDS = {
    "validate": ("parse a component or network and report findings", cmd_validate, ("spec",), {}),
    "simulate": ("run a component or network on an input trace", cmd_simulate, ("spec", "trace"),
                 {"--out": dict(metavar="PATH")}),
    "stream": ("apply a stream operator to a trace file", "op", {
        "split": ("refine granularity by a factor", _trace_command("cmd_stream_split"),
                  ("trace",), {
                      "-n": dict(type=_positive_int, required=True),
                      "--strategy": dict(choices=("all-first", "all-last", "spread"),
                                         default="all-first"),
                  }),
        "join": ("coarsen granularity by a factor", _trace_command("cmd_stream_join"),
                 ("trace",), {
                     "-n": dict(type=_positive_int, required=True),
                     "--pad": dict(action="store_true",
                                   help="pad with empty ticks to a multiple of n"),
                 }),
        "merge": ("tick-wise merge of two traces, left first", _trace_command("cmd_stream_merge"),
                  ("trace_a", "trace_b"), {}),
        "abstract": ("drop tick boundaries", _trace_command("cmd_stream_abstract"), ("trace",), {}),
        "delay": ("prepend empty ticks", _trace_command("cmd_stream_delay"), ("trace",),
                  {"-d": dict(type=_nonneg_int, required=True)}),
    }),
    "check": ("randomized and structural checks", "kind", {
        "causality": ("probe strong causality of a component", cmd_check_causality, ("spec",),
                      _PROBE_OPTIONS),
        "untimed-sim": ("compare two components modulo ticks", cmd_check_untimed_sim,
                        ("spec_a", "spec_b"), _PROBE_OPTIONS),
        "feedback": ("check network feedback well-formedness", cmd_check_feedback,
                     ("network",), {}),
    }),
    "compose": ("run a component network on a trace", cmd_compose, ("network", "trace"),
                {"--ticks": dict(type=_nonneg_int), "--out": dict(metavar="PATH")}),
    "gen-trace": ("generate a seeded random trace", _trace_command("cmd_gen_trace"), (), {
        "--channels": dict(required=True, metavar="LIST"),
        "--ticks": dict(type=_nonneg_int, required=True),
        "--seed": dict(type=_integer, default=0),
        "--max-len": dict(type=_nonneg_int, default=3),
        "--alphabet": dict(default="a,b,c", metavar="LIST"),
    }),
    "export-dot": ("render a component as a DOT digraph", cmd_export_dot, ("spec",), {}),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in :data:`_COMMANDS`."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Writes its help to stdout through :func:`_write_stdout`, so a
        failed write is reported: argparse's own writer drops the error.
        The parsers of the subcommands are of this class too."""

        def print_help(self, file=None) -> None:
            if file is None:
                _write_stdout(self.format_help())
            else:
                super().print_help(file)

    def add_commands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (help_text, *entry) in table.items():
            p = sub.add_parser(name, help=help_text)
            if isinstance(entry[0], str):
                add_commands(p, *entry)
                continue
            func, positionals, options = entry
            for positional in positionals:
                p.add_argument(positional)
            for flag, spec in options.items():
                p.add_argument(flag, **spec)
            p.set_defaults(func=func)

    parser = _Parser(
        prog="tstd",
        description="Validate, simulate, compose and check timed state transition diagrams.",
    )
    add_commands(parser, "command", _COMMANDS)
    return parser


def _read_argv(argv: List[str]) -> Optional[SimpleNamespace]:
    """What argparse parses from ``argv`` in its plainest form: exact names,
    each option at most once by its flag with a valid value not starting with
    ``-``, the declared positionals.  Else None, for argparse to parse it."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    values: Dict[str, object] = {"command": argv[0]}
    tokens = iter(argv[1:])
    if isinstance(entry[1], str):
        _, dest, table = entry
        values[dest] = name = next(tokens, None)
        entry = table.get(name)
        if entry is None:
            return None
    _, values["func"], names, options = entry
    options = dict(options)  # a flag given is popped, so a repeat is unknown
    for flag, spec in options.items():  # the defaults, before the options given
        values[_dest(flag)] = spec.get("default", False if spec.get("action") else None)
    positionals = []
    for token in tokens:
        spec = options.pop(token, None)
        if not token.startswith("-"):
            positionals.append(token)
        elif spec is None:
            return None
        elif spec.get("action") == "store_true":
            values[_dest(token)] = True
        else:
            raw = next(tokens, "-")
            try:
                value = spec.get("type", str)(raw)
            except Exception:  # argparse reports the value
                return None
            if raw.startswith("-") or value not in spec.get("choices", (value,)):
                return None
            values[_dest(token)] = value
    if len(positionals) != len(names) or any(s.get("required") for s in options.values()):
        return None
    return SimpleNamespace(**values, **dict(zip(names, positionals)))


def _dest(flag: str) -> str:
    """The attribute argparse stores an option's value under."""
    return flag.lstrip("-").replace("-", "_")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_argv(argv) or build_parser().parse_args(argv)
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
