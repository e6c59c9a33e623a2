"""tstd as a process: the three entry points, the collector policy of
`tstd.cli.run`, and commands whose stdout cannot be written."""

import gc
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from tstd import cli

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def _python(args, *, stdout=subprocess.PIPE, unbuffered=True):
    """Run ``python ARGS`` over this checkout's source from the samples
    directory; stdout is captured unless given."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        env=env, cwd=SAMPLES, timeout=120,
    )


def _console_script():
    """``python -c`` arguments that do what the installed ``tstd`` script
    does: import the function pyproject.toml names and exit with its result."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^tstd = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


ENTRY_POINTS = {
    "script": _console_script(),
    "python -m tstd": ["-m", "tstd"],
    "python -m tstd.cli": ["-m", "tstd.cli"],
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "toggler.tstd", "empty4.trc"], 0),
        (["check", "causality", "passthrough.tstd", "--trials", "20"], 1),
        (["simulate", "toggler.tstd"], 2),
    ],
    ids=["success", "refutation", "usage error"],
)
def test_entry_points_agree(argv, code):
    results = {
        name: _python([*prefix, *argv]) for name, prefix in ENTRY_POINTS.items()
    }
    outcomes = {(r.returncode, r.stdout, r.stderr) for r in results.values()}
    assert len(outcomes) == 1, results
    assert results["python -m tstd"].returncode == code


# The script's code, or runpy running a module as `python -m` does, after an
# atexit handler that reports the collector's state at exit: that the handler
# runs at all shows that run keeps atexit.
_STARTERS = {
    "script": ENTRY_POINTS["script"][1],
    **{
        f"python -m {module}": (
            f"import runpy; runpy.run_module({module!r}, run_name='__main__', alter_sys=True)"
        )
        for module in ("tstd", "tstd.cli")
    },
}
_REPORT_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('collector', gc.isenabled(), gc.get_freeze_count() > 0,"
    " file=sys.stderr))\n"
)


@pytest.mark.parametrize("entry", _STARTERS)
def test_every_entry_point_runs_without_the_collector(entry):
    argv = ["simulate", "toggler.tstd", "empty4.trc"]
    done = _python(["-c", _REPORT_AT_EXIT + _STARTERS[entry], *argv])
    assert done.returncode == 0
    assert done.stderr.decode() == "simulated 4 ticks\ncollector False True\n"


def test_main_leaves_the_collector_as_it_is(samples):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        for collector_on in (True, False):
            (gc.enable if collector_on else gc.disable)()
            spec, trace = str(samples / "toggler.tstd"), str(samples / "empty4.trc")
            assert run_cli("simulate", spec, trace).code == 0
            assert run_cli("simulate", spec).code == 2
            assert gc.isenabled() is collector_on
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if enabled else gc.disable)()


# Runs main with the collector off, as run does, and prints its exit code and
# what a final collection finds: the cyclic garbage the command left.
_GARBAGE_AFTER = """
import gc, sys
gc.disable()
from tstd.cli import main
code = main(sys.argv[1:])
print(code, gc.collect(), file=sys.stderr)
"""

# Each command's cyclic garbage is a few hundred objects (argparse, imports,
# generated code), whatever the input size, which is what makes running
# with the collector off safe.
GARBAGE_BUDGET = 500


def _garbage_after(argv, code):
    done = _python(["-c", _GARBAGE_AFTER, *argv], stdout=subprocess.DEVNULL)
    got, garbage = map(int, done.stderr.decode().splitlines()[-1].split())
    assert got == code, done.stderr
    return garbage


def _gen_trace(path, channel, ticks):
    done = _python(["-m", "tstd", "gen-trace", "--channels", channel, "--ticks", str(ticks)])
    path.write_bytes(done.stdout)
    return str(path)


def _sized_command(case, size, tmp_path):
    """The command of a garbage case on an input of ``size``."""
    trace = tmp_path / f"{size}.trc"
    if case == "simulate":
        return ["simulate", "watchdog.tstd", _gen_trace(trace, "in", size)]
    if case == "causality":
        return ["check", "causality", "toggler.tstd", "--trials", str(size)]
    if case == "compose":
        return ["compose", "feedback.tnet", _gen_trace(trace, "src", size)]
    # A trace full of integers too long to convert: a parse error per line.
    digits = "7" * (sys.get_int_max_str_digits() + 100)
    trace.write_text("ticks in\n" + f"in: a:{digits}\n" * size)
    return ["simulate", "watchdog.tstd", str(trace)]


@pytest.mark.parametrize(
    "case, small, large, code",
    [
        ("simulate", 2000, 8000, 0),
        ("causality", 100, 2000, 0),
        ("compose", 150, 600, 0),
        ("long integers", 100, 400, 2),
    ],
)
def test_cyclic_garbage_does_not_grow_with_input_size(case, small, large, code, tmp_path):
    before, after = (
        _garbage_after(_sized_command(case, size, tmp_path), code) for size in (small, large)
    )
    assert after <= GARBAGE_BUDGET
    assert after <= before + before // 4


class _FullStream(io.StringIO):
    """A text stream whose every write fails, like stdout on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_failed_stdout_write_exits_3(samples):
    err = io.StringIO()
    with redirect_stdout(_FullStream()), redirect_stderr(err):
        code = cli.main(["validate", str(samples / "watchdog.tstd")])
    assert code == cli.IO_ERROR
    assert err.getvalue() == "cannot write to stdout: [Errno 28] No space left on device\n"


def _assert_one_stdout_failure(done):
    assert done.returncode == cli.IO_ERROR
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("cannot write to stdout: [Errno ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "watchdog.tstd"],
        ["simulate", "toggler.tstd", "empty4.trc"],
        ["gen-trace", "--channels", "a", "--ticks", "20000"],
        # argparse's own writer would drop the error of an unbuffered write.
        ["--help"],
        ["simulate", "--help"],
    ],
    ids=" ".join,
)
def test_full_disk_on_stdout_exits_3(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        done = _python(["-m", "tstd", *argv], stdout=full, unbuffered=unbuffered)
    _assert_one_stdout_failure(done)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "watchdog.tstd"], ["gen-trace", "--channels", "a", "--ticks", "20000"]],
    ids=" ".join,
)
def test_closed_pipe_on_stdout_exits_3(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python(["-m", "tstd", *argv], stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    _assert_one_stdout_failure(done)
    assert "Broken pipe" in done.stderr.decode()


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [["causality", "toggler.tstd"], ["untimed-sim", "toggler.tstd", "toggler.ttab"]],
    ids=" ".join,
)
def test_horizon_too_large_exits_2_at_once(argv):
    # Capped and timed out, so that a regression fails here instead of
    # filling memory.
    done = subprocess.run(
        [sys.executable, "-m", "tstd", "check", *argv, "--horizon", str(10**20)],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=SAMPLES, timeout=10, preexec_fn=_cap_address_space,
    )
    assert done.returncode == cli.USAGE
    assert done.stdout == b""
    assert done.stderr.decode() == f"result too large: more than {sys.maxsize} ticks\n"


def test_gen_trace_of_an_interval_no_list_holds_exits_2_at_once():
    # The first draw's length is about 10**12 messages: the drawer refuses it
    # before drawing them, capped and timed out as above.
    done = subprocess.run(
        [sys.executable, "-m", "tstd", "gen-trace", "--channels", "a", "--ticks", "1",
         "--max-len", str(10**12)],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=SAMPLES, timeout=10, preexec_fn=_cap_address_space,
    )
    assert done.returncode == cli.USAGE
    assert done.stdout == b""
    assert done.stderr.decode() == "result too large: not enough memory\n"


def _cap_child():
    """The address-space cap above, and three seconds of CPU: a command
    that fills the cap before it refuses takes longer."""
    import resource

    _cap_address_space()
    resource.setrlimit(resource.RLIMIT_CPU, (3, 3))


def _leaf_commands(table=cli._COMMANDS, words=()):
    """``(words, positionals, options)`` of each command that runs."""
    for name, (_, *entry) in table.items():
        if isinstance(entry[0], str):  # the name its subcommand is stored under
            yield from _leaf_commands(entry[1], (*words, name))
        else:
            yield (*words, name), entry[1], entry[2]


# Each integer option's values: small, negative, not a number, or above
# sys.maxsize.  --trials takes no value above sys.maxsize: the trial count
# has no budget, so such a check runs for as long as it is let.
_INTEGERS = ("0", "1", "3", "-1", "-7", "x", "1.5", "", str(sys.maxsize + 1))
_LISTS = ("a", "a,b", "", "a,a", "b,c,9", "-")
_SYSTEMS = (".tstd", ".ttab", ".tnet")


def _fuzz_argv(rng, tmp_path):
    words, positionals, options = rng.choice(list(_leaf_commands()))
    argv = list(words)
    for name in positionals:
        # Mostly a sample of the kind the positional names, else any file.
        suffixes = (".trc",) if "trace" in name else (".tnet",) if name == "network" else _SYSTEMS
        files = sorted(p.name for p in SAMPLES.iterdir())
        if rng.random() < 0.8:
            files = [f for f in files if f.endswith(suffixes)]
        argv.append(rng.choice(files + ["missing.trc", str(tmp_path)]))
    for flag, spec in options.items():
        if not spec.get("required") and rng.random() < 0.5:
            continue
        if spec.get("action") == "store_true":
            argv.append(flag)
            continue
        if "choices" in spec:
            value = rng.choice((*spec["choices"], "bogus"))
        elif "type" in spec:
            value = rng.choice(_INTEGERS[:-1] if flag == "--trials" else _INTEGERS)
        elif spec.get("metavar") == "PATH":  # never a sample file
            value = str(rng.choice((tmp_path / "out.trc", tmp_path, tmp_path / "no" / "out")))
        else:
            value = rng.choice(_LISTS)
        argv += [flag, value]
    if len(argv) > len(words) and rng.random() < 0.2:
        del argv[rng.randrange(len(words), len(argv))]
    return argv


# Counts that no result can hold: each must exit 2 at once, not when
# memory runs out.
_HOSTILE = [
    ["gen-trace", "--channels", "a", "--ticks", "1", "--max-len", str(10**12)],
    ["stream", "split", "-n", str(10**12), "feedback_in.trc"],
    ["stream", "delay", "-d", str(10**12), "feedback_in.trc"],
    ["stream", "join", "--pad", "-n", str(10**12), "feedback_in.trc"],
    ["check", "causality", "toggler.tstd", "--horizon", str(10**20)],
]


def test_the_cli_finishes_on_fuzzed_arguments(tmp_path):
    # Seeded argv from the command table over the sample files, then the
    # hostile counts; each child is capped and timed out, so that a
    # regression fails here instead of filling memory.
    rng = Random(0)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in [_fuzz_argv(rng, tmp_path) for _ in range(40)] + _HOSTILE:
        done = subprocess.run(
            [sys.executable, "-m", "tstd", *argv], capture_output=True, env=env,
            cwd=SAMPLES, timeout=10, preexec_fn=_cap_child,
        )
        err = done.stderr.decode()
        assert done.returncode in (cli.OK, cli.REFUTED, cli.USAGE, cli.IO_ERROR), (argv, err)
        assert "Traceback" not in err, argv
        if done.returncode != cli.OK:
            # A refutation is a verdict on stdout; every other exit says why.
            assert err or (done.returncode == cli.REFUTED and done.stdout), argv
