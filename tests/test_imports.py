"""The import graph: each CLI command loads only the modules it runs, and
the package's public names resolve on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tstd

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CausalityClass", "ChannelDecl", "ChannelMismatchError", "ChannelSetError",
    "ComponentSpec", "Configuration", "Direction", "FeedbackCheck", "Finding",
    "IllFormedNetworkError", "Instance", "IntervalGuard", "IntervalPattern",
    "InvalidGranularityError", "LengthMismatchError", "Message", "Network",
    "NetworkBuildError", "NonAlignedPrefixError", "OutputAction", "ParseFailure",
    "Relation", "Severity", "SplitStrategy", "StreamPrefix", "Trace", "Transition",
    "VarDecl", "VarGuard", "VarUpdate", "Wire", "build_network",
    "check_feedback_wellformed", "check_untimed_simulation",
    "classify_causality_syntactic", "delay_stream", "enabled_transitions", "export_dot",
    "instantaneous_dependency_graph", "interval", "join", "message_count",
    "parse_component", "parse_network", "parse_table", "parse_trace", "print_component",
    "print_table", "print_trace", "probe_causality", "run", "run_network", "split",
    "step", "timed_merge", "untimed_abstraction", "validate_spec",
]

# Runs one command in a fresh interpreter without site packages and prints
# its exit code and every module loaded by then.
_RUN_COMMAND = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, {src!r})
from tstd.cli import main
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules_after(*argv):
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_COMMAND.format(src=str(ROOT / "src")), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT / "samples",
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, set(modules)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "watchdog.tstd"], 0),
        (["simulate", "watchdog.tstd", "empty4.trc"], 0),
        (["stream", "split", "empty4.trc", "-n", "3"], 0),
        (["check", "causality", "watchdog.tstd", "--trials", "5"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_command_skips_network_and_dataclasses(argv, code):
    got, modules = _modules_after(*argv)
    assert got == code
    assert "tstd.network" not in modules
    assert "dataclasses" not in modules
    assert ("tstd.gen" in modules) == (argv[0] == "check")
    # A .tstd spec needs no table code, and the spec commands no trace handlers.
    assert "tstd.table_format" not in modules
    assert ("tstd.trace_commands" in modules) == (argv[0] == "stream")


def test_table_spec_loads_the_table_format():
    code, modules = _modules_after("validate", "watchdog.ttab")
    assert code == 0
    assert {"tstd.table_format", "tstd.dsl", "tstd.model"} <= modules
    assert not modules & {"tstd.executor", "tstd.network", "tstd.trace_commands"}


def test_network_commands_import_network():
    for argv in (["compose", "delay1.tnet", "empty4.trc"], ["check", "feedback", "feedback.tnet"]):
        code, modules = _modules_after(*argv)
        assert code == 0
        assert "tstd.network" in modules
        assert "dataclasses" not in modules
        # Their components are all .tstd files.
        assert not modules & {"tstd.table_format", "tstd.trace_commands"}
        # Only compose runs machines.
        assert ("tstd.executor" in modules) == (argv[0] == "compose")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "watchdog.tstd"], 0),
        (["simulate", "watchdog.tstd", "empty4.trc"], 0),
        (["compose", "delay1.tnet", "empty4.trc"], 0),
        (["check", "feedback", "feedback.tnet"], 0),
        (["check", "causality", "watchdog.tstd", "--trials", "5"], 1),
        (["check", "untimed-sim", "toggler.tstd", "toggler.ttab", "--trials", "5"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_only_the_seeded_checks_load_the_checks(argv, code):
    got, modules = _modules_after(*argv)
    assert got == code
    seeded = argv[:2] in (["check", "causality"], ["check", "untimed-sim"])
    assert ("tstd.checks" in modules) == seeded


SPEC_MACHINERY = {
    "tstd.dsl", "tstd.model", "tstd.executor", "tstd.checks", "tstd.network", "tstd.table_format"
}


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "split", "empty4.trc", "-n", "3"],
        ["stream", "split", "feedback_in.trc", "-n", "2", "--strategy", "spread"],
        ["stream", "join", "empty4.trc", "-n", "2"],
        ["stream", "join", "feedback_in.trc", "-n", "2", "--pad"],
        ["stream", "merge", "empty4.trc", "empty4.trc"],
        ["stream", "merge", "feedback_in.trc", "feedback_in.trc"],
        ["stream", "abstract", "empty4.trc"],
        ["stream", "abstract", "feedback_in.trc"],
        ["stream", "delay", "empty4.trc", "-d", "2"],
        ["stream", "delay", "feedback_in.trc", "-d", "0"],
        ["gen-trace", "--channels", "in", "--ticks", "0"],
    ],
    ids=" ".join,
)
def test_trace_commands_skip_the_spec_machinery(argv):
    code, modules = _modules_after(*argv)
    assert code == 0
    assert {"tstd.trace_format", "tstd.trace_commands"} <= modules
    assert not modules & SPEC_MACHINERY
    assert ("tstd.gen" in modules) == (argv[0] == "gen-trace")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "watchdog.tstd", "empty4.trc"], 0),
        (["compose", "delay1.tnet", "empty4.trc"], 0),
        (["check", "causality", "watchdog.tstd", "--trials", "5"], 1),
        (["check", "untimed-sim", "toggler.tstd", "toggler.ttab", "--trials", "5"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_spec_commands_skip_the_trace_handlers(argv, code):
    """They read traces through tstd.trace_format only, and the checks draw
    traces without compiling the random spec generator."""
    got, modules = _modules_after(*argv)
    assert got == code
    assert "tstd.trace_format" in modules
    assert "tstd.trace_commands" not in modules
    assert "tstd.random_specs" not in modules


@pytest.mark.parametrize("module", ["tstd", "tstd.cli"])
def test_entry_points_report_a_trace_command_failure(module):
    # The handler raises the _Failure of the imported tstd.cli, which the
    # script must catch also when tstd.cli itself runs as __main__.
    done = subprocess.run(
        [sys.executable, "-m", module, "stream", "join", "empty4.trc", "-n", "3"],
        capture_output=True,
        text=True,
        cwd=ROOT / "samples",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "prefix length 4 is not a multiple of 3 (use --pad to pad with empty ticks)\n"
    )


def test_validate_skips_the_executor():
    code, modules = _modules_after("validate", "watchdog.tstd")
    assert code == 0
    assert {"tstd.dsl", "tstd.model"} <= modules
    assert "tstd.executor" not in modules


def test_moved_names_keep_their_old_homes():
    import tstd.checks
    import tstd.dsl
    import tstd.executor
    import tstd.streams
    import tstd.trace_format as fmt

    assert tstd.streams.Trace is tstd.executor.Trace is tstd.Trace
    for name in (
        "CausalityProbeResult", "SimulationCheckResult", "check_untimed_simulation",
        "probe_causality",
    ):
        assert getattr(tstd.executor, name) is getattr(tstd.checks, name)
        assert name not in vars(tstd.executor)
    with pytest.raises(AttributeError, match="no_such_name"):
        tstd.executor.no_such_name
    assert tstd.dsl.parse_trace is tstd.parse_trace
    for name in (
        "ParseFailure", "ParseIssue", "SourceSpan", "parse_trace", "print_trace",
        "_Issues", "_LongInteger", "_MESSAGE_RE", "_int", "_logical_lines",
        "_parse_message", "_print_column", "_strip_comment",
    ):
        assert getattr(tstd.dsl, name) is getattr(fmt, name)


def test_public_names_are_unchanged():
    assert sorted(tstd.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(tstd))
    namespace = {}
    exec("from tstd import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_resolves_to_its_definition(name):
    obj = getattr(tstd, name)
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert obj.__module__.startswith("tstd.")


def test_submodules_are_attributes():
    assert tstd.network is sys.modules["tstd.network"]
    assert tstd.gen.random_trace is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tstd.no_such_name
    assert not hasattr(tstd, "dataclass")
    with pytest.raises(ImportError):
        exec("from tstd import no_such_name", {})
