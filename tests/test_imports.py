"""The import graph: each CLI command loads only the modules it runs, and
the package's public names resolve on first use."""

import ast
import importlib
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
    "classify_causality_syntactic", "delay_stream", "export_dot",
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


SUBMODULES = sorted(
    p.stem for p in (ROOT / "src" / "tstd").glob("*.py") if p.stem not in ("__init__", "__main__")
)


def _defined_names(module):
    """The names that the top level of ``module``'s source binds itself."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stored = (n for n in ast.walk(node) if isinstance(n, ast.Name))
            names.update(n.id for n in stored if isinstance(n.ctx, ast.Store))
    return names


def test_each_name_has_one_home():
    """A submodule lists only names its source defines and resolves none
    from another module; ``tstd.gen.random_spec`` is the one kept alias."""
    modules = {name: importlib.import_module(f"tstd.{name}") for name in SUBMODULES}
    for name, module in modules.items():
        listed = set(getattr(module, "__all__", ()))
        assert listed - _defined_names(module) == ({"random_spec"} if name == "gen" else set())
    candidates = set(tstd.__all__).union(*map(vars, modules.values()))
    resolved = {
        (name, attr)
        for name, module in modules.items()
        for attr in candidates
        if not attr.startswith("__") and attr not in vars(module) and hasattr(module, attr)
    }
    assert resolved == {("gen", "random_spec")}
    # What the benchmark imports from where it imported it before.
    from tstd.executor import Trace
    from tstd.gen import random_spec

    assert (Trace, random_spec) == (tstd.streams.Trace, tstd.random_specs.random_spec)


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
