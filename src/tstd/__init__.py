"""Discrete-time specification toolkit.

Timed message streams with granularity operators, timed state transition
diagrams with per-tick execution and causality checks, and synchronous
composition of component networks, plus text formats for all of it.

The public names below are imported from their modules on first use, so
``import tstd`` (and every ``python -m tstd`` command) loads only the modules
it needs.
"""

from importlib import import_module

_EXPORTS = {
    "streams": (
        "InvalidGranularityError",
        "LengthMismatchError",
        "Message",
        "NonAlignedPrefixError",
        "SplitStrategy",
        "StreamPrefix",
        "Trace",
        "delay_stream",
        "interval",
        "join",
        "message_count",
        "split",
        "timed_merge",
        "untimed_abstraction",
    ),
    "model": (
        "CausalityClass",
        "ChannelDecl",
        "ComponentSpec",
        "Direction",
        "Finding",
        "IntervalGuard",
        "IntervalPattern",
        "OutputAction",
        "Relation",
        "Severity",
        "Transition",
        "VarDecl",
        "VarGuard",
        "VarUpdate",
        "classify_causality_syntactic",
        "validate_spec",
    ),
    "executor": ("ChannelMismatchError", "Configuration", "run", "step"),
    "checks": ("check_untimed_simulation", "probe_causality"),
    "network": (
        "ChannelSetError",
        "FeedbackCheck",
        "IllFormedNetworkError",
        "Instance",
        "Network",
        "NetworkBuildError",
        "Wire",
        "build_network",
        "check_feedback_wellformed",
        "instantaneous_dependency_graph",
        "parse_network",
        "run_network",
    ),
    "trace_format": ("ParseFailure", "parse_trace", "print_trace"),
    "dsl": ("export_dot", "parse_component", "print_component"),
    "table_format": ("parse_table", "print_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "checks", "dsl", "executor", "gen", "model", "network", "streams", "table_format",
    "trace_format",
)

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on first access."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
