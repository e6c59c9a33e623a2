"""Discrete-time specification toolkit.

Timed message streams with granularity operators, timed state transition
diagrams with per-tick execution and causality checks, and synchronous
composition of component networks, plus text formats for all of it.
"""

from .streams import (
    InvalidGranularityError,
    LengthMismatchError,
    Message,
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    delay_stream,
    interval,
    join,
    message_count,
    split,
    timed_merge,
    untimed_abstraction,
)
from .model import (
    CausalityClass,
    ChannelDecl,
    ComponentSpec,
    Direction,
    Finding,
    IntervalGuard,
    IntervalPattern,
    OutputAction,
    Relation,
    Severity,
    Transition,
    VarDecl,
    VarGuard,
    VarUpdate,
    classify_causality_syntactic,
    enabled_transitions,
    validate_spec,
)
from .executor import (
    ChannelMismatchError,
    Configuration,
    Trace,
    check_untimed_simulation,
    probe_causality,
    run,
    step,
)
from .network import (
    ChannelSetError,
    FeedbackCheck,
    IllFormedNetworkError,
    Instance,
    Network,
    NetworkBuildError,
    Wire,
    build_network,
    check_feedback_wellformed,
    instantaneous_dependency_graph,
    run_network,
)
from .dsl import (
    ParseFailure,
    export_dot,
    parse_component,
    parse_network,
    parse_table,
    parse_trace,
    print_component,
    print_table,
    print_trace,
)

__version__ = "0.1.0"
