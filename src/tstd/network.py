"""Synchronous composition of components into a wired network.

Components run in lockstep, one tick at a time.  Within a tick, values flow
along wires instantly, so feedback is only meaningful when every loop is cut
by a port that its instance fixes from state, before reading its inputs: a
delay's output, or a machine's channel that :mod:`tstd.analysis`'s causality
rule finds fixed (all of a strongly causal machine's, some of a weak one's).
That condition is what :func:`check_feedback_wellformed` enforces, and it is
exactly what makes the per-tick evaluation order (a topological sort of
same-tick dependencies) exist.

A network is a machine too: it compiles once (:func:`_compile`), with its
externs as its channels, into the tick loop that a lone component compiles
into as well, :class:`tstd.streams._CompiledSystem`, which
:func:`run_network` runs once and a seeded check of :mod:`tstd.checks` as
often as it needs.  Every port becomes a local variable and every instance
the same two statements: an emit, which writes its fixed ports, and a fire,
which reads its inputs, writes its other ports and updates its state (for a
machine, its tick from :func:`tstd.executor._machine_part`, inlined under
its own names).  Each tick runs every emit, then the fires in that
evaluation order, and appends each external output to a column of its own.

Built-ins: ``delay(d)`` has ports ``in``/``out`` and emits at tick t what it
absorbed at tick t-d (empty while t < d); ``merge`` has ports ``in1``,
``in2``, ``out`` and concatenates its two inputs, left first.

Network text (``*.tnet``), read by :func:`parse_network`, UTF-8 with LF
endings and ``#`` comments like the other formats::

    use ID = file PATH | delay D | merge
    wire A.out -> B.in
    wire extern NAME -> B.in
    wire A.out -> extern NAME

A ``use`` line's file follows the file-name rule of every command: a name
ending in ``.tnet`` is a network, which a ``use`` line refuses; one ending in
``.ttab`` a table (:mod:`tstd.table_format`); any other component text
(:mod:`tstd.dsl`).
"""

from __future__ import annotations

import enum
import re
from collections import deque
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ._value import _tuple, value
from .streams import (
    _IDENT,
    _INT_RE,
    IDENT_RE,
    ChannelMismatchError,
    ParseFailure,
    Trace,
    _CompiledSystem,
    _int,
    _Issues,
    _logical_lines,
    _run_kernel,
    _trace,
)

if TYPE_CHECKING:
    from .model import ComponentSpec

__all__ = [
    "ChannelSetError",
    "ExternalPort",
    "FeedbackCheck",
    "IllFormedNetworkError",
    "Instance",
    "InstanceKind",
    "Network",
    "NetworkBuildError",
    "Port",
    "Wire",
    "build_network",
    "check_feedback_wellformed",
    "instantaneous_dependency_graph",
    "parse_network",
    "run_network",
]

DELAY_IN = "in"
DELAY_OUT = "out"
MERGE_LEFT = "in1"
MERGE_RIGHT = "in2"
MERGE_OUT = "out"


class NetworkBuildError(ValueError):
    """Raised by build_network; carries every wiring violation found.

    ``locations[i]`` is ``("wire", k)`` or ``("instance", k)`` for a problem
    at the k-th (0-based) wire or instance, None for the external port lists.
    """

    def __init__(self, problems: Sequence[str], locations: Sequence[Optional[Tuple[str, int]]]):
        self.problems = list(problems)
        self.locations = list(locations)
        super().__init__("; ".join(self.problems))


class ChannelSetError(ChannelMismatchError):
    """External input trace channels do not match the network boundary."""

    def __init__(self, expected: Tuple[str, ...], got: Tuple[str, ...]):
        super().__init__(
            f"external inputs {sorted(got)} do not match network inputs {sorted(expected)}"
        )
        self.expected = expected
        self.got = got


class IllFormedNetworkError(ValueError):
    """Raised when running a network whose instantaneous dependencies cycle."""


class InstanceKind(enum.Enum):
    SPEC = "spec"
    DELAY = "delay"
    MERGE = "merge"


@value
class Instance:
    """One component occurrence in a network, under a unique id."""

    id: str
    kind: InstanceKind
    spec: Optional[ComponentSpec] = None
    delay: int = 0

    @classmethod
    def of_spec(cls, id: str, spec: ComponentSpec) -> "Instance":
        return cls(id, InstanceKind.SPEC, spec=spec)

    @classmethod
    def of_delay(cls, id: str, delay: int) -> "Instance":
        return cls(id, InstanceKind.DELAY, delay=delay)

    @classmethod
    def of_merge(cls, id: str) -> "Instance":
        return cls(id, InstanceKind.MERGE)

    def in_ports(self) -> Tuple[str, ...]:
        if self.kind is InstanceKind.SPEC:
            return self.spec.in_channels()
        if self.kind is InstanceKind.DELAY:
            return (DELAY_IN,)
        return (MERGE_LEFT, MERGE_RIGHT)

    def out_ports(self) -> Tuple[str, ...]:
        if self.kind is InstanceKind.SPEC:
            return self.spec.out_channels()
        if self.kind is InstanceKind.DELAY:
            return (DELAY_OUT,)
        return (MERGE_OUT,)


@value
class Port:
    """An endpoint on a component instance."""

    instance: str
    port: str

    def path(self) -> str:
        return f"{self.instance}.{self.port}"


@value
class ExternalPort:
    """An endpoint on the network boundary."""

    name: str

    def path(self) -> str:
        return f"extern {self.name}"


Endpoint = Union[Port, ExternalPort]


@value
class Wire:
    source: Endpoint
    target: Endpoint


@value
class Network:
    instances: Tuple[Instance, ...]
    wires: Tuple[Wire, ...]
    external_in: Tuple[str, ...]
    external_out: Tuple[str, ...]


def build_network(
    instances: Sequence[Instance],
    wires: Sequence[Wire],
    external_in: Sequence[str],
    external_out: Sequence[str],
) -> Network:
    """Validate wiring and assemble a network.

    Every instance input port and every external output must be driven by
    exactly one wire; sources may fan out freely.  All violations are
    collected, each located at a wire or an instance where it has one, and
    raised together as a :class:`NetworkBuildError`.
    """
    problems: List[str] = []
    locations: List[Optional[Tuple[str, int]]] = []

    def problem(message: str, where: Optional[Tuple[str, int]] = None) -> None:
        problems.append(message)
        locations.append(where)

    by_id: Dict[str, Instance] = {}
    for i, inst in enumerate(instances):
        if inst.id in by_id:
            problem(f"duplicate instance id '{inst.id}'", ("instance", i))
        by_id[inst.id] = inst
        if inst.kind is InstanceKind.DELAY and inst.delay < 1:
            problem(f"instance '{inst.id}': delay must be at least 1", ("instance", i))
        if inst.kind is InstanceKind.SPEC and inst.spec is None:
            problem(f"instance '{inst.id}': missing spec", ("instance", i))

    ext_in = list(external_in)
    ext_out = list(external_out)
    for role, names in (("input", ext_in), ("output", ext_out)):
        for i, name in enumerate(names):
            if name in names[:i]:
                problem(f"duplicate external {role} '{name}'")

    def check_endpoint(ep: Endpoint, as_source: bool, where: Tuple[str, int]) -> None:
        if isinstance(ep, ExternalPort):
            pool = ext_in if as_source else ext_out
            role = "input" if as_source else "output"
            if ep.name not in pool:
                problem(f"unknown external {role} '{ep.name}'", where)
            return
        inst = by_id.get(ep.instance)
        if inst is None:
            problem(f"wire references unknown instance '{ep.instance}'", where)
            return
        ports = inst.out_ports() if as_source else inst.in_ports()
        role = "output" if as_source else "input"
        if ep.port not in ports:
            problem(f"'{ep.path()}' is not an {role} port", where)

    for i, wire in enumerate(wires):
        check_endpoint(wire.source, True, ("wire", i))
        check_endpoint(wire.target, False, ("wire", i))

    if not problems:
        # The indices of the wires driving each path; a path with several
        # drivers is reported at its second one.
        drivers: Dict[str, List[int]] = {}
        for i, wire in enumerate(wires):
            drivers.setdefault(wire.target.path(), []).append(i)

        def check_driven(path: str, what: str, undriven_at: Optional[Tuple[str, int]]) -> None:
            found = drivers.get(path, [])
            if not found:
                problem(f"{what} is not driven", undriven_at)
            elif len(found) > 1:
                problem(
                    f"{what} is driven by {len(found)} wires (already driven by an earlier one)",
                    ("wire", found[1]),
                )

        for i, inst in enumerate(instances):
            for port in inst.in_ports():
                path = f"{inst.id}.{port}"
                check_driven(path, f"input port '{path}'", ("instance", i))
        for name in ext_out:
            check_driven(f"extern {name}", f"external output '{name}'", None)

    if problems:
        raise NetworkBuildError(problems, locations)
    return Network(tuple(instances), tuple(wires), tuple(ext_in), tuple(ext_out))


def _fixed_ports(inst: Instance, strong: Dict[ComponentSpec, Mapping]) -> Tuple[str, ...]:
    """The output ports ``inst`` writes from state before it reads: a delay's
    ``out``, a machine's channels that ``analysis._strong_outputs`` fixes.
    ``strong`` keeps that rule's answer for each distinct spec."""
    if inst.kind is InstanceKind.SPEC:
        if inst.spec not in strong:
            from .analysis import _strong_outputs

            strong[inst.spec] = _strong_outputs(inst.spec)
        return tuple(ch for ch in inst.out_ports() if strong[inst.spec][ch] is not None)
    return (DELAY_OUT,) if inst.kind is InstanceKind.DELAY else ()


def instantaneous_dependency_graph(net: Network) -> Dict[str, Tuple[str, ...]]:
    """Same-tick data dependencies between instances, as an adjacency map.

    An edge A -> B exists when a wire feeds B a port of A that A does not
    fix (:func:`_fixed_ports`): A writes that port only once it has read its
    own inputs.  Fixed ports are written before anything reads, so a wire
    from one makes no edge; that is how a delay or a machine cuts a loop.
    """
    return _dependency_graph(net, {})


def _dependency_graph(
    net: Network, strong: Dict[ComponentSpec, Mapping]
) -> Dict[str, Tuple[str, ...]]:
    fixed = {inst.id: _fixed_ports(inst, strong) for inst in net.instances}
    edges: Dict[str, set] = {inst.id: set() for inst in net.instances}
    for wire in net.wires:
        source, target = wire.source, wire.target
        if isinstance(source, Port) and isinstance(target, Port):
            if source.port not in fixed[source.instance]:
                edges[source.instance].add(target.instance)
    return {iid: tuple(sorted(succs)) for iid, succs in sorted(edges.items())}


@value
class FeedbackCheck:
    well_formed: bool
    cycle: Tuple[str, ...] = ()


def _toposort(graph: Dict[str, Tuple[str, ...]]) -> Tuple[bool, List[str], Tuple[str, ...]]:
    """(acyclic?, evaluation order, cycle witness) for an adjacency map."""
    sorter: TopologicalSorter = TopologicalSorter()
    for node in sorted(graph):
        sorter.add(node)
    for node in sorted(graph):
        for succ in graph[node]:
            sorter.add(succ, node)
    try:
        order = list(sorter.static_order())
    except CycleError:
        return False, [], _cycle_witness(graph)
    return True, order, ()


def _cycle_witness(graph: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
    """The shortest cycle through the first node, in sorted order, that lies
    on a cycle, found breadth first along the sorted successors; () when
    there is none.  Edges that lie on no cycle cannot change it."""
    for start in sorted(graph):
        seen, paths = {start}, deque([(start,)])
        while paths:
            path = paths.popleft()
            for succ in graph[path[-1]]:
                if succ == start:
                    return path
                if succ not in seen:
                    seen.add(succ)
                    paths.append(path + (succ,))
    return ()


def check_feedback_wellformed(net: Network) -> FeedbackCheck:
    """Acyclicity of the instantaneous dependency graph.

    Equivalently: every feedback loop passes through at least one port that
    its instance fixes from state.  An offending cycle is reported by
    instance id: the shortest through the first id, in sorted order, that
    lies on a cycle.
    """
    ok, _, cycle = _toposort(instantaneous_dependency_graph(net))
    return FeedbackCheck(well_formed=ok, cycle=cycle)


def _compile(net: Network) -> _CompiledSystem:
    """``net`` compiled once: its channels are its externs, and its
    configuration has a part per machine (``executor._machine_part``) and
    per delay, in topological order.  Compiling refuses an ill-formed
    network, and a spec with errors with the ValueError of ``tstd.executor``.

    The kernel unpacks each delay's buffer into a deque.  An instance's emit
    is a delay's ``popleft``, nothing for a merge, or for a machine a row of
    its emit table, built here from the causality rule's answer that the
    graph already read: per state, the intervals the state fixes on the
    instance's fixed ports.  Its fire is a delay's ``append``, the merge's
    ``+`` or the machine's tick, over the instance's own names and port
    variables, which writes only the ports the emit did not.  Every emit
    runs first, then the fires in topological order of
    :func:`instantaneous_dependency_graph`, so well-formed feedback resolves
    in one pass.  Each external output's interval goes to its ``o<k>``.
    """
    # The causality rule's answer for each distinct spec, shared by the
    # graph and the kernel.
    strong: Dict[ComponentSpec, Mapping] = {}
    ok, order, cycle = _toposort(_dependency_graph(net, strong))
    if not ok:
        raise IllFormedNetworkError(
            "network has an instantaneous feedback cycle: " + " -> ".join(cycle)
        )
    if strong:  # else no machine: check feedback and built-ins run none
        from .executor import _machine_part, _refuse_errors

        for spec in strong:
            _refuse_errors(spec)
    # One local variable per external input and per instance output port;
    # the names, like every other name of the loop, are made here or by
    # _machine_part, each value (emit rows, a spec's constants) goes in by
    # namespace.
    var_of: Dict[Endpoint, str] = {
        ExternalPort(name): f"x{i}" for i, name in enumerate(net.external_in)
    }
    for inst in net.instances:
        for port in inst.out_ports():
            var_of[Port(inst.id, port)] = f"x{len(var_of)}"
    fed_by = {wire.target: var_of[wire.source] for wire in net.wires}

    instances = {inst.id: inst for inst in net.instances}
    namespace: Dict[str, object] = {"deque": deque}
    parts, emit, fire = [], [], []
    for n, iid in enumerate(order):
        inst = instances[iid]
        ins = [fed_by[Port(iid, port)] for port in inst.in_ports()]
        fixed = _fixed_ports(inst, strong)
        # The emit writes the fixed ports; the fire fills the template of
        # each other port and drops (None) the fixed ones.
        outs = [(var_of[Port(iid, p)], p in fixed) for p in inst.out_ports()]
        emitted = [var for var, is_fixed in outs if is_fixed]
        fired = [None if is_fixed else var + " = {}" for var, is_fixed in outs]
        if inst.kind is InstanceKind.DELAY:
            parts.append((f"b{n} = deque({{}})", f"tuple(b{n})", inst.delay))
            emit.append(f"{emitted[0]} = b{n}.popleft()")
            fire.append(f"b{n}.append({ins[0]})")
        elif inst.kind is InstanceKind.MERGE:
            fire.append(fired[0].format(f"{ins[0]} + {ins[1]}"))
        else:
            if fixed:
                # Row s holds what state s emits on the fixed ports, in order.
                namespace[f"E{n}"] = tuple(zip(*(strong[inst.spec][p] for p in fixed)))
                emit.append(f"{_tuple(emitted)} = E{n}[s{n}]")
            part, tick = _machine_part(inst.spec, namespace, n, ins, fired)
            parts.append(part)
            fire += tick
    collect = [f"o{k}({fed_by[ExternalPort(name)]})" for k, name in enumerate(net.external_out)]
    row = [var_of[ExternalPort(name)] for name in net.external_in]
    return _CompiledSystem(
        net.external_in, net.external_out, row, parts, emit + fire + collect, namespace
    )


def run_network(net: Network, external_inputs: Trace, ticks: int) -> Trace:
    """Drive all instances for ``ticks`` steps and collect the boundary output:
    compile ``net`` (:func:`_compile`), check that the input trace carries
    exactly its external inputs, and run it once."""
    network = _compile(net)
    if set(external_inputs.channels) != set(net.external_in):
        raise ChannelSetError(net.external_in, tuple(external_inputs.channels))
    if net.external_in and external_inputs.length != ticks:
        raise ValueError(
            f"external input trace has {external_inputs.length} ticks, expected {ticks}"
        )
    columns = [external_inputs.channels[name].intervals for name in net.external_in]
    return _trace(net.external_out, _run_kernel(network, columns, ticks)[0], ticks)


# --------------------------------------------------------------------------
# The network text format


_ENDPOINT_RE = re.compile(rf"(?:extern\s+({_IDENT})|({_IDENT})\.({_IDENT}))\Z")


def parse_network(
    text: str,
    base_dir: str | Path = ".",
    loader: Optional[Callable[[Path], ComponentSpec]] = None,
    warnings: Optional[_Issues] = None,
) -> Network:
    """Parse a network wiring file; referenced component files are loaded
    relative to ``base_dir`` (by :func:`tstd.dsl._spec_parser`'s rule: a name
    ending in ``.ttab`` is a table) and their parse and ``validate_spec``
    errors reported at the ``use`` line, as is a network file named there;
    their warnings go to ``warnings``, if given, at their first ``use`` line.
    """
    issues = _Issues()
    load = loader or _load_spec
    base = Path(base_dir)
    instances: List[Instance] = []
    wires: List[Wire] = []
    external_in: List[str] = []
    external_out: List[str] = []
    # Source line of each instance and wire, keyed as NetworkBuildError.locations.
    lines: Dict[str, List[int]] = {"instance": [], "wire": []}
    loaded: Dict[Path, object] = {}

    for lineno, content in _logical_lines(text):
        stripped = content.strip()
        if not stripped:
            continue
        keyword, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if keyword == "use":
            name, eq, what = (p.strip() for p in rest.partition("="))
            if not IDENT_RE.match(name) or eq != "=":
                issues.add(lineno, 1, "expected 'use ID = file PATH | delay D | merge'")
                continue
            kind, _, arg = what.partition(" ")
            arg = arg.strip()
            inst: Optional[Instance] = None
            if kind == "file":
                if not arg:
                    issues.add(lineno, 1, "expected a file path after 'file'")
                elif arg.endswith(".tnet"):
                    issues.add(lineno, 1, f"network file {arg!r} cannot be used as a component")
                else:
                    inst = _load_instance(name, base, arg, load, lineno, issues, loaded, warnings)
            elif kind == "delay":
                if not _INT_RE.match(arg):
                    issues.add(lineno, 1, "delay depth must be an integer >= 1")
                else:
                    with issues.located(lineno):
                        inst = Instance.of_delay(name, _int(arg))
            elif kind == "merge":
                if arg:
                    issues.add(lineno, 1, "'merge' takes no argument")
                else:
                    inst = Instance.of_merge(name)
            else:
                issues.add(lineno, 1, f"unknown instance kind {kind!r}")
            if inst is not None:
                instances.append(inst)
                lines["instance"].append(lineno)
        elif keyword == "wire":
            src_raw, arrow, dst_raw = rest.partition("->")
            if arrow != "->":
                issues.add(lineno, 1, "expected 'wire SRC -> DST'")
                continue
            src = _parse_endpoint(lineno, src_raw, external_in, issues)
            dst = _parse_endpoint(lineno, dst_raw, external_out, issues)
            if src is not None and dst is not None:
                wires.append(Wire(src, dst))
                lines["wire"].append(lineno)
        else:
            issues.add(lineno, 1, f"unknown directive {keyword!r}")

    issues.raise_if_any()
    try:
        return build_network(instances, wires, external_in, external_out)
    except NetworkBuildError as exc:
        for problem, where in zip(exc.problems, exc.locations):
            issues.add(lines[where[0]][where[1]] if where else 1, 1, problem)
        raise ParseFailure(issues.items) from exc


def _parse_endpoint(
    lineno: int, raw: str, externals: List[str], issues: _Issues
) -> Optional[Endpoint]:
    """``extern NAME`` (recorded in ``externals``) or ``ID.PORT``; None if malformed."""
    m = _ENDPOINT_RE.match(raw.strip())
    if not m:
        issues.add(lineno, 1, f"malformed endpoint {raw.strip()!r}")
        return None
    if m.group(1):
        if m.group(1) not in externals:
            externals.append(m.group(1))
        return ExternalPort(m.group(1))
    return Port(m.group(2), m.group(3))


def _load_spec(path: Path) -> ComponentSpec:
    """The component at ``path``, read by :func:`tstd.dsl._spec_parser`'s rule.
    The spec modules are imported here, so a network of built-ins only
    loads none of them."""
    from .dsl import _spec_parser

    return _spec_parser(path.name)(path.read_text("utf-8", "replace"))


def _load_instance(
    name: str,
    base: Path,
    arg: str,
    load: Callable[[Path], ComponentSpec],
    lineno: int,
    issues: _Issues,
    loaded: Dict[Path, object],
    warnings: Optional[_Issues],
) -> Optional[Instance]:
    """The instance of ``use name = file arg``, or None with its problems
    reported at ``lineno``.  ``loaded`` keeps each path's load and validation
    outcome, so a file that several ``use`` lines name is loaded once."""
    path = base / arg
    outcome = loaded.get(path)
    if outcome is None:
        try:
            spec = load(path)
        except (OSError, ValueError) as exc:
            outcome = exc
        else:
            from .model import _errors

            outcome = (spec, _errors(spec))
            if warnings is not None and not outcome[1]:
                from .analysis import validate_spec

                for finding in validate_spec(spec):
                    warnings.add(lineno, 1, f"in {arg!r}: {finding.message}")
        loaded[path] = outcome
    if isinstance(outcome, FileNotFoundError):
        issues.add(lineno, 1, f"component file not found: {arg!r}")
    elif isinstance(outcome, OSError):
        issues.add(lineno, 1, f"cannot read component file {arg!r}: {outcome.strerror or outcome}")
    elif isinstance(outcome, ParseFailure):
        for issue in outcome.issues:
            issues.add(lineno, 1, f"in {arg!r} at {issue.span.render()}: {issue.message}")
    elif isinstance(outcome, ValueError):
        issues.add(lineno, 1, f"cannot load component file {arg!r}: {outcome}")
    else:
        spec, errors = outcome
        for finding in errors:
            issues.add(lineno, 1, f"in {arg!r}: {finding.message}")
        return None if errors else Instance.of_spec(name, spec)
    return None
