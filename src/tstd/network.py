"""Synchronous composition of components into a wired network.

Components run in lockstep, one tick at a time.  Within a tick, values flow
along wires instantly, so feedback is only meaningful when every loop is cut
by something whose current output ignores its current input: a delay element
or a strongly causal machine.  That condition is what
:func:`check_feedback_wellformed` enforces, and it is exactly what makes the
per-tick evaluation order (a topological sort of same-tick dependencies)
exist.

Built-ins: ``delay(d)`` has ports ``in``/``out`` and emits at tick t what it
absorbed at tick t-d (empty while t < d); ``merge`` has ports ``in1``,
``in2``, ``out`` and concatenates its two inputs, left first.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .executor import Configuration, Trace, step
from .model import (
    CausalityClass,
    ComponentSpec,
    classify_causality_syntactic,
    state_determined_output,
)
from .streams import StreamPrefix, TimeInterval

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


class ChannelSetError(ValueError):
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


@dataclass(frozen=True)
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


@dataclass(frozen=True, slots=True)
class Port:
    """An endpoint on a component instance."""

    instance: str
    port: str

    def path(self) -> str:
        return f"{self.instance}.{self.port}"


@dataclass(frozen=True, slots=True)
class ExternalPort:
    """An endpoint on the network boundary."""

    name: str

    def path(self) -> str:
        return f"extern {self.name}"


Endpoint = Union[Port, ExternalPort]


@dataclass(frozen=True, slots=True)
class Wire:
    source: Endpoint
    target: Endpoint


@dataclass(frozen=True)
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
    for name in ext_in:
        if ext_in.count(name) > 1:
            problem(f"duplicate external input '{name}'")
    for name in ext_out:
        if ext_out.count(name) > 1:
            problem(f"duplicate external output '{name}'")

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


def _is_instantaneous_sink(inst: Instance) -> bool:
    # Weak machines and merge read their current-tick inputs before emitting;
    # delays and strong machines emit from stored state alone.
    if inst.kind is InstanceKind.MERGE:
        return True
    if inst.kind is InstanceKind.DELAY:
        return False
    return classify_causality_syntactic(inst.spec) is CausalityClass.WEAK


def instantaneous_dependency_graph(net: Network) -> Dict[str, Tuple[str, ...]]:
    """Same-tick data dependencies between instances, as an adjacency map.

    An edge A -> B exists when a wire feeds an output of A into an input of B
    and B's tick-t output can depend on its tick-t input.  Instances whose
    output is determined before reading input (delays, strongly causal
    machines) never acquire incoming edges.
    """
    sinks = {inst.id: _is_instantaneous_sink(inst) for inst in net.instances}
    edges: Dict[str, set] = {inst.id: set() for inst in net.instances}
    for wire in net.wires:
        if isinstance(wire.source, Port) and isinstance(wire.target, Port):
            if sinks[wire.target.instance]:
                edges[wire.source.instance].add(wire.target.instance)
    return {iid: tuple(sorted(succs)) for iid, succs in sorted(edges.items())}


@dataclass(frozen=True)
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
    except CycleError as exc:
        cycle = list(exc.args[1])
        if len(cycle) > 1 and cycle[0] == cycle[-1]:
            cycle = cycle[:-1]
        return False, [], tuple(cycle)
    return True, order, ()


def check_feedback_wellformed(net: Network) -> FeedbackCheck:
    """Acyclicity of the instantaneous dependency graph.

    Equivalently: every feedback loop passes through at least one delay or
    strongly causal component.  An offending cycle is reported by instance id.
    """
    ok, _, cycle = _toposort(instantaneous_dependency_graph(net))
    return FeedbackCheck(well_formed=ok, cycle=cycle)


class _DelayState:
    def __init__(self, depth: int):
        self.buffer: deque = deque([()] * depth)

    def emit(self) -> TimeInterval:
        return self.buffer.popleft()

    def absorb(self, iv: TimeInterval) -> None:
        self.buffer.append(iv)


def run_network(net: Network, external_inputs: Trace, ticks: int) -> Trace:
    """Drive all instances for ``ticks`` steps and collect the boundary output.

    Refuses ill-formed networks.  Per tick, instances emit in topological
    order of the instantaneous dependency graph; delays and strongly causal
    machines emit from state first and absorb their inputs at the end of the
    tick, which is what lets well-formed feedback resolve without iteration.
    """
    graph = instantaneous_dependency_graph(net)
    ok, order, cycle = _toposort(graph)
    if not ok:
        raise IllFormedNetworkError(
            "network has an instantaneous feedback cycle: " + " -> ".join(cycle)
        )
    if set(external_inputs.channels) != set(net.external_in):
        raise ChannelSetError(net.external_in, tuple(external_inputs.channels))
    if net.external_in and external_inputs.length != ticks:
        raise ValueError(
            f"external input trace has {external_inputs.length} ticks, expected {ticks}"
        )

    instances = {inst.id: inst for inst in net.instances}
    strong = {
        inst.id
        for inst in net.instances
        if inst.kind is InstanceKind.SPEC and not _is_instantaneous_sink(inst)
    }
    cfgs: Dict[str, Configuration] = {
        inst.id: Configuration.initial(inst.spec)
        for inst in net.instances
        if inst.kind is InstanceKind.SPEC
    }
    delays: Dict[str, _DelayState] = {
        inst.id: _DelayState(inst.delay)
        for inst in net.instances
        if inst.kind is InstanceKind.DELAY
    }
    driver_of: Dict[Tuple[str, str], Endpoint] = {}
    ext_driver: Dict[str, Endpoint] = {}
    for wire in net.wires:
        if isinstance(wire.target, Port):
            driver_of[(wire.target.instance, wire.target.port)] = wire.source
        else:
            ext_driver[wire.target.name] = wire.source

    collected: Dict[str, List[TimeInterval]] = {name: [] for name in net.external_out}

    for t in range(ticks):
        values: Dict[Tuple[str, str], TimeInterval] = {}
        ext_values = {name: external_inputs.channels[name][t] for name in net.external_in}

        def resolve(ep: Endpoint) -> TimeInterval:
            if isinstance(ep, ExternalPort):
                return ext_values[ep.name]
            return values[(ep.instance, ep.port)]

        def inputs_for(inst: Instance) -> Dict[str, TimeInterval]:
            return {
                port: resolve(driver_of[(inst.id, port)]) for port in inst.in_ports()
            }

        for iid in order:
            inst = instances[iid]
            if inst.kind is InstanceKind.DELAY:
                values[(iid, DELAY_OUT)] = delays[iid].emit()
            elif inst.kind is InstanceKind.MERGE:
                ins = inputs_for(inst)
                values[(iid, MERGE_OUT)] = ins[MERGE_LEFT] + ins[MERGE_RIGHT]
            elif iid in strong:
                for ch, iv in state_determined_output(inst.spec, cfgs[iid].state).items():
                    values[(iid, ch)] = iv
            else:
                cfgs[iid], out = step(inst.spec, cfgs[iid], inputs_for(inst))
                for ch, iv in out.items():
                    values[(iid, ch)] = iv

        # End of tick: everything is resolved, so state-first instances can
        # now absorb their inputs.
        for iid in order:
            inst = instances[iid]
            if inst.kind is InstanceKind.DELAY:
                delays[iid].absorb(resolve(driver_of[(iid, DELAY_IN)]))
            elif iid in strong:
                cfgs[iid], _ = step(inst.spec, cfgs[iid], inputs_for(inst))

        for name in net.external_out:
            collected[name].append(resolve(ext_driver[name]))

    return Trace(
        {name: StreamPrefix(tuple(ivs)) for name, ivs in collected.items()},
        length=ticks,
    )
