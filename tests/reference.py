"""Reference oracles for the compiled execution paths.

These are the direct, uncompiled readings of the semantics: one tick of a
machine straight from ``enabled_transitions``, and a network run that
resolves every port by name each tick.  They are slow on purpose and are
used only to check ``tstd.run`` and ``tstd.run_network`` against.
"""

from collections import deque
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Mapping, Tuple

from tstd.executor import Configuration, Trace
from tstd.model import (
    CausalityClass,
    ComponentSpec,
    classify_causality_syntactic,
    enabled_transitions,
)
from tstd.network import (
    ExternalPort,
    IllFormedNetworkError,
    Instance,
    InstanceKind,
    Network,
    instantaneous_dependency_graph,
)
from tstd.streams import StreamPrefix, TimeInterval


def reference_step(
    spec: ComponentSpec, cfg: Configuration, tick_inputs: Mapping[str, TimeInterval]
) -> Tuple[Configuration, Dict[str, TimeInterval]]:
    """Fire the first enabled transition, or stutter."""
    outputs: Dict[str, TimeInterval] = {ch: () for ch in spec.out_channels()}
    enabled = enabled_transitions(spec, cfg.state, cfg.var_env, tick_inputs)
    if not enabled:
        return cfg, outputs
    t = enabled[0]
    for action in t.outputs:
        if action.is_pass:
            outputs[action.channel] = tick_inputs[action.source]
        else:
            outputs[action.channel] = action.messages
    env = dict(cfg.var_env)
    for update in t.updates:
        env[update.var] = update.apply(env[update.var])
    return Configuration(t.target, env), outputs


def reference_run(spec: ComponentSpec, inputs: Trace) -> Trace:
    """Fold ``reference_step`` over every tick of ``inputs``."""
    cfg = Configuration.initial(spec)
    collected: Dict[str, List[TimeInterval]] = {ch: [] for ch in spec.out_channels()}
    for t in range(inputs.length):
        cfg, out = reference_step(spec, cfg, inputs.tick(t))
        for ch, iv in out.items():
            collected[ch].append(iv)
    return Trace(
        {ch: StreamPrefix(tuple(ivs)) for ch, ivs in collected.items()},
        length=inputs.length,
    )


def state_determined_output(spec: ComponentSpec, state: str) -> Dict[str, TimeInterval]:
    """The tick output a strongly causal spec produces from ``state``.

    Every transition leaving a state of a strong spec emits the same
    literals, so the output is a function of the state alone (empty when the
    state can stutter).
    """
    outgoing = [t for t in spec.transitions if t.source == state]
    out = {ch: () for ch in spec.out_channels()}
    if outgoing:
        for action in outgoing[0].outputs:
            out[action.channel] = action.messages
    return out


def _is_strong(inst: Instance) -> bool:
    return (
        inst.kind is InstanceKind.SPEC
        and classify_causality_syntactic(inst.spec) is CausalityClass.STRONG
    )


def reference_run_network(net: Network, external_inputs: Trace, ticks: int) -> Trace:
    """Run a network by resolving each port by name, every tick.

    Instances emit in a topological order of the instantaneous dependency
    graph; delays and strong machines emit from state and absorb their
    inputs once the whole tick is resolved.
    """
    graph = instantaneous_dependency_graph(net)
    sorter: TopologicalSorter = TopologicalSorter()
    for node, succs in graph.items():
        sorter.add(node)
        for succ in succs:
            sorter.add(succ, node)
    try:
        order = list(sorter.static_order())
    except CycleError as exc:
        raise IllFormedNetworkError("network has an instantaneous feedback cycle") from exc

    instances = {inst.id: inst for inst in net.instances}
    cfgs = {
        inst.id: Configuration.initial(inst.spec)
        for inst in net.instances
        if inst.kind is InstanceKind.SPEC
    }
    delays = {
        inst.id: deque([()] * inst.delay)
        for inst in net.instances
        if inst.kind is InstanceKind.DELAY
    }
    driver_of = {}
    ext_driver = {}
    for wire in net.wires:
        if isinstance(wire.target, ExternalPort):
            ext_driver[wire.target.name] = wire.source
        else:
            driver_of[(wire.target.instance, wire.target.port)] = wire.source

    collected: Dict[str, List[TimeInterval]] = {name: [] for name in net.external_out}
    for t in range(ticks):
        values: Dict[Tuple[str, str], TimeInterval] = {}
        ext_values = {name: external_inputs.channels[name][t] for name in net.external_in}

        def resolve(ep) -> TimeInterval:
            if isinstance(ep, ExternalPort):
                return ext_values[ep.name]
            return values[(ep.instance, ep.port)]

        def inputs_for(inst: Instance) -> Dict[str, TimeInterval]:
            return {port: resolve(driver_of[(inst.id, port)]) for port in inst.in_ports()}

        for iid in order:
            inst = instances[iid]
            if inst.kind is InstanceKind.DELAY:
                values[(iid, "out")] = delays[iid].popleft()
            elif inst.kind is InstanceKind.MERGE:
                ins = inputs_for(inst)
                values[(iid, "out")] = ins["in1"] + ins["in2"]
            elif _is_strong(inst):
                for ch, iv in state_determined_output(inst.spec, cfgs[iid].state).items():
                    values[(iid, ch)] = iv
            else:
                cfgs[iid], out = reference_step(inst.spec, cfgs[iid], inputs_for(inst))
                for ch, iv in out.items():
                    values[(iid, ch)] = iv

        for iid in order:
            inst = instances[iid]
            if inst.kind is InstanceKind.DELAY:
                delays[iid].append(resolve(driver_of[(iid, "in")]))
            elif _is_strong(inst):
                cfgs[iid], _ = reference_step(inst.spec, cfgs[iid], inputs_for(inst))

        for name in net.external_out:
            collected[name].append(resolve(ext_driver[name]))

    return Trace(
        {name: StreamPrefix(tuple(ivs)) for name, ivs in collected.items()},
        length=ticks,
    )
