from random import Random

import pytest

import tstd.analysis
import tstd.executor
from tstd.analysis import CausalityClass, classify_causality_syntactic
from tstd.executor import run
from tstd.model import (
    ChannelDecl,
    ComponentSpec,
    Direction,
    IntervalGuard,
    IntervalPattern,
    OutputAction,
    Transition,
)
from tstd.network import (
    ExternalPort,
    IllFormedNetworkError,
    Instance,
    NetworkBuildError,
    Port,
    Wire,
    _CompiledNetwork,
    _cycle_witness,
    _toposort,
    build_network,
    check_feedback_wellformed,
    instantaneous_dependency_graph,
    run_network,
)
from tstd.streams import StreamPrefix, Trace, interval

from reference import reference_run_network


def passthrough(name="p"):
    return ComponentSpec(
        name=name,
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(),
        states=("S0",),
        initial="S0",
        transitions=(
            Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "in"),)),
        ),
    )


def silent():
    return ComponentSpec(
        name="quiet",
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(),
        states=("S0",),
        initial="S0",
        transitions=(Transition("S0", "S0"),),
    )


def edge_detector():
    """Strong: emits x one tick after each nonempty input tick it sees in A."""
    return ComponentSpec(
        name="edge",
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(),
        states=("A", "B"),
        initial="A",
        transitions=(
            Transition(
                "A", "B", interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),)
            ),
            Transition("B", "A", outputs=(OutputAction.literal("out", interval("x")),)),
        ),
    )


def wire(src, dst):
    def endpoint(raw):
        if raw.startswith("extern "):
            return ExternalPort(raw.split(" ", 1)[1])
        iid, port = raw.split(".")
        return Port(iid, port)

    return Wire(endpoint(src), endpoint(dst))


class TestBuild:
    def test_degenerate_network(self):
        net = build_network(
            [Instance.of_spec("p", passthrough())],
            [wire("extern a", "p.in"), wire("p.out", "extern b")],
            ["a"],
            ["b"],
        )
        assert net.external_in == ("a",)

    def test_multiply_driven_input(self):
        with pytest.raises(NetworkBuildError) as exc:
            build_network(
                [Instance.of_spec("p", passthrough())],
                [
                    wire("extern a", "p.in"),
                    wire("extern a", "p.in"),
                    wire("p.out", "extern b"),
                ],
                ["a"],
                ["b"],
            )
        assert any("driven by 2" in p for p in exc.value.problems)

    def test_unknown_instance(self):
        with pytest.raises(NetworkBuildError) as exc:
            build_network([], [wire("extern a", "ghost.in")], ["a"], [])
        assert any("unknown instance" in p for p in exc.value.problems)

    def test_undriven_input(self):
        with pytest.raises(NetworkBuildError) as exc:
            build_network(
                [Instance.of_spec("p", passthrough())],
                [wire("p.out", "extern b")],
                [],
                ["b"],
            )
        assert any("not driven" in p for p in exc.value.problems)

    def test_problems_are_located(self):
        with pytest.raises(NetworkBuildError) as exc:
            build_network(
                [Instance.of_spec("p", passthrough()), Instance.of_spec("q", passthrough())],
                [
                    wire("extern a", "p.in"),
                    wire("extern a", "p.in"),
                    wire("p.out", "extern b"),
                    wire("q.out", "extern c"),
                ],
                ["a"],
                ["b", "c"],
            )
        assert exc.value.problems == [
            "input port 'p.in' is driven by 2 wires (already driven by an earlier one)",
            "input port 'q.in' is not driven",
        ]
        assert exc.value.locations == [("wire", 1), ("instance", 1)]

    def test_duplicates_are_reported_once_per_repeat(self):
        # As a repeated instance id is: at each occurrence after the first.
        with pytest.raises(NetworkBuildError) as exc:
            build_network(
                [Instance.of_merge("m"), Instance.of_merge("m"), Instance.of_merge("m")],
                [],
                ["x", "x", "x", "y"],
                ["z", "z"],
            )
        assert exc.value.problems[:2] == ["duplicate instance id 'm'"] * 2
        assert exc.value.locations[:2] == [("instance", 1), ("instance", 2)]
        duplicates = [p for p in exc.value.problems if p.startswith("duplicate external")]
        assert duplicates == ["duplicate external input 'x'"] * 2 + [
            "duplicate external output 'z'"
        ]

    def test_delay_depth_must_be_positive(self):
        with pytest.raises(NetworkBuildError):
            build_network(
                [Instance.of_delay("d", 0)],
                [wire("extern a", "d.in"), wire("d.out", "extern b")],
                ["a"],
                ["b"],
            )


class TestDependencyGraph:
    def test_pipeline_edges(self):
        net = build_network(
            [
                Instance.of_spec("w1", passthrough()),
                Instance.of_delay("d", 1),
                Instance.of_spec("w2", passthrough()),
            ],
            [
                wire("extern a", "w1.in"),
                wire("w1.out", "d.in"),
                wire("d.out", "w2.in"),
                wire("w2.out", "extern b"),
            ],
            ["a"],
            ["b"],
        )
        graph = instantaneous_dependency_graph(net)
        # w1 writes its output as it reads, so the delay's fire waits for
        # w1's; the delay's own output is fixed by its state, so w2 waits
        # for nothing.
        assert graph == {"d": (), "w1": ("d",), "w2": ()}

    def test_strong_self_loop_has_no_edges(self):
        net = build_network(
            [Instance.of_spec("s", silent())],
            [wire("s.out", "s.in"), wire("s.out", "extern b")],
            [],
            ["b"],
        )
        assert instantaneous_dependency_graph(net) == {"s": ()}
        assert check_feedback_wellformed(net).well_formed

    def test_merge_gets_edges_from_both_feeders(self):
        net = build_network(
            [
                Instance.of_spec("w1", passthrough()),
                Instance.of_spec("w2", passthrough()),
                Instance.of_merge("m"),
            ],
            [
                wire("extern a", "w1.in"),
                wire("extern a", "w2.in"),
                wire("w1.out", "m.in1"),
                wire("w2.out", "m.in2"),
                wire("m.out", "extern b"),
            ],
            ["a"],
            ["b"],
        )
        graph = instantaneous_dependency_graph(net)
        assert graph["w1"] == ("m",)
        assert graph["w2"] == ("m",)


def _reachable(graph, iid):
    """Every id reachable from ``iid`` along at least one edge."""
    found, todo = set(), list(graph[iid])
    while todo:
        nxt = todo.pop()
        if nxt not in found:
            found.add(nxt)
            todo.extend(graph[nxt])
    return found


class TestFeedbackWellformed:
    def test_weak_self_loop_is_ill_formed(self):
        net = build_network(
            [Instance.of_spec("p", passthrough())],
            [wire("p.out", "p.in"), wire("p.out", "extern b")],
            [],
            ["b"],
        )
        result = check_feedback_wellformed(net)
        assert not result.well_formed
        assert result.cycle == ("p",)

    def test_an_instance_wired_into_a_cycle_keeps_the_witness(self):
        # b and the merge c form a cycle.  Feeding c's other input through
        # the passthrough a, which lies on no cycle, adds only the edge a -> c.
        loop = [wire("b.out", "c.in1"), wire("c.out", "b.in"), wire("c.out", "extern y")]
        cycle = [Instance.of_spec("b", passthrough()), Instance.of_merge("c")]
        direct = build_network(cycle, [*loop, wire("extern x", "c.in2")], ["x"], ["y"])
        fed = build_network(
            [Instance.of_spec("a", passthrough()), *cycle],
            [*loop, wire("extern x", "a.in"), wire("a.out", "c.in2")],
            ["x"],
            ["y"],
        )
        assert instantaneous_dependency_graph(fed)["a"] == ("c",)
        for net in (direct, fed):
            assert check_feedback_wellformed(net).cycle == ("b", "c")
            with pytest.raises(IllFormedNetworkError, match="cycle: b -> c$"):
                run_network(net, Trace.empty(("x",), 2), 2)

    def test_witness_is_the_shortest_cycle_through_the_first_id_on_one(self):
        rng = Random(1616)
        seen = {"acyclic": 0, "self-loop": 0, "longer": 0}
        for i in range(500):
            ids = [f"n{k}" for k in range(rng.randint(1, 7))]
            edges = {iid: set() for iid in ids}
            for _ in range(rng.randint(0, 10)):
                edges[rng.choice(ids)].add(rng.choice(ids))
            graph = {iid: tuple(sorted(succs)) for iid, succs in edges.items()}
            on_cycle = sorted(iid for iid in ids if iid in _reachable(graph, iid))
            cycle = _cycle_witness(graph)
            if not on_cycle:
                assert cycle == () and _toposort(graph)[0], i
                seen["acyclic"] += 1
                continue
            assert _toposort(graph) == (False, [], cycle), i
            assert cycle[0] == on_cycle[0], i
            assert len(set(cycle)) == len(cycle), i
            for k, iid in enumerate(cycle):
                assert cycle[(k + 1) % len(cycle)] in graph[iid], i
            # No shorter cycle through cycle[0]: breadth-first distances.
            dist, frontier = 0, {cycle[0]}
            while cycle[0] not in {s for iid in frontier for s in graph[iid]}:
                dist, frontier = dist + 1, {s for iid in frontier for s in graph[iid]}
            assert len(cycle) == dist + 1, i
            # An id outside the graph with one edge into it changes nothing.
            graph["a"] = (rng.choice(ids),)
            assert _cycle_witness(dict(sorted(graph.items()))) == cycle, i
            seen["self-loop" if len(cycle) == 1 else "longer"] += 1
        assert all(count >= 50 for count in seen.values()), seen

    def test_delay_breaks_the_loop(self):
        net = build_network(
            [Instance.of_spec("p", passthrough()), Instance.of_delay("d", 1)],
            [
                wire("p.out", "d.in"),
                wire("d.out", "p.in"),
                wire("p.out", "extern b"),
            ],
            [],
            ["b"],
        )
        assert check_feedback_wellformed(net).well_formed

    def test_loop_through_a_fixed_channel_is_well_formed(self):
        # y passes the input on, but z ticks on the only transition: the
        # state fixes z, so feeding z back into the machine is no cycle.
        tap = ComponentSpec(
            name="tap",
            channels=(
                ChannelDecl("a", Direction.IN),
                ChannelDecl("y", Direction.OUT),
                ChannelDecl("z", Direction.OUT),
            ),
            vars=(),
            states=("S0",),
            initial="S0",
            transitions=(
                Transition(
                    "S0",
                    "S0",
                    outputs=(
                        OutputAction.passthrough("y", "a"),
                        OutputAction.literal("z", interval("tick")),
                    ),
                ),
            ),
        )
        assert classify_causality_syntactic(tap) is CausalityClass.WEAK
        net = build_network(
            [Instance.of_spec("m", tap)], [wire("m.z", "m.a"), wire("m.y", "extern out")], [], ["out"]
        )
        assert instantaneous_dependency_graph(net) == {"m": ()}
        assert check_feedback_wellformed(net).well_formed
        out = run_network(net, Trace({}, 3), 3)
        assert out.channels["out"] == StreamPrefix((interval("tick"),) * 3)
        assert out == reference_run_network(net, Trace({}, 3), 3)

    def test_two_cycle_with_one_delay(self):
        net = build_network(
            [
                Instance.of_spec("p", passthrough()),
                Instance.of_spec("q", passthrough()),
                Instance.of_delay("d", 1),
            ],
            [
                wire("p.out", "q.in"),
                wire("q.out", "d.in"),
                wire("d.out", "p.in"),
                wire("q.out", "extern b"),
            ],
            [],
            ["b"],
        )
        assert check_feedback_wellformed(net).well_formed


def identity_net():
    return build_network([], [wire("extern a", "extern b")], ["a"], ["b"])


class TestRunNetwork:
    def test_identity(self):
        net = identity_net()
        inputs = Trace({"a": StreamPrefix((interval("x"), (), interval("y", "z")))}, 3)
        out = run_network(net, inputs, 3)
        assert out.channels["b"] == inputs.channels["a"]

    def test_input_trace_of_the_wrong_length_is_refused(self):
        inputs = Trace({"a": StreamPrefix((interval("x"), ()))}, 2)
        with pytest.raises(ValueError, match="has 2 ticks, expected 3"):
            run_network(identity_net(), inputs, 3)

    def test_delay_alone(self):
        net = build_network(
            [Instance.of_delay("d", 1)],
            [wire("extern a", "d.in"), wire("d.out", "extern b")],
            ["a"],
            ["b"],
        )
        inputs = Trace({"a": StreamPrefix((interval("a"), interval("b")))}, 2)
        out = run_network(net, inputs, 2)
        assert out.channels["b"] == StreamPrefix(((), interval("a")))

    def test_feedback_fixed_point(self):
        # merge(external, loopback) -> passthrough -> delay(1) -> loopback
        net = build_network(
            [
                Instance.of_merge("m"),
                Instance.of_spec("p", passthrough()),
                Instance.of_delay("d", 1),
            ],
            [
                wire("extern src", "m.in1"),
                wire("d.out", "m.in2"),
                wire("m.out", "p.in"),
                wire("p.out", "d.in"),
                wire("p.out", "extern out"),
            ],
            ["src"],
            ["out"],
        )
        inputs = Trace({"src": StreamPrefix((interval("a"), (), ()))}, 3)
        out = run_network(net, inputs, 3)
        assert out.channels["out"] == StreamPrefix(
            (interval("a"), interval("a"), interval("a"))
        )

    def test_refuses_ill_formed(self):
        net = build_network(
            [Instance.of_spec("p", passthrough())],
            [wire("p.out", "p.in"), wire("p.out", "extern b")],
            [],
            ["b"],
        )
        with pytest.raises(IllFormedNetworkError):
            run_network(net, Trace({}, 2), 2)

    def test_equal_specs_are_checked_once(self, monkeypatch):
        # Two passthroughs and a merge feed a strong edge detector: two
        # distinct specs, so two error checks (``run_network`` calls
        # ``executor._refuse_errors``, which calls ``executor._errors``) and
        # two answers of the causality rule, which the graph and the kernel
        # share, although each instance inlines a tick of its own.
        calls, rule_calls = [], []
        errors, rule = tstd.executor._errors, tstd.analysis._strong_outputs
        monkeypatch.setattr(
            tstd.executor, "_errors", lambda spec: calls.append(spec) or errors(spec)
        )
        monkeypatch.setattr(
            tstd.analysis, "_strong_outputs", lambda spec: rule_calls.append(spec) or rule(spec)
        )
        edge = edge_detector()
        net = build_network(
            [
                Instance.of_spec("p", passthrough()),
                Instance.of_spec("q", passthrough()),
                Instance.of_merge("m"),
                Instance.of_spec("e", edge),
            ],
            [
                wire("extern a", "p.in"),
                wire("extern b", "q.in"),
                wire("p.out", "m.in1"),
                wire("q.out", "m.in2"),
                wire("m.out", "e.in"),
                wire("e.out", "extern y"),
                wire("q.out", "extern z"),
            ],
            ["a", "b"],
            ["y", "z"],
        )
        inputs = Trace(
            {
                "a": StreamPrefix((interval("x"), (), (), interval("u"), ())),
                "b": StreamPrefix(((), (), interval("v"), (), interval("w"))),
            },
            5,
        )
        out = run_network(net, inputs, 5)
        assert sorted(spec.name for spec in calls) == ["edge", "p"]
        assert sorted(spec.name for spec in rule_calls) == ["edge", "p"]
        assert out == reference_run_network(net, inputs, 5)
        assert out.channels["y"] == StreamPrefix(((), interval("x"), (), interval("x"), ()))

    def test_composition_neutrality(self):
        spec = passthrough()
        net = build_network(
            [Instance.of_spec("p", spec)],
            [wire("extern in", "p.in"), wire("p.out", "extern out")],
            ["in"],
            ["out"],
        )
        inputs = Trace({"in": StreamPrefix((interval("a", "b"), (), interval("c")))}, 3)
        direct = run(spec, inputs)
        composed = run_network(net, inputs, 3)
        assert composed.channels["out"] == direct.channels["out"]

    def test_delay_composition_law(self):
        def delays(*depths):
            instances = [Instance.of_delay(f"d{i}", d) for i, d in enumerate(depths)]
            wires = [wire("extern a", "d0.in")]
            for i in range(1, len(instances)):
                wires.append(wire(f"d{i-1}.out", f"d{i}.in"))
            wires.append(wire(f"d{len(instances)-1}.out", "extern b"))
            return build_network(instances, wires, ["a"], ["b"])

        inputs = Trace(
            {"a": StreamPrefix((interval("a"), interval("b"), (), interval("c"), ()))}, 5
        )
        chained = run_network(delays(1, 2), inputs, 5)
        flat = run_network(delays(3), inputs, 5)
        assert chained == flat

    def test_strong_machine_fed_by_a_later_node(self):
        # The strong machine emits x one tick after a nonempty input.  It
        # comes first in the evaluation order, before the passthrough that
        # feeds it, so it must read its input at the end of the tick.
        strong = edge_detector()
        assert classify_causality_syntactic(strong) is CausalityClass.STRONG
        net = build_network(
            [Instance.of_spec("a", strong), Instance.of_spec("z", passthrough())],
            [wire("extern in", "z.in"), wire("z.out", "a.in"), wire("a.out", "extern out")],
            ["in"],
            ["out"],
        )
        inputs = Trace({"in": StreamPrefix((interval("a"), (), (), interval("b"), ()))}, 5)
        composed = run_network(net, inputs, 5)
        assert composed.channels["out"] == run(strong, inputs).channels["out"]
        assert composed.channels["out"] == StreamPrefix(((), interval("x"), (), (), interval("x")))

    def test_tick_locality_by_truncation(self):
        net = build_network(
            [Instance.of_spec("p", passthrough()), Instance.of_delay("d", 2)],
            [
                wire("extern a", "p.in"),
                wire("p.out", "d.in"),
                wire("d.out", "extern b"),
            ],
            ["a"],
            ["b"],
        )
        full = Trace(
            {"a": StreamPrefix((interval("a"), (), interval("b"), interval("c")))}, 4
        )
        short = Trace({"a": StreamPrefix(full.channels["a"].intervals[:2])}, 2)
        out_full = run_network(net, full, 4)
        out_short = run_network(net, short, 2)
        assert out_full.channels["b"].intervals[:2] == out_short.channels["b"].intervals


def test_each_run_starts_from_the_initial_configuration():
    # A passthrough in a loop through a merge and a delay of 2, and an edge
    # detector on its output: a buffer or a state that one run left behind
    # would show in the next run on the same columns.
    net = build_network(
        [
            Instance.of_merge("m"),
            Instance.of_spec("p", passthrough()),
            Instance.of_delay("d", 2),
            Instance.of_spec("e", edge_detector()),
        ],
        [
            wire("extern a", "m.in1"),
            wire("d.out", "m.in2"),
            wire("m.out", "p.in"),
            wire("p.out", "d.in"),
            wire("p.out", "e.in"),
            wire("p.out", "extern b"),
            wire("e.out", "extern y"),
        ],
        ["a"],
        ["b", "y"],
    )
    columns = [[interval("x"), (), interval("z"), ()]]
    network = _CompiledNetwork(net)
    assert (network.in_channels, network.out_channels) == (("a",), ("b", "y"))
    first = network.run(columns, 4)
    assert first == [
        [interval("x"), (), interval("z", "x"), ()],
        [(), interval("x"), (), interval("x")],
    ]
    assert network.run(columns, 4) == first
    inputs = Trace({"a": StreamPrefix(tuple(columns[0]))}, 4)
    assert run_network(net, inputs, 4) == reference_run_network(net, inputs, 4)
