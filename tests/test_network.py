import pytest

from tstd.executor import Trace, run
from tstd.model import (
    ChannelDecl,
    ComponentSpec,
    Direction,
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
    build_network,
    check_feedback_wellformed,
    instantaneous_dependency_graph,
    run_network,
)
from tstd.streams import StreamPrefix, interval


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
        # The delay absorbs w1's edge; its own output feeds the weak w2.
        assert graph == {"d": ("w2",), "w1": (), "w2": ()}

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
