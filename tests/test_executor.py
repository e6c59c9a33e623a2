from random import Random

import pytest

from tstd.analysis import validate_spec
from tstd.checks import check_untimed_simulation, probe_causality
from tstd.dsl import parse_component
from tstd.executor import ChannelMismatchError, _Machine, run
from tstd.gen import probe_alphabet, random_spec, random_trace
from tstd.model import (
    ChannelDecl,
    ComponentSpec,
    Direction,
    IntervalGuard,
    IntervalPattern,
    OutputAction,
    Relation,
    Severity,
    Transition,
    UpdateOp,
    VarDecl,
    VarGuard,
    VarUpdate,
)
from tstd.network import ExternalPort, Instance, Port, Wire, build_network, run_network
from tstd.operators import untimed_abstraction
from tstd.streams import Message, StreamPrefix, Trace, interval
from tstd.table_format import parse_table

from conftest import machine_step
from specgen import wide_spec

IN = ChannelDecl("in", Direction.IN)
OUT = ChannelDecl("out", Direction.OUT)


def make_spec(transitions, states=("S0",), initial="S0", vars=()):
    return ComponentSpec(
        name="m",
        channels=(IN, OUT),
        vars=tuple(vars),
        states=tuple(states),
        initial=initial,
        transitions=tuple(transitions),
    )


PASS_THROUGH = make_spec(
    [Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "in"),))]
)

CONSTANT = make_spec(
    [Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("k")),))]
)


class TestStep:
    def test_stutter_when_nothing_enabled(self):
        t = Transition("S0", "S0", interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),))
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        cfg = ("S0", {"v": 0})
        new_cfg, out = machine_step(_Machine(spec), cfg, {"in": ()})
        assert new_cfg == cfg
        assert out == {"out": ()}

    def test_fire_emit_and_update(self):
        t = Transition(
            "S0",
            "S1",
            outputs=(OutputAction.literal("out", interval("ack")),),
            updates=(VarUpdate("v", UpdateOp.ADD, 1),),
        )
        spec = make_spec([t], states=("S0", "S1"), vars=[VarDecl("v", 0)])
        cfg, out = machine_step(_Machine(spec), ("S0", {"v": 0}), {"in": ()})
        assert cfg == ("S1", {"v": 1})
        assert out == {"out": interval("ack")}

    def test_pass_copies_verbatim(self):
        _, out = machine_step(_Machine(PASS_THROUGH), ("S0", {}), {"in": interval("a", "b")})
        assert out == {"out": interval("a", "b")}

    def test_var_env_is_a_plain_mapping_by_name(self):
        t = Transition(
            "S0",
            "S0",
            updates=(VarUpdate("v", UpdateOp.ADD, 2), VarUpdate("w", UpdateOp.SET, 7)),
        )
        spec = make_spec([t], vars=[VarDecl("v", 1), VarDecl("w", 0)])
        machine = _Machine(spec)
        initial = dict(zip(machine.var_names, machine.initial_env))
        assert machine_step(machine, ("S0", initial), {"in": ()})[0] == ("S0", {"v": 3, "w": 7})

    def test_first_declared_wins(self):
        t1 = Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("x")),))
        t2 = Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("y")),))
        _, out = machine_step(_Machine(make_spec([t1, t2])), ("S0", {}), {"in": ()})
        assert out == {"out": interval("x")}


P = IntervalPattern
HIT = OutputAction.literal("out", interval("hit"))

# (pattern, input interval, whether the pattern holds), worked out by hand.
PATTERN_CASES = [
    (P.any(), (), True),
    (P.any(), ("a:1",), True),
    (P.empty(), (), True),
    (P.empty(), ("a",), False),
    (P.empty(), ("a:0",), False),
    (P.nonempty(), (), False),
    (P.nonempty(), ("a",), True),
    (P.nonempty(), ("a:-3",), True),
    (P.contains(Message("a")), ("b", "a"), True),
    (P.contains(Message("a")), ("b",), False),
    (P.contains(Message("a")), ("a:0",), False),
    (P.contains(Message("a", 1)), ("b", "a:1"), True),
    (P.contains(Message("a", 1)), ("a",), False),
    (P.contains(Message("a", 1)), ("a:2", "b:1"), False),
    (P.len_eq(0), (), True),
    (P.len_eq(0), ("a",), False),
    (P.len_eq(2), ("a",), False),
    (P.len_eq(2), ("a", "b"), True),
    (P.len_eq(2), ("a:1", "a:2"), True),
    (P.len_eq(2), ("a", "b", "c"), False),
    (P.len_ge(0), (), True),
    (P.len_ge(2), ("a",), False),
    (P.len_ge(2), ("a", "b"), True),
    (P.len_ge(2), ("a:1", "b:2", "c"), True),
    (P.first_is(Message("a")), ("a", "b"), True),
    (P.first_is(Message("a")), ("b", "a"), False),
    (P.first_is(Message("a")), (), False),
    (P.first_is(Message("a")), ("a:0", "b"), False),
    (P.first_is(Message("a", 0)), ("a:0", "b"), True),
    (P.first_is(Message("a", 0)), ("a", "a:0"), False),
    (P.first_is(Message("a", 0)), ("a:1",), False),
]

# Which of the values 2, 3 and 4 satisfy ``v REL 3``, by hand.
RELATION_CASES = [
    (Relation.LT, (True, False, False)),
    (Relation.LE, (True, True, False)),
    (Relation.EQ, (False, True, False)),
    (Relation.NE, (True, False, True)),
    (Relation.GE, (False, True, True)),
    (Relation.GT, (False, False, True)),
]


class TestGuards:
    """What each pattern kind, relation and update does in the compiled
    machine, against expectations worked out by hand rather than by the
    reference oracle."""

    @pytest.mark.parametrize(
        "pattern,tokens,holds",
        PATTERN_CASES,
        ids=[f"{p.render()}@{' '.join(toks) or '-'}" for p, toks, _ in PATTERN_CASES],
    )
    def test_pattern(self, pattern, tokens, holds):
        t = Transition("S0", "S0", interval_guards=(IntervalGuard("in", pattern),), outputs=(HIT,))
        _, out = machine_step(_Machine(make_spec([t])), ("S0", {}), {"in": interval(*tokens)})
        assert out == {"out": interval("hit") if holds else ()}

    @pytest.mark.parametrize(
        "relation,expected", RELATION_CASES, ids=[r.value for r, _ in RELATION_CASES]
    )
    def test_relation(self, relation, expected):
        t = Transition("S0", "S0", var_guards=(VarGuard("v", relation, 3),), outputs=(HIT,))
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        for value, holds in zip((2, 3, 4), expected):
            _, out = machine_step(_Machine(spec), ("S0", {"v": value}), {"in": ()})
            assert out == {"out": interval("hit") if holds else ()}, value

    def test_relation_with_a_negative_bound(self):
        t = Transition("S0", "S0", var_guards=(VarGuard("v", Relation.GE, -2),), outputs=(HIT,))
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        for value, emitted in ((-3, ()), (-2, interval("hit"))):
            _, out = machine_step(_Machine(spec), ("S0", {"v": value}), {"in": ()})
            assert out == {"out": emitted}, value

    @pytest.mark.parametrize(
        "op,value,after",
        [
            (UpdateOp.SET, 5, 5),
            (UpdateOp.SET, -4, -4),
            (UpdateOp.ADD, 3, 5),
            (UpdateOp.ADD, -4, -2),
        ],
        ids=["v:=5", "v:=-4", "v:=v+3", "v:=v-4"],
    )
    def test_update(self, op, value, after):
        t = Transition("S0", "S0", updates=(VarUpdate("v", op, value),))
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        cfg, _ = machine_step(_Machine(spec), ("S0", {"v": 2}), {"in": ()})
        assert cfg == ("S0", {"v": after})

    def test_guard_reads_the_value_before_the_update(self):
        t = Transition(
            "S0",
            "S0",
            var_guards=(VarGuard("v", Relation.EQ, 2),),
            outputs=(HIT,),
            updates=(VarUpdate("v", UpdateOp.ADD, 1),),
        )
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        machine = _Machine(spec)
        cfg, out = machine_step(machine, ("S0", {"v": 2}), {"in": ()})
        assert (cfg, out) == (("S0", {"v": 3}), {"out": interval("hit")})
        assert machine_step(machine, cfg, {"in": ()}) == (cfg, {"out": ()})


class TestRun:
    def test_zero_ticks(self):
        out = run(CONSTANT, Trace.empty(("in",), 0))
        assert out.length == 0
        assert out.channels["out"] == StreamPrefix()

    def test_constant_stutter(self):
        spec = make_spec([])
        out = run(spec, Trace.empty(("in",), 3))
        assert out.channels["out"] == StreamPrefix.empty(3)

    def test_toggler_hand_trace(self):
        t1 = Transition("S0", "S1", outputs=(OutputAction.literal("out", interval("tick")),))
        t2 = Transition("S1", "S0")
        spec = make_spec([t1, t2], states=("S0", "S1"))
        out = run(spec, Trace.empty(("in",), 4))
        assert out.channels["out"] == StreamPrefix(
            (interval("tick"), (), interval("tick"), ())
        )

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatchError):
            run(CONSTANT, Trace.empty(("wrong",), 2))

    @pytest.mark.parametrize(
        "transition",
        [
            Transition("S0", "S0", interval_guards=(IntervalGuard("zz", IntervalPattern.empty()),)),
            Transition("S0", "S0", updates=(VarUpdate("v", UpdateOp.ADD, 1),)),
            Transition("S0", "S7"),
            Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "zz"),)),
            Transition("S0", "S0", outputs=(OutputAction.literal("zz", interval("x")),)),
            Transition("S7", "S0"),
        ],
        ids=[
            "undeclared-channel",
            "undeclared-variable",
            "undeclared-target",
            "undeclared-pass-source",
            "undeclared-emission",
            "undeclared-source",
        ],
    )
    def test_reference_errors_rejected_before_any_tick(self, transition):
        spec = make_spec([transition])
        first = next(f for f in validate_spec(spec) if f.severity is Severity.ERROR)
        with pytest.raises(ValueError) as exc:
            run(spec, Trace.empty(("in",), 0))
        assert str(exc.value) == f"component 'm': {first.message}"
        # A network inlines the spec's tick without a machine, and refuses it alike.
        net = build_network(
            [Instance.of_spec("i", spec)],
            [
                Wire(ExternalPort("in"), Port("i", "in")),
                Wire(Port("i", "out"), ExternalPort("out")),
            ],
            ["in"],
            ["out"],
        )
        with pytest.raises(ValueError) as exc:
            run_network(net, Trace.empty(("in",), 0), 0)
        assert str(exc.value) == f"component 'm': {first.message}"

    def test_output_length_always_matches_input(self):
        rng = Random(11)
        for _ in range(40):
            spec = random_spec(rng)
            ticks = rng.randint(0, 12)
            out = run(spec, random_trace(("in",), ticks, rng))
            assert out.length == ticks
            assert out.channels["out"].length == ticks

    def test_deterministic(self):
        rng = Random(3)
        spec = random_spec(rng)
        inputs = random_trace(("in",), 10, Random(5))
        assert run(spec, inputs) == run(spec, inputs)


class TestProbeCausality:
    def test_constant_output_is_consistent(self):
        result = probe_causality(CONSTANT, trials=50, horizon=6, seed=1)
        assert result.consistent_with_strong

    def test_pass_through_is_refuted(self):
        result = probe_causality(PASS_THROUGH, trials=100, horizon=8, seed=0)
        assert result.refuted
        a, b, cut = result.witness_a, result.witness_b, result.cut
        # The witness pair agrees strictly before the cut and differs at it.
        for t in range(cut):
            assert a.tick(t) == b.tick(t)
        assert a.tick(cut) != b.tick(cut)
        # Replaying the pair reproduces the divergence at or before the cut.
        out_a, out_b = run(PASS_THROUGH, a), run(PASS_THROUGH, b)
        assert out_a.channels[result.channel][result.tick] != out_b.channels[result.channel][
            result.tick
        ]
        assert result.tick <= cut

    def test_every_refutation_replays_exactly(self, samples):
        # The refuted samples, random specs and wide specs: each witness pair
        # splits at the cut, and replayed through run its outputs agree
        # before the reported tick and differ at it on the reported channel.
        rng = Random(2424)
        corpora = {
            "samples": [parse_component(p.read_text()) for p in sorted(samples.glob("*.tstd"))],
            "random": [random_spec(rng, name=f"r{i}") for i in range(150)],
            "wide": [wide_spec(rng, f"w{i}", max_states=8) for i in range(60)],
        }
        refuted = dict.fromkeys(corpora, 0)
        for corpus, specs in corpora.items():
            for i, spec in enumerate(specs):
                result = probe_causality(spec, trials=30, horizon=10, seed=i)
                if not result.refuted:
                    continue
                refuted[corpus] += 1
                a, b, cut = result.witness_a, result.witness_b, result.cut
                for t in range(cut):
                    assert a.tick(t) == b.tick(t), (corpus, i)
                assert a.tick(cut) != b.tick(cut), (corpus, i)
                out_a, out_b = run(spec, a), run(spec, b)
                for t in range(result.tick):
                    assert out_a.tick(t) == out_b.tick(t), (corpus, i)
                ch, t = result.channel, result.tick
                assert out_a.channels[ch][t] != out_b.channels[ch][t], (corpus, i)
        floors = {"samples": 4, "random": 30, "wide": 15}
        assert all(refuted[corpus] >= floors[corpus] for corpus in corpora), refuted

    def test_seed_reproducibility(self):
        r1 = probe_causality(PASS_THROUGH, trials=40, horizon=6, seed=9)
        r2 = probe_causality(PASS_THROUGH, trials=40, horizon=6, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("trials, horizon", [(0, 6), (5, 0), (-1, -1)])
    def test_trials_and_horizon_must_be_positive(self, trials, horizon):
        with pytest.raises(ValueError, match="must be positive"):
            probe_causality(PASS_THROUGH, trials=trials, horizon=horizon, seed=0)

    def test_no_input_channel_is_consistent_without_trials(self):
        spec = ComponentSpec("m", (OUT,), (), ("S0",), "S0", ())
        result = probe_causality(spec, trials=10, horizon=4, seed=0)
        assert result.consistent_with_strong
        assert result.trials == 0


    def test_the_probe_alphabet_adds_a_tag_no_spec_names(self):
        guard = IntervalGuard("in", IntervalPattern.contains(Message("fresh")))
        emit = OutputAction.literal("out", interval("fresh_x"))
        spec = make_spec([Transition("S0", "S0", interval_guards=(guard,), outputs=(emit,))])
        assert probe_alphabet(spec) == ["fresh", "fresh_x", "fresh_x_x"]

def test_only_a_returned_witness_becomes_a_trace(monkeypatch, samples):
    # Trials run on plain input columns; a refutation makes its witnesses.
    built = []
    post_init = Trace.__post_init__
    monkeypatch.setattr(Trace, "__post_init__", lambda self: built.append(self) or post_init(self))
    toggler, passthrough = (
        parse_component((samples / f"{name}.tstd").read_text())
        for name in ("toggler", "passthrough")
    )
    table = parse_table((samples / "toggler.ttab").read_text())
    assert probe_causality(toggler, trials=200, horizon=16, seed=0).consistent_with_strong
    assert len(built) == 0
    refuted = probe_causality(passthrough, trials=200, horizon=16, seed=0)
    assert refuted.refuted
    assert len(built) == 2
    assert built[0] is refuted.witness_a and built[1] is refuted.witness_b
    assert check_untimed_simulation(toggler, table, trials=200, horizon=16, seed=0).agree
    assert len(built) == 2


def delayed_passthrough_one_symbol():
    """Pass-through delayed by one tick, encoded in states.

    Works only for inputs restricted to at most one `a` per tick: the state
    remembers whether the previous interval was empty or held the symbol.
    """
    remember_a = Transition("E", "H", interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),))
    remember_e = Transition("E", "E")
    replay_a_a = Transition(
        "H",
        "H",
        interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),),
        outputs=(OutputAction.literal("out", interval("a")),),
    )
    replay_a_e = Transition("H", "E", outputs=(OutputAction.literal("out", interval("a")),))
    return make_spec(
        [remember_a, remember_e, replay_a_a, replay_a_e],
        states=("E", "H"),
        initial="E",
    )


class TestUntimedSimulation:
    def test_reflexivity(self):
        result = check_untimed_simulation(PASS_THROUGH, PASS_THROUGH, trials=30, horizon=6, seed=2)
        assert result.agree

    def test_constant_mismatch_witnessed_immediately(self):
        other = make_spec(
            [Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("j")),))]
        )
        result = check_untimed_simulation(CONSTANT, other, trials=10, horizon=4, seed=0)
        assert not result.agree
        assert result.channel == "out"
        assert result.abstraction_a[0] == Message("k")
        assert result.abstraction_b[0] == Message("j")

    def test_signature_mismatch_rejected(self):
        other = ComponentSpec(
            name="m",
            channels=(ChannelDecl("inp", Direction.IN), OUT),
            vars=(),
            states=("S0",),
            initial="S0",
            transitions=(),
        )
        with pytest.raises(ChannelMismatchError):
            check_untimed_simulation(CONSTANT, other, trials=5, horizon=4, seed=0)

    @pytest.mark.parametrize("trials, horizon", [(0, 6), (5, 0)])
    def test_trials_and_horizon_must_be_positive(self, trials, horizon):
        with pytest.raises(ValueError, match="must be positive"):
            check_untimed_simulation(CONSTANT, CONSTANT, trials=trials, horizon=horizon, seed=0)

    def test_delay_agrees_modulo_ticks_when_final_tick_empty(self):
        # Hand traces at horizon 3, one `a` per tick at most.
        delayed = delayed_passthrough_one_symbol()
        trace = Trace({"in": StreamPrefix((interval("a"), interval("a"), ()))}, 3)
        out_now = run(PASS_THROUGH, trace)
        out_delayed = run(delayed, trace)
        assert untimed_abstraction(out_now.channels["out"]) == untimed_abstraction(
            out_delayed.channels["out"]
        )

    def test_delay_disagrees_when_final_tick_nonempty(self):
        # The delayed copy of the final symbol falls past the horizon.
        delayed = delayed_passthrough_one_symbol()
        trace = Trace({"in": StreamPrefix(((), interval("a"), interval("a")))}, 3)
        out_now = run(PASS_THROUGH, trace)
        out_delayed = run(delayed, trace)
        assert untimed_abstraction(out_now.channels["out"]) != untimed_abstraction(
            out_delayed.channels["out"]
        )
