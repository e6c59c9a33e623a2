from random import Random

import pytest

from tstd.analysis import CausalityClass, classify_causality_syntactic, validate_spec
from tstd.executor import _Machine
from tstd.gen import random_spec
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
from tstd.streams import Message, interval

from conftest import machine_step
from reference import reference_enabled

IN = ChannelDecl("in", Direction.IN)
OUT = ChannelDecl("out", Direction.OUT)


def make_spec(transitions, states=("S0",), initial="S0", vars=(), channels=(IN, OUT)):
    return ComponentSpec(
        name="m",
        channels=tuple(channels),
        vars=tuple(vars),
        states=tuple(states),
        initial=initial,
        transitions=tuple(transitions),
    )


def errors(findings):
    return [f for f in findings if f.severity is Severity.ERROR]


def warnings(findings):
    return [f for f in findings if f.severity is Severity.WARNING]


class TestValidate:
    def test_undeclared_target_is_single_error(self):
        spec = make_spec([Transition("S0", "S9")])
        found = errors(validate_spec(spec))
        assert len(found) == 1
        assert "S9" in found[0].message

    def test_minimal_spec_is_clean(self):
        assert errors(validate_spec(make_spec([]))) == []

    def test_any_overlap_warning(self):
        spec = make_spec([Transition("S0", "S0"), Transition("S0", "S0")])
        found = warnings(validate_spec(spec))
        assert len(found) == 1
        assert "enabled simultaneously" in found[0].message

    def test_disjoint_patterns_do_not_warn(self):
        t1 = Transition("S0", "S0", interval_guards=(IntervalGuard("in", IntervalPattern.empty()),))
        t2 = Transition(
            "S0", "S0", interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),)
        )
        assert warnings(validate_spec(make_spec([t1, t2]))) == []

    def test_contradictory_var_guards_do_not_warn(self):
        v = VarDecl("v", 0)
        t1 = Transition("S0", "S0", var_guards=(VarGuard("v", Relation.LT, 0),))
        t2 = Transition("S0", "S0", var_guards=(VarGuard("v", Relation.GT, 5),))
        assert warnings(validate_spec(make_spec([t1, t2], vars=[v]))) == []

    def test_adjacent_bounds_do_warn(self):
        v = VarDecl("v", 0)
        t1 = Transition("S0", "S0", var_guards=(VarGuard("v", Relation.LE, 3),))
        t2 = Transition("S0", "S0", var_guards=(VarGuard("v", Relation.GE, 3),))
        assert len(warnings(validate_spec(make_spec([t1, t2], vars=[v])))) == 1

    @pytest.mark.parametrize(
        "first, second, warns",
        [
            # Guards on different channels can both hold on one tick.
            ([("in", IntervalPattern.empty())], [("in2", IntervalPattern.nonempty())], True),
            (["x < 1"], ["x > 1"], False),
            (["x != 0"], [], True),
            (["x >= 0", "x <= 0"], ["x != 0"], False),
            # Distinct patterns count as disjoint, though these two can both hold.
            (
                [("in", IntervalPattern.nonempty())],
                [("in", IntervalPattern.contains(Message("a")))],
                False,
            ),
        ],
    )
    def test_overlap_cases(self, first, second, warns):
        def transition(clauses):
            relations = [c.split() for c in clauses if isinstance(c, str)]
            return Transition(
                "S0",
                "S0",
                interval_guards=tuple(IntervalGuard(*c) for c in clauses if isinstance(c, tuple)),
                var_guards=tuple(VarGuard(v, Relation.parse(r), int(b)) for v, r, b in relations),
            )

        channels = (IN, ChannelDecl("in2", Direction.IN), OUT)
        spec = make_spec(
            [transition(first), transition(second)], vars=[VarDecl("x", 0)], channels=channels
        )
        assert len(warnings(validate_spec(spec))) == warns

    def test_unreachable_state_warning(self):
        spec = make_spec([], states=("S0", "S1"))
        found = warnings(validate_spec(spec))
        assert len(found) == 1
        assert "unreachable" in found[0].message

    def test_no_output_channel_is_error(self):
        spec = make_spec([], channels=(IN,))
        assert any("output channel" in f.message for f in errors(validate_spec(spec)))

    def test_duplicate_names(self):
        spec = make_spec([], channels=(IN, IN, OUT))
        assert any("duplicate channel" in f.message for f in errors(validate_spec(spec)))
        spec = make_spec([], vars=[VarDecl("in", 0)])
        assert any("collides" in f.message for f in errors(validate_spec(spec)))

    def test_guard_on_output_channel_is_error(self):
        t = Transition("S0", "S0", interval_guards=(IntervalGuard("out", IntervalPattern.empty()),))
        assert any("not an input" in f.message for f in errors(validate_spec(make_spec([t]))))

    def test_pass_from_output_channel_is_error(self):
        t = Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "out"),))
        assert any("pass source" in f.message for f in errors(validate_spec(make_spec([t]))))

    def test_duplicate_emission_is_error(self):
        t = Transition(
            "S0",
            "S0",
            outputs=(
                OutputAction.literal("out", interval("a")),
                OutputAction.literal("out", interval("b")),
            ),
        )
        assert any(
            "more than one emission" in f.message for f in errors(validate_spec(make_spec([t])))
        )

    def test_duplicate_update_is_error(self):
        t = Transition(
            "S0",
            "S0",
            updates=(VarUpdate("v", UpdateOp.SET, 1), VarUpdate("v", UpdateOp.ADD, 1)),
        )
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        assert any("more than one update" in f.message for f in errors(validate_spec(spec)))

    def test_transition_errors_are_located(self):
        t = Transition(
            "S0",
            "S9",
            outputs=(OutputAction.literal("in", interval("a")),),
            updates=(VarUpdate("w", UpdateOp.SET, 1),),
        )
        found = errors(validate_spec(make_spec([t])))
        assert [f.location for f in found] == [(1, "trans", 0), (1, "emit", 0), (1, "set", 0)]
        assert found[0].render() == f"error: {found[0].message}"

    def test_report_is_stable(self):
        spec = make_spec([Transition("S0", "S9")], states=("S0", "S2"))
        assert validate_spec(spec) == validate_spec(spec)


HIT = OutputAction.literal("out", interval("hit"))


def fires(spec, state, env, tick):
    """Whether the compiled machine fires from ``state`` on ``tick``, for a
    ``spec`` whose every transition emits ``hit``: a stutter emits nothing."""
    _, out = machine_step(_Machine(spec), (state, env), tick)
    return out == {"out": interval("hit")}


class TestEnabled:
    """Which transitions a tick enables: hand-computed cases on the compiled
    machine, and the declaration order of the oracle's enabled list."""

    def test_contains_holds_on_membership(self):
        g = IntervalGuard("in", IntervalPattern.contains(Message("a")))
        spec = make_spec([Transition("S0", "S0", interval_guards=(g,), outputs=(HIT,))])
        assert fires(spec, "S0", {}, {"in": interval("b", "a")})
        assert not fires(spec, "S0", {}, {"in": interval("b", "a:0")})

    def test_empty_pattern(self):
        g = IntervalGuard("in", IntervalPattern.empty())
        spec = make_spec([Transition("S0", "S0", interval_guards=(g,), outputs=(HIT,))])
        assert fires(spec, "S0", {}, {"in": ()})
        assert not fires(spec, "S0", {}, {"in": interval("a")})

    def test_var_guard_can_block(self):
        t = Transition(
            "S0",
            "S0",
            interval_guards=(IntervalGuard("in", IntervalPattern.len_ge(2)),),
            var_guards=(VarGuard("v", Relation.LT, 3),),
            outputs=(HIT,),
        )
        spec = make_spec([t], vars=[VarDecl("v", 0)])
        assert not fires(spec, "S0", {"v": 5}, {"in": interval("a", "b", "c")})
        assert fires(spec, "S0", {"v": 2}, {"in": interval("a", "b", "c")})

    def test_unknown_state_is_caller_bug(self):
        with pytest.raises(ValueError, match="unknown state: 'S9'"):
            reference_enabled(make_spec([]), "S9", {}, {"in": ()})

    def test_result_is_ordered_subsequence(self):
        # The oracle lists transitions in declaration order, and exactly
        # those that the compiled machine fires when each is its state's
        # only transition.
        rng = Random(7)
        for _ in range(50):
            spec = random_spec(rng)
            state = spec.states[rng.randrange(len(spec.states))]
            env = {v.name: rng.randint(-2, 3) for v in spec.vars}
            tick = {"in": tuple(Message(rng.choice("ab")) for _ in range(rng.randint(0, 3)))}
            enabled = reference_enabled(spec, state, env, tick)
            order = [spec.transitions.index(t) for t in enabled]
            assert order == sorted(order)
            for t in spec.transitions:
                if t.source == state:
                    alone = Transition(state, state, t.interval_guards, t.var_guards, (HIT,))
                    single = make_spec([alone], spec.states, spec.initial, spec.vars)
                    assert fires(single, state, env, tick) == (t in enabled)


class TestClassify:
    def test_silent_machine_is_strong(self):
        spec = make_spec([Transition("S0", "S1"), Transition("S1", "S0")], states=("S0", "S1"))
        assert classify_causality_syntactic(spec) is CausalityClass.STRONG

    def test_pass_makes_weak(self):
        t = Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "in"),))
        assert classify_causality_syntactic(make_spec([t])) is CausalityClass.WEAK

    def test_differing_literals_make_weak(self):
        t1 = Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("a")),))
        t2 = Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("b")),))
        assert classify_causality_syntactic(make_spec([t1, t2])) is CausalityClass.WEAK

    def test_single_total_literal_is_strong(self):
        t = Transition("S0", "S0", outputs=(OutputAction.literal("out", interval("a")),))
        assert classify_causality_syntactic(make_spec([t])) is CausalityClass.STRONG

    def test_guarded_literal_is_weak(self):
        # One literal emission behind a guard: a stutter would emit nothing,
        # so the output is not a function of the state alone.
        t = Transition(
            "S0",
            "S0",
            interval_guards=(IntervalGuard("in", IntervalPattern.nonempty()),),
            outputs=(OutputAction.literal("out", interval("a")),),
        )
        assert classify_causality_syntactic(make_spec([t])) is CausalityClass.WEAK

    def test_toggler_shape_is_strong(self):
        t1 = Transition("S0", "S1", outputs=(OutputAction.literal("out", interval("t")),))
        t2 = Transition("S1", "S0")
        spec = make_spec([t1, t2], states=("S0", "S1"))
        assert classify_causality_syntactic(spec) is CausalityClass.STRONG


class TestNormalization:
    def test_any_guard_normalizes_away(self):
        t = Transition("S0", "S0", interval_guards=(IntervalGuard("in", IntervalPattern.any()),))
        assert t.interval_guards == ()

    def test_empty_literal_normalizes_away(self):
        t = Transition("S0", "S0", outputs=(OutputAction.literal("out", ()),))
        assert t.outputs == ()

    def test_collections_are_sorted(self):
        t = Transition(
            "S0",
            "S0",
            var_guards=(VarGuard("z", Relation.EQ, 1), VarGuard("a", Relation.EQ, 1)),
            updates=(VarUpdate("z", UpdateOp.SET, 1), VarUpdate("a", UpdateOp.SET, 1)),
        )
        assert [g.var for g in t.var_guards] == ["a", "z"]
        assert [u.var for u in t.updates] == ["a", "z"]
