import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import tstd.dsl
import tstd.network
import tstd.streams
from tstd.dsl import export_dot, parse_component, print_component
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
    validate_spec,
)
from tstd.network import (
    ExternalPort,
    Instance,
    NetworkBuildError,
    Port,
    Wire,
    build_network,
    check_feedback_wellformed,
    parse_network,
)
from tstd.streams import Message, StreamPrefix, Trace, interval
from tstd.table_format import parse_table, print_table
from tstd.trace_format import ParseFailure, parse_trace, print_trace

TOGGLER = """\
component toggler
in chan in
out chan out
state S0 initial
state S1
trans S0 -> S1
  emit out: tick
trans S1 -> S0
"""

# Declarations shared by the reference-rule cases: the transition line is 6
# in the textual style, the header row is 7 and the data row 8 in the table.
REF_HEADER = "component m\nin chan i\nout chan o\nvar v = 0\nstate S initial\n"
REF_TABLE_HEADER = (
    "@component m\n@in i\n@out o\n@var v = 0\n@state S\n@initial S\n"
    "source, when:i, guard, emit:o, set, target\n"
)


def ref_spec(transition):
    """The spec REF_HEADER declares, holding one transition."""
    return ComponentSpec(
        name="m",
        channels=(ChannelDecl("i", Direction.IN), ChannelDecl("o", Direction.OUT)),
        vars=(VarDecl("v", 0),),
        states=("S",),
        initial="S",
        transitions=(transition,),
    )


def error_messages(findings):
    return [f.message for f in findings if f.severity is Severity.ERROR]


EMPTY = IntervalPattern.empty()
# (trans line, clause lines, the same transition as a value, line of the error)
REFERENCE_RULES = {
    "source": ("S9 -> S", [], Transition("S9", "S"), 6),
    "target": ("S -> S9", [], Transition("S", "S9"), 6),
    "guard-not-input": (
        "S -> S",
        ["when o: empty"],
        Transition("S", "S", interval_guards=(IntervalGuard("o", EMPTY),)),
        7,
    ),
    "guard-twice": (
        "S -> S",
        ["when i: empty", "when i: len>=2"],
        Transition(
            "S",
            "S",
            interval_guards=(
                IntervalGuard("i", EMPTY),
                IntervalGuard("i", IntervalPattern.len_ge(2)),
            ),
        ),
        8,
    ),
    "var-guard-undeclared": (
        "S -> S",
        ["when i: empty, w > 0"],
        Transition(
            "S",
            "S",
            interval_guards=(IntervalGuard("i", EMPTY),),
            var_guards=(VarGuard("w", Relation.GT, 0),),
        ),
        7,
    ),
    "emit-not-output": (
        "S -> S",
        ["emit i: a"],
        Transition("S", "S", outputs=(OutputAction.literal("i", interval("a")),)),
        7,
    ),
    "emit-twice": (
        "S -> S",
        ["emit o: a", "emit o: b"],
        Transition(
            "S",
            "S",
            outputs=(
                OutputAction.literal("o", interval("a")),
                OutputAction.literal("o", interval("b")),
            ),
        ),
        8,
    ),
    "pass-source": (
        "S -> S",
        ["emit o: pass(o)"],
        Transition("S", "S", outputs=(OutputAction.passthrough("o", "o"),)),
        7,
    ),
    "update-undeclared": (
        "S -> S",
        ["set w := 1"],
        Transition("S", "S", updates=(VarUpdate("w", UpdateOp.SET, 1),)),
        7,
    ),
    "update-twice": (
        "S -> S",
        ["set v := 1", "set v := v + 1"],
        Transition(
            "S",
            "S",
            updates=(VarUpdate("v", UpdateOp.SET, 1), VarUpdate("v", UpdateOp.ADD, 1)),
        ),
        8,
    ),
}

# Table rows for the rules the table style can express: its columns come
# from the declarations, so guards and emissions always name a declared
# channel of the right direction, at most once.
TABLE_RULES = {
    "source": "S9, , , , , S",
    "target": "S, , , , , S9",
    "var-guard-undeclared": "S, empty, w > 0, , , S",
    "pass-source": "S, , , pass(o), , S",
    "update-undeclared": "S, , , , w := 1, S",
    "update-twice": "S, , , , v := 1; v := v + 1, S",
}


OUT_O = ChannelDecl("o", Direction.OUT)


def decl_spec(**fields):
    """A transition-free spec with the declarations of ``fields``, as written."""
    spec = dict(name="m", channels=(OUT_O,), vars=(), states=("S",), initial="S")
    spec.update(fields)
    return ComponentSpec(transitions=(), **spec)


# (textual text or None, table text, the declarations as a spec, line of the
# error in both styles)
DECLARATION_RULES = {
    "missing-name": (
        "out chan o\nstate S initial\n",
        "@out o\n@state S\n@initial S\n",
        decl_spec(name=None),
        1,
    ),
    "invalid-name": (
        "out chan o\ncomponent 9m\nstate S initial\n",
        "@out o\n@component 9m\n@state S\n@initial S\n",
        decl_spec(name="9m"),
        2,
    ),
    "duplicate-channel": (
        "component m\nout chan o\nout chan o\nstate S initial\n",
        # The header row has one column per channel name.
        "@component m\n@out o\n@out o\n@state S\n@initial S\n"
        "source, guard, emit:o, set, target\n",
        decl_spec(channels=(OUT_O, OUT_O)),
        3,
    ),
    "channel-in-and-out": (
        "component m\nin chan o\nout chan o\nstate S initial\n",
        "@component m\n@in o\n@out o\n@state S\n@initial S\n",
        decl_spec(channels=(ChannelDecl("o", Direction.IN), OUT_O)),
        3,
    ),
    "duplicate-variable": (
        "component m\nout chan o\nvar v = 0\nvar v = 1\nstate S initial\n",
        "@component m\n@out o\n@var v = 0\n@var v = 1\n@state S\n@initial S\n",
        decl_spec(vars=(VarDecl("v", 0), VarDecl("v", 1))),
        4,
    ),
    "variable-after-channel": (
        "component m\nout chan o\nvar o = 0\nstate S initial\n",
        "@component m\n@out o\n@var o = 0\n@state S\n@initial S\n",
        decl_spec(vars=(VarDecl("o", 0),)),
        3,
    ),
    "variable-before-channel": (
        "component m\nvar o = 0\nout chan o\nstate S initial\n",
        "@component m\n@var o = 0\n@out o\n@state S\n@initial S\n",
        decl_spec(vars=(VarDecl("o", 0),)),
        2,
    ),
    "duplicate-state": (
        "component m\nout chan o\nstate S initial\nstate S\n",
        "@component m\n@out o\n@state S\n@state S\n@initial S\n",
        decl_spec(states=("S", "S")),
        4,
    ),
    "no-states": (
        "component m\nout chan o\n",
        "@component m\n@out o\n",
        decl_spec(states=(), initial=None),
        1,
    ),
    "no-initial": (
        "component m\nout chan o\nstate S\n",
        "@component m\n@out o\n@state S\n",
        decl_spec(initial=None),
        1,
    ),
    # The textual style declares the initial state on its state line.
    "undeclared-initial": (
        None,
        "@component m\n@out o\n@state S\n@initial T\n",
        decl_spec(initial="T"),
        4,
    ),
}
DECLARATION_CASES = [
    pytest.param(rule, style, id=f"{rule}-{style}")
    for rule in sorted(DECLARATION_RULES)
    for style in ("textual", "table")
    if style == "table" or DECLARATION_RULES[rule][0] is not None
]


class TestParseComponent:
    def test_minimal_program(self):
        spec = parse_component("component tiny\nstate only initial\n")
        assert spec.states == ("only",)
        assert spec.initial == "only"
        assert spec.transitions == ()

    def test_undeclared_state_reference(self):
        text = "component m\nout chan out\nstate S0 initial\ntrans S0 -> S9\n"
        with pytest.raises(ParseFailure) as exc:
            parse_component(text)
        issue = exc.value.issues[0]
        assert "S9" in issue.message
        assert issue.span.line == 4

    def test_toggler_round_trip(self):
        spec = parse_component(TOGGLER)
        assert parse_component(print_component(spec)) == spec

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\ncomponent m   # trailing\nout chan out\nstate S initial\n"
        spec = parse_component(text)
        assert spec.name == "m"

    def test_clause_outside_transition(self):
        with pytest.raises(ParseFailure) as exc:
            parse_component("component m\nstate S initial\n  emit out: a\n")
        assert "clause outside" in exc.value.issues[0].message

    def test_duplicate_initial(self):
        with pytest.raises(ParseFailure) as exc:
            parse_component("component m\nstate A initial\nstate B initial\n")
        assert "more than one initial" in exc.value.issues[0].message

    def test_guards_and_updates_full_syntax(self):
        text = """\
component full
in chan a
in chan b
out chan y
var v = -1
state S initial
trans S -> S
  when a: contains(x:3), v < 5, v != 2
  when b: len>=2
  emit y: m n:1
  set v := v + 1
trans S -> S
  when a: first=q
  emit y: pass(b)
  set v := 7
"""
        spec = parse_component(text)
        assert parse_component(print_component(spec)) == spec
        t0 = spec.transitions[0]
        assert len(t0.interval_guards) == 2
        assert len(t0.var_guards) == 2
        assert t0.outputs[0].messages == interval("m", "n:1")

    def test_negative_add_round_trips(self):
        text = "component m\nin chan i\nout chan o\nvar v = 0\nstate S initial\ntrans S -> S\n  set v := v - 2\n"
        spec = parse_component(text)
        assert "v := v - 2" in print_component(spec)
        assert parse_component(print_component(spec)) == spec

    def test_errors_accumulate(self):
        text = "component m\nin chan ?\nstate S initial\ntrans S -> T\n"
        with pytest.raises(ParseFailure) as exc:
            parse_component(text)
        assert len(exc.value.issues) == 2

    @pytest.mark.parametrize(
        "clauses, line, channel",
        [
            (["when o: any"], 7, "o"),
            (["emit i: -"], 7, "i"),
            (["when i: any", "when i: empty"], 8, "i"),
            (["emit o: -", "emit o: a"], 8, "o"),
        ],
    )
    def test_normalised_away_clauses_still_checked(self, clauses, line, channel):
        # `when CH: any` and `emit CH: -` vanish from the Transition value,
        # yet a wrong one is still rejected at its own line.
        text = REF_HEADER + "trans S -> S\n" + "".join(f"  {c}\n" for c in clauses)
        with pytest.raises(ParseFailure) as exc:
            parse_component(text)
        [issue] = exc.value.issues
        assert f"'{channel}'" in issue.message
        assert issue.span.line == line

    @pytest.mark.parametrize("rule", sorted(REFERENCE_RULES))
    def test_reference_error_equals_validate_spec(self, rule):
        trans, clauses, transition, line = REFERENCE_RULES[rule]
        text = REF_HEADER + f"trans {trans}\n" + "".join(f"  {c}\n" for c in clauses)
        with pytest.raises(ParseFailure) as exc:
            parse_component(text)
        expected = error_messages(validate_spec(ref_spec(transition)))
        assert len(expected) == 1
        assert [i.message for i in exc.value.issues] == expected
        assert exc.value.issues[0].span.line == line


class TestParseTable:
    def test_any_row_copies_input_matches_textual(self):
        textual = parse_component(
            "component c\nin chan i\nout chan o\nstate S initial\ntrans S -> S\n  emit o: pass(i)\n"
        )
        table = parse_table(
            "@component c\n@in i\n@out o\n@state S\n@initial S\n"
            "source, when:i, guard, emit:o, set, target\n"
            "S, , , pass(i), , S\n"
        )
        assert table == textual

    def test_missing_cell_is_arity_error(self):
        text = (
            "@component c\n@in i\n@out o\n@state S\n@initial S\n"
            "source, when:i, guard, emit:o, set, target\n"
            "S, , , , S\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_table(text)
        issue = exc.value.issues[0]
        assert "5 cells" in issue.message and issue.span.line == 7

    def test_empty_data_section(self):
        spec = parse_table(
            "@component c\n@in i\n@out o\n@state A\n@state B\n@initial A\n"
            "source, when:i, guard, emit:o, set, target\n"
        )
        assert spec.states == ("A", "B")
        assert spec.transitions == ()

    def test_header_mismatch_reported(self):
        with pytest.raises(ParseFailure) as exc:
            parse_table("@component c\n@in i\n@out o\n@state S\n@initial S\nsource, target\n")
        assert "header row" in exc.value.issues[0].message

    @pytest.mark.parametrize("rule", sorted(TABLE_RULES))
    def test_reference_error_equals_validate_spec(self, rule):
        with pytest.raises(ParseFailure) as exc:
            parse_table(REF_TABLE_HEADER + TABLE_RULES[rule] + "\n")
        expected = error_messages(validate_spec(ref_spec(REFERENCE_RULES[rule][2])))
        assert [i.message for i in exc.value.issues] == expected
        assert exc.value.issues[0].span.line == 8

    def test_normalised_away_cells_do_not_hide_a_bad_row(self):
        # The `any` guard and `-` emission vanish from the Transition value;
        # the undeclared variable in the same row is still reported there.
        with pytest.raises(ParseFailure) as exc:
            parse_table(REF_TABLE_HEADER + "S, any, w > 0, -, , S\n")
        [issue] = exc.value.issues
        assert issue.message == "transition 1 (S -> S): guard on undeclared variable 'w'"
        assert issue.span.line == 8

    def test_semicolon_separated_cells(self):
        text = (
            "@component c\n@in i\n@out o\n@var v = 0\n@var w = 0\n@state S\n@initial S\n"
            "source, when:i, guard, emit:o, set, target\n"
            "S, nonempty, v < 3; w >= 1, a b, v := v + 1; w := 0, S\n"
        )
        spec = parse_table(text)
        t = spec.transitions[0]
        assert len(t.var_guards) == 2
        assert len(t.updates) == 2
        assert parse_table(print_table(spec)) == spec


class TestDeclarationRules:
    @pytest.mark.parametrize("rule, style", DECLARATION_CASES)
    def test_declaration_error_equals_validate_spec(self, rule, style):
        textual, table, spec, line = DECLARATION_RULES[rule]
        with pytest.raises(ParseFailure) as exc:
            parse_component(textual) if style == "textual" else parse_table(table)
        expected = error_messages(validate_spec(spec))
        assert len(expected) == 1
        assert [(i.span.line, i.message) for i in exc.value.issues] == [(line, expected[0])]

    def test_declaration_findings_follow_syntax_issues(self):
        text = "component m\nout chan o\nout chan o\nstate S initial\nbogus\n"
        with pytest.raises(ParseFailure) as exc:
            parse_component(text)
        assert [i.render() for i in exc.value.issues] == [
            "5:1: unknown directive 'bogus'",
            "3:1: duplicate channel name 'o'",
        ]

    def test_initial_before_its_state(self):
        ordered = "@component m\n@in i\n@out o\n@state A\n@state B\n@initial B\n"
        early = "@initial B\n@component m\n@state A\n@in i\n@state B\n@out o\n"
        header = "source, when:i, guard, emit:o, set, target\nB, , , a, , A\n"
        spec = parse_table(early + header)
        assert spec == parse_table(ordered + header)
        assert spec.initial == "B"


class TestStyleEquivalence:
    @pytest.mark.parametrize(
        "name", ["toggler", "passthrough", "counter", "gate", "watchdog"]
    )
    def test_sample_pairs_parse_equal(self, samples, name):
        textual = parse_component((samples / f"{name}.tstd").read_text())
        table = parse_table((samples / f"{name}.ttab").read_text())
        assert textual == table
        assert validate_spec(textual) == validate_spec(table)
        assert export_dot(textual) == export_dot(table)


traces = st.dictionaries(
    st.sampled_from(["in", "out", "x", "longer_name"]),
    st.lists(
        st.lists(
            st.builds(
                Message,
                tag=st.sampled_from(["a", "b", "msg"]),
                payload=st.one_of(st.none(), st.integers(-99, 99)),
            ),
            max_size=3,
        ).map(tuple),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=3,
).filter(lambda d: len({len(v) for v in d.values()}) == 1)


class TestTrace:
    def test_single_line(self):
        trace = parse_trace("ticks in\nin: -\n")
        assert trace.length == 1
        assert trace.channels["in"] == StreamPrefix(((),))

    def test_missing_channel_names_tick_and_channel(self):
        with pytest.raises(ParseFailure) as exc:
            parse_trace("ticks in out\nin: a | out: -\nin: b\n")
        assert "tick 1" in exc.value.issues[0].message
        assert "'out'" in exc.value.issues[0].message

    def test_unknown_channel(self):
        with pytest.raises(ParseFailure) as exc:
            parse_trace("ticks in\nin: - | ghost: a\n")
        assert "unknown channel 'ghost'" in exc.value.issues[0].message

    def test_payload_tokens(self):
        trace = parse_trace("ticks c\nc: a:3 b:-1\n")
        assert trace.channels["c"][0] == interval("a:3", "b:-1")

    def test_print_is_canonical_and_sorted(self):
        trace = Trace(
            {"z": StreamPrefix((interval("m"),)), "a": StreamPrefix(((),))}, 1
        )
        assert print_trace(trace) == "ticks a z\na: - | z: m\n"

    @given(traces)
    @settings(max_examples=150)
    def test_parse_inverts_print(self, channels):
        length = len(next(iter(channels.values())))
        trace = Trace({ch: StreamPrefix(tuple(ivs)) for ch, ivs in channels.items()}, length)
        assert parse_trace(print_trace(trace)) == trace

    def test_zero_channel_trace_round_trips(self):
        trace = Trace({}, 3)
        text = print_trace(trace)
        assert text == "ticks\n\n\n\n"
        assert parse_trace(text) == trace

    @pytest.mark.parametrize("comment", ["# note", "   # indented note"])
    def test_comment_lines_are_not_ticks(self, comment):
        trace = parse_trace(f"ticks in\nin: a\n{comment}\nin: -\n")
        assert trace.channels["in"] == StreamPrefix((interval("a"), ()))

    def test_comment_lines_are_not_ticks_without_channels(self):
        assert parse_trace("ticks\n\n# note\n\n") == Trace({}, 2)

    def test_print_parse_identity_on_canonical(self):
        text = "ticks a b\na: x | b: -\na: - | b: y:2 z\n"
        assert print_trace(parse_trace(text)) == text

    def test_payload_bearing_trace_round_trips(self):
        payloads = (None, 0, 1, -1, 7, -42, 10**30)
        shared = tuple(Message("m", p) for p in payloads)
        trace = Trace(
            {
                "a": StreamPrefix(tuple(tuple(Message("a", p) for p in payloads[: k % 4]) for k in range(12))),
                "b": StreamPrefix((shared, (), shared) * 4),
            },
            12,
        )
        text = print_trace(trace)
        assert "m:-42 m:" + "1" + "0" * 30 in text
        assert parse_trace(text) == trace
        assert print_trace(parse_trace(text)) == text


SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SAMPLE_PARSERS = {
    ".tstd": parse_component,
    ".ttab": parse_table,
    ".trc": parse_trace,
    ".tnet": lambda text: parse_network(text, base_dir=SAMPLES),
}


def parse_outcome(parse, text):
    """The parsed value, or the rendered issues of the ParseFailure."""
    try:
        return parse(text)
    except ParseFailure as exc:
        return [issue.render() for issue in exc.issues]


class TestLineEndings:
    """CRLF text reads like LF text: every parser strips each line it uses."""

    @pytest.mark.parametrize(
        "path", sorted(p for p in SAMPLES.iterdir() if p.suffix in SAMPLE_PARSERS), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("prefix", ["", "# leading comment\n"], ids=["plain", "commented"])
    def test_crlf_sample_parses_like_lf(self, path, prefix):
        parse = SAMPLE_PARSERS[path.suffix]
        lf = prefix + path.read_text()
        crlf = lf.replace("\n", "\r\n")
        assert "\r" in crlf
        assert parse_outcome(parse, crlf) == parse_outcome(parse, lf)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_trace, "ticks a b\na: x | b: -\na: x | b: -\na: x\na: x | b: -\n"),
            (parse_trace, "ticks a\na: 1x\na: y # note\na:\na: y\n"),
            (parse_component, "component c\nin chan x\nstate s initial\ntrans s -> t\n  when x: bogus\n"),
            (parse_table, "@component c\n@in x\n@state s\nsource, when:x, guard, set, target\ns, nope, , , s\n"),
        ],
        ids=["trace-missing", "trace-malformed", "component", "table"],
    )
    def test_crlf_issues_equal_lf_issues(self, parse, text):
        assert parse_outcome(parse, text.replace("\n", "\r\n")) == parse_outcome(parse, text)


class TestNetworkFormat:
    def test_identity_net(self, samples):
        net = parse_network((samples / "identity.tnet").read_text(), base_dir=samples)
        assert net.instances == ()
        assert net.external_in == ("in",)
        assert net.external_out == ("out",)

    def test_unknown_instance(self, samples):
        with pytest.raises(ParseFailure) as exc:
            parse_network("wire ghost.out -> extern y\n", base_dir=samples)
        assert "unknown instance" in exc.value.issues[0].message

    def test_feedback_sample_is_well_formed(self, samples):
        net = parse_network((samples / "feedback.tnet").read_text(), base_dir=samples)
        assert check_feedback_wellformed(net).well_formed

    def test_undelayed_sample_is_ill_formed(self, samples):
        net = parse_network(
            (samples / "feedback_undelayed.tnet").read_text(), base_dir=samples
        )
        result = check_feedback_wellformed(net)
        assert not result.well_formed
        assert set(result.cycle) == {"m", "p"}

    def test_missing_component_file(self, tmp_path):
        with pytest.raises(ParseFailure) as exc:
            parse_network("use p = file nope.tstd\n", base_dir=tmp_path)
        assert "not found" in exc.value.issues[0].message

    def test_component_validation_errors_surface_at_use_line(self, tmp_path):
        (tmp_path / "mute.tstd").write_text("component c\nin chan i\nstate S initial\n")
        with pytest.raises(ParseFailure) as exc:
            parse_network("wire extern a -> p.i\nuse p = file mute.tstd\n", base_dir=tmp_path)
        [issue] = exc.value.issues
        assert issue.render() == "2:1: in 'mute.tstd': spec declares no output channel"

    def test_component_parse_errors_surface(self, tmp_path):
        (tmp_path / "bad.tstd").write_text("component x\nstate\n")
        with pytest.raises(ParseFailure) as exc:
            parse_network(
                "use p = file bad.tstd\nwire extern a -> p.in\n", base_dir=tmp_path
            )
        assert any("bad.tstd" in i.message for i in exc.value.issues)

    def test_multiply_driven_reported_at_wire(self, samples):
        text = (
            "use p = file passthrough.tstd\n"
            "wire extern a -> p.in\n"
            "wire extern a -> p.in\n"
            "wire p.out -> extern b\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_network(text, base_dir=samples)
        issue = exc.value.issues[0]
        assert "already driven" in issue.message and issue.span.line == 3

    def test_undriven_port_reported_at_use_line(self, samples):
        text = (
            "use d = delay 1\n"
            "use p = file passthrough.tstd\n"
            "wire extern a -> d.in\n"
            "wire d.out -> extern b\n"
            "wire p.out -> extern c\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_network(text, base_dir=samples)
        [issue] = exc.value.issues
        assert issue.message == "input port 'p.in' is not driven"
        assert issue.span.line == 2

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["wire extern a -> p.nope", "wire p.out -> extern b"], 2),
            (["wire extern a -> p.in", "wire p.in -> extern b"], 3),
            (["wire extern a -> p.in", "wire ghost.out -> extern b"], 3),
            (["use p = delay 2", "wire extern a -> p.in", "wire p.out -> extern b"], 2),
            (["wire extern a -> p.in", "wire p.out -> extern b", "wire p.out -> extern b"], 4),
        ],
    )
    def test_wiring_error_equals_build_network(self, samples, lines, line):
        # A passthrough instance `p` on line 1, then the listed lines.
        text = "use p = file passthrough.tstd\n" + "".join(f"{l}\n" for l in lines)
        with pytest.raises(ParseFailure) as exc:
            parse_network(text, base_dir=samples)

        def endpoint(raw):
            if raw.startswith("extern "):
                return ExternalPort(raw.split(" ", 1)[1])
            return Port(*raw.split("."))

        spec = parse_component((samples / "passthrough.tstd").read_text())
        instances = [Instance.of_spec("p", spec)]
        wires, ext_in, ext_out = [], [], []
        for l in lines:
            if l.startswith("use "):
                instances.append(Instance.of_delay("p", 2))
                continue
            src, dst = (endpoint(e.strip()) for e in l[len("wire ") :].split("->"))
            wires.append(Wire(src, dst))
            for ep, pool in ((src, ext_in), (dst, ext_out)):
                if isinstance(ep, ExternalPort) and ep.name not in pool:
                    pool.append(ep.name)
        with pytest.raises(NetworkBuildError) as built:
            build_network(instances, wires, ext_in, ext_out)
        assert [i.message for i in exc.value.issues] == built.value.problems
        assert exc.value.issues[0].span.line == line

    def test_each_component_file_is_loaded_once(self, samples):
        # A 20-instance chain whose use lines name 4 files, 5 times each.
        calls = []

        def loader(path):
            calls.append(path)
            return parse_component((samples / "passthrough.tstd").read_text())

        text = "".join(f"use u{i} = file f{i % 4}.tstd\n" for i in range(20))
        text += "wire extern a -> u0.in\n"
        text += "".join(f"wire u{i}.out -> u{i + 1}.in\n" for i in range(19))
        text += "wire u19.out -> extern b\n"
        net = parse_network(text, base_dir=samples, loader=loader)
        assert sorted(calls) == [samples / f"f{k}.tstd" for k in range(4)]
        specs = {inst.id: inst.spec for inst in net.instances}
        assert all(specs[f"u{i}"] is specs[f"u{i % 4}"] for i in range(20))

    def test_bad_file_is_reported_at_every_use_line(self, tmp_path):
        (tmp_path / "mute.tstd").write_text("component c\nin chan i\nstate S initial\n")
        calls = []

        def loader(path):
            calls.append(path)
            return parse_component(path.read_text())

        text = (
            "use p = file mute.tstd\n"
            "use q = file nope.tstd\n"
            "use r = file ./mute.tstd\n"
            "use s = file nope.tstd\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_network(text, base_dir=tmp_path, loader=loader)
        assert [i.render() for i in exc.value.issues] == [
            "1:1: in 'mute.tstd': spec declares no output channel",
            "2:1: component file not found: 'nope.tstd'",
            "3:1: in './mute.tstd': spec declares no output channel",
            "4:1: component file not found: 'nope.tstd'",
        ]
        assert calls == [tmp_path / "mute.tstd", tmp_path / "nope.tstd"]


# More digits than Python's int() converts by default (4300).
LONG = "9" * 5000


def long_integer_issues(parse, text):
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    return [
        (i.span.line, i.span.column) for i in exc.value.issues if "5000 digits" in i.message
    ]


class TestLongIntegers:
    """Integer literals past the conversion limit are located parse errors."""

    @pytest.mark.parametrize("body", [f"a:{LONG}", f"b a:-{LONG}"])
    def test_trace(self, body):
        text = f"ticks in\nin: -\nin: {body}\n"
        assert long_integer_issues(parse_trace, text) == [(3, 1)]

    @pytest.mark.parametrize(
        "line",
        [
            f"var n = {LONG}",
            f"  when in: len={LONG}",
            f"  when in: contains(a:{LONG})",
            f"  when in: first=a:-{LONG}",
            f"  when in: any, n < {LONG}",
            f"  emit out: a a:{LONG}",
            f"  set n := n + {LONG}",
            f"  set n := {LONG}",
        ],
    )
    def test_component(self, line):
        head = "component m\nin chan in\nout chan out\nvar n = 0\nstate S initial\ntrans S -> S\n"
        if line.startswith("var"):
            text = head.replace("var n = 0", line)
            where = (4, 1)
        else:
            text = head + line + "\n"
            where = (7, 1)
        assert long_integer_issues(parse_component, text) == [where]

    @pytest.mark.parametrize(
        "row, column",
        [
            (f"S, len>={LONG}, , , , S", 3),
            (f"S, , n >= 1; n == {LONG}, , , S", 5),
            (f"S, , , x a:{LONG}, , S", 7),
            (f"S, , , , n := n - {LONG}, S", 9),
        ],
    )
    def test_table(self, row, column):
        head = (
            "@component m\n@in in\n@out out\n@var n = 0\n@state S\n@initial S\n"
            "source, when:in, guard, emit:out, set, target\n"
        )
        assert long_integer_issues(parse_table, head + row + "\n") == [(8, column)]
        text = head.replace("@var n = 0", f"@var n = {LONG}") + "S, , , , , S\n"
        assert long_integer_issues(parse_table, text) == [(4, 1)]

    def test_network(self):
        text = f"use d = delay 1\nuse e = delay {LONG}\nwire extern in -> d.in\n"
        assert long_integer_issues(lambda t: parse_network(t, base_dir="."), text) == [(2, 1)]


# A decimal digit that is not ASCII: ARABIC-INDIC DIGIT THREE.
DIGIT = "\u0663"


def issues(parse, text):
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    return [i.render() for i in exc.value.issues]


class TestAsciiIntegers:
    """An integer literal is ASCII digits; any other decimal digit is a
    located parse error in every reader, not the digit it stands for."""

    def test_trace(self):
        text = f"ticks c\nc: -\nc: b a:{DIGIT}\n"
        assert issues(parse_trace, text)[0] == f"3:1: malformed message token 'a:{DIGIT}'"

    @pytest.mark.parametrize(
        "line, issue",
        [
            (f"var n = {DIGIT}", "4:1: expected 'var NAME = INT'"),
            (f"  when in: len={DIGIT}", f"7:1: malformed interval pattern 'len={DIGIT}'"),
            (f"  when in: any, n >= {DIGIT}", f"7:1: malformed variable guard 'n >= {DIGIT}'"),
            (f"  set n := {DIGIT}", "7:1: expected 'set VAR := VAR + INT | VAR - INT | INT'"),
            (f"  emit out: a:{DIGIT}", f"7:1: malformed message token 'a:{DIGIT}'"),
        ],
        ids=["var", "len", "guard", "set", "emit"],
    )
    def test_component(self, line, issue):
        head = "component m\nin chan in\nout chan out\nvar n = 0\nstate S initial\ntrans S -> S\n"
        text = head.replace("var n = 0", line) if line.startswith("var") else head + line + "\n"
        assert issues(parse_component, text) == [issue]

    @pytest.mark.parametrize(
        "row, issue",
        [
            (f"S, len>={DIGIT}, , , , S", f"8:3: malformed interval pattern 'len>={DIGIT}'"),
            (f"S, , n >= {DIGIT}, , , S", f"8:5: malformed variable guard 'n >= {DIGIT}'"),
            (f"S, , , a:{DIGIT}, , S", f"8:7: malformed message token 'a:{DIGIT}'"),
            (f"S, , , , n := {DIGIT}, S", f"8:9: malformed update 'n := {DIGIT}'"),
        ],
        ids=["when", "guard", "emit", "set"],
    )
    def test_table(self, row, issue):
        head = (
            "@component m\n@in in\n@out out\n@var n = 0\n@state S\n@initial S\n"
            "source, when:in, guard, emit:out, set, target\n"
        )
        assert issues(parse_table, head + row + "\n") == [issue]
        text = head.replace("@var n = 0", f"@var n = {DIGIT}") + "S, , , , , S\n"
        assert issues(parse_table, text) == ["4:1: expected '@var NAME = INT'"]

    def test_network(self):
        text = f"use d = delay 1\nuse e = delay {DIGIT}\nwire extern in -> d.in\n"
        found = issues(lambda t: parse_network(t, base_dir="."), text)
        assert found[0] == "2:1: delay depth must be an integer >= 1"


class TestDot:
    def test_single_state(self):
        spec = parse_component("component one\nout chan o\nstate S initial\n")
        dot = export_dot(spec)
        assert dot.count("->") == 0
        assert '"S" [shape=doublecircle];' in dot

    def test_toggler_edges(self):
        dot = export_dot(parse_component(TOGGLER))
        assert '"S0" -> "S1" [label="any / out: tick / -"];' in dot
        assert '"S1" -> "S0" [label="any / - / -"];' in dot

    def test_equal_specs_equal_bytes(self):
        spec = parse_component(TOGGLER)
        assert export_dot(spec) == export_dot(parse_component(print_component(spec)))


class TestFuzzSafety:
    def test_random_specs_round_trip_both_styles(self):
        rng = Random(2024)
        for _ in range(150):
            spec = random_spec(rng)
            assert parse_component(print_component(spec)) == spec
            assert parse_table(print_table(spec)) == spec

    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_parsers_never_crash(self, text):
        for parser in (parse_component, parse_table, parse_trace):
            try:
                parser(text)
            except ParseFailure:
                pass
        try:
            parse_network(text, base_dir="/nonexistent_dir_for_fuzz")
        except ParseFailure:
            pass


# Each pattern as its module spelled it out before the identifier, integer
# and message-token rules were written once, in tstd.streams; integers are
# ASCII digits only, so ``[0-9]`` where those modules wrote ``\d``.
SPELLED_OUT = {
    (tstd.streams, "IDENT_RE"): r"[A-Za-z][A-Za-z0-9_]*\Z",
    (tstd.streams, "_MESSAGE_RE"): r"([A-Za-z][A-Za-z0-9_]*)(?::(-?[0-9]+))?\Z",
    (tstd.dsl, "_INT_RE"): r"-?[0-9]+\Z",
    (tstd.dsl, "_LEN_RE"): r"len\s*(>=|=)\s*(-?[0-9]+)\Z",
    (tstd.dsl, "_VARGUARD_RE"): r"([A-Za-z][A-Za-z0-9_]*)\s*(<=|>=|!=|==|=|<|>)\s*(-?[0-9]+)\Z",
    (tstd.dsl, "_UPDATE_RE"): (
        r"([A-Za-z][A-Za-z0-9_]*)\s*:=\s*(?:([A-Za-z][A-Za-z0-9_]*)\s*([+-])\s*)?(-?[0-9]+)\Z"
    ),
    (tstd.dsl, "_PASS_RE"): r"pass\(\s*([A-Za-z][A-Za-z0-9_]*)\s*\)\Z",
    (tstd.dsl, "_TRANS_RE"): r"([A-Za-z][A-Za-z0-9_]*)\s*->\s*([A-Za-z][A-Za-z0-9_]*)\Z",
    (tstd.network, "_ENDPOINT_RE"): (
        r"(?:extern\s+([A-Za-z][A-Za-z0-9_]*)|([A-Za-z][A-Za-z0-9_]*)\.([A-Za-z][A-Za-z0-9_]*))\Z"
    ),
}

# Fillers of the corpus templates: identifiers, integers (signed, with
# underscores, spaces and non-ASCII digits), separators and operators.
SYNTAX_POOLS = {
    "i": ["a", "in", "x_1", "Z9", "tag_", "_a", "1a", "é", "aé", "a-b", "len", "extern", "pass"],
    "n": ["0", "7", "42", "-3", "--3", "+3", "1_000", "٣", "-٣", "１２", "- 4", "3 ", "", "-"],
    "s": ["", "", " ", "  ", "\t"],
    "r": ["<=", ">=", "!=", "==", "=", "<", ">", "=<", "=>"],
    "o": ["+", "-", "*", "+-"],
}
SYNTAX_TEMPLATES = [
    "{i}", "{n}", "{i}:{n}", "{i}:{s}{n}", "{i}{s}:{n}{s}{i}:{n}",
    "len{s}>={s}{n}", "len{s}={s}{n}", "len{s}{r}{s}{n}",
    "{i}{s}{r}{s}{n}",
    "{i}{s}:={s}{n}", "{i}{s}:={s}{i}{s}{o}{s}{n}",
    "pass({s}{i}{s})", "pass({i}",
    "{i}{s}->{s}{i}", "{i}->{i}->{i}",
    "extern{s}{i}", "extern{i}", "{i}.{i}", "{i}.{i}.{i}", "{i}{s}.{s}{i}",
]
SYNTAX_CHARS = "aZ_09-+:=<>!.() \t\n٣é"


def _syntax_corpus(count, seed):
    """Seeded texts from the templates, a third of them with one character
    inserted, deleted or replaced."""
    rng = Random(seed)
    texts = []
    for _ in range(count):
        template = rng.choice(SYNTAX_TEMPLATES)
        text = re.sub(r"\{(\w)\}", lambda m: rng.choice(SYNTAX_POOLS[m.group(1)]), template)
        if text and rng.random() < 1 / 3:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(SYNTAX_CHARS) + text[k + rng.randrange(2):]
        texts.append(text)
    return texts


def test_composed_patterns_match_as_spelled_out():
    corpus = _syntax_corpus(20_000, seed=20)
    matched = dict.fromkeys(SPELLED_OUT, 0)
    for (module, name), text in SPELLED_OUT.items():
        composed, oracle = getattr(module, name), re.compile(text)
        assert composed.flags == oracle.flags
        for sample in corpus:
            got, want = composed.match(sample), oracle.match(sample)
            assert (got and (got.span(), got.groups())) == (
                want and (want.span(), want.groups())
            ), (name, sample)
            matched[module, name] += want is not None
    # Every pattern both matches and refuses a good share of the corpus.
    assert all(100 < count < len(corpus) - 100 for count in matched.values()), matched
