import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tstd.gen
from tstd import cli
from tstd.trace_format import parse_trace

from conftest import SAMPLES, run_cli


class TestValidate:
    def test_valid_file(self, samples):
        r = run_cli("validate", str(samples / "toggler.tstd"))
        assert r.code == 0
        assert "ok: component 'toggler'" in r.out

    def test_undeclared_state(self, tmp_path):
        p = tmp_path / "bad.tstd"
        p.write_text("component m\nout chan o\nstate S initial\ntrans S -> T\n")
        r = run_cli("validate", str(p))
        assert r.code == 1
        assert "T" in r.out

    def test_missing_file(self):
        r = run_cli("validate", "/no/such/file.tstd")
        assert r.code == 3

    def test_overlong_initial_value_is_reported(self, samples, tmp_path):
        text = (samples / "counter.tstd").read_text().replace("var n = 0", "var n = " + "9" * 5000)
        p = tmp_path / "big.tstd"
        p.write_text(text)
        r = run_cli("validate", str(p))
        assert r.code == 1
        assert r.out.startswith("error: line 5:1: integer literal of 5000 digits")

    def test_parse_error_is_printed_once(self, tmp_path):
        p = tmp_path / "bad.tstd"
        p.write_text("component m\nin chan i\nout chan o\nvar v = x\nstate S initial\n")
        r = run_cli("validate", str(p))
        assert r.code == 1
        assert r.out == "error: line 4:1: expected 'var NAME = INT'\n"

    def test_warnings_only_exit_zero(self, samples):
        r = run_cli("validate", str(samples / "counter.tstd"))
        assert r.code == 0
        assert "warning" in r.out

    def test_table_format_flag(self, samples):
        r = run_cli("validate", str(samples / "gate.ttab"), "--format", "table")
        assert r.code == 0

    def test_bad_flag_usage_error(self, samples):
        r = run_cli("validate", str(samples / "toggler.tstd"), "--format", "binary")
        assert r.code == 2


@pytest.mark.parametrize(
    "command", [("simulate",), ("check", "causality"), ("export-dot",)], ids=" ".join
)
def test_spec_without_output_channel_exits_1(command, tmp_path):
    spec = tmp_path / "mute.tstd"
    spec.write_text("component c\nin chan i\nstate S initial\n")
    trace = tmp_path / "in.trc"
    trace.write_text("ticks i\ni: -\n")
    argv = [*command, str(spec)] + ([str(trace)] if command == ("simulate",) else [])
    r = run_cli(*argv)
    assert r.code == 1
    assert r.err == f"{spec}: error: spec declares no output channel\n"
    assert r.out == ""
    r = run_cli("validate", str(spec))
    assert r.code == 1
    assert r.out == "error: spec declares no output channel\n"


class TestSimulate:
    def test_toggler_golden(self, samples, data, tmp_path):
        out = tmp_path / "out.trc"
        r = run_cli(
            "simulate",
            str(samples / "toggler.tstd"),
            str(samples / "empty4.trc"),
            "--out",
            str(out),
        )
        assert r.code == 0
        assert "simulated 4 ticks" in r.out
        assert out.read_text() == (data / "toggler_out4.trc").read_text()

    def test_zero_tick_trace(self, samples, tmp_path):
        trc = tmp_path / "zero.trc"
        trc.write_text("ticks in\n")
        r = run_cli("simulate", str(samples / "toggler.tstd"), str(trc))
        assert r.code == 0
        assert r.out == "ticks out\n"

    def test_wrong_channels(self, samples, tmp_path):
        trc = tmp_path / "wrong.trc"
        trc.write_text("ticks nope\nnope: -\n")
        r = run_cli("simulate", str(samples / "toggler.tstd"), str(trc))
        assert r.code == 1

    def test_malformed_trace_is_usage_error(self, samples, tmp_path):
        trc = tmp_path / "junk.trc"
        trc.write_text("not a trace\n")
        r = run_cli("simulate", str(samples / "toggler.tstd"), str(trc))
        assert r.code == 2

    def test_overlong_payload_is_usage_error(self, samples, tmp_path):
        trc = tmp_path / "big.trc"
        trc.write_text("ticks in\nin: a:" + "9" * 5000 + "\n")
        r = run_cli("simulate", str(samples / "watchdog.tstd"), str(trc))
        assert r.code == 2
        assert "big.trc:2:1: integer literal of 5000 digits" in r.err


class TestStream:
    def write(self, tmp_path, text):
        p = tmp_path / "t.trc"
        p.write_text(text)
        return str(p)

    def test_split_all_first(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a b\nc: -\n")
        r = run_cli("stream", "split", p, "-n", "2", "--strategy", "all-first")
        assert r.code == 0
        assert r.out == "ticks c\nc: a b\nc: -\nc: -\nc: -\n"

    def test_join_identity(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a\nc: b\n")
        r = run_cli("stream", "join", p, "-n", "1")
        assert r.code == 0
        assert r.out == "ticks c\nc: a\nc: b\n"

    def test_join_non_aligned_fails(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a\nc: b\nc: -\n")
        r = run_cli("stream", "join", p, "-n", "2")
        assert r.code == 1

    def test_join_pad(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a\nc: b\nc: c\n")
        r = run_cli("stream", "join", p, "-n", "2", "--pad")
        assert r.code == 0
        assert r.out == "ticks c\nc: a b\nc: c\n"

    def test_zero_factor_is_usage_error(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a\n")
        r = run_cli("stream", "split", p, "-n", "0")
        assert r.code == 2

    # 10**30 does not fit an index, so these fail before allocating anything.
    # split builds an n-tick filler even for an empty trace.
    @pytest.mark.parametrize(
        "argv, body",
        [
            (("split", "-n", str(10**30)), "c: a\nc: -\n"),
            (("split", "-n", str(10**30)), ""),
            (("split", "-n", str(10**30), "--strategy", "spread"), "c: -\nc: a\n"),
            (("delay", "-d", str(10**30)), "c: a\n"),
            (("delay", "-d", str(10**30)), ""),
            (("join", "-n", str(10**30), "--pad"), "c: a\n"),
        ],
    )
    def test_huge_factor_is_usage_error(self, tmp_path, argv, body):
        p = self.write(tmp_path, "ticks c\n" + body)
        op, *flags = argv
        r = run_cli("stream", op, p, *flags)
        assert r.code == 2
        assert r.out == ""
        assert "result too large" in r.err

    # 10**15 fits an index, so these ask for 8 PB of empty ticks, more than
    # any address space holds: the allocation fails at once.
    @pytest.mark.parametrize(
        "argv", [("delay", "-d", str(10**15)), ("join", "-n", str(10**15), "--pad")]
    )
    def test_unallocatable_result_is_usage_error(self, tmp_path, argv):
        p = self.write(tmp_path, "ticks c\nc: a\n")
        op, *flags = argv
        r = run_cli("stream", op, p, *flags)
        assert r.code == 2
        assert r.out == ""
        assert r.err == "result too large: not enough memory\n"

    def test_merge(self, tmp_path):
        a = tmp_path / "a.trc"
        a.write_text("ticks c\nc: a\nc: -\n")
        b = tmp_path / "b.trc"
        b.write_text("ticks c\nc: b\nc: x y\n")
        r = run_cli("stream", "merge", str(a), str(b))
        assert r.code == 0
        assert r.out == "ticks c\nc: a b\nc: x y\n"

    def test_merge_length_mismatch(self, tmp_path):
        a = tmp_path / "a.trc"
        a.write_text("ticks c\nc: a\n")
        b = tmp_path / "b.trc"
        b.write_text("ticks c\nc: b\nc: -\n")
        r = run_cli("stream", "merge", str(a), str(b))
        assert r.code == 1

    def test_abstract(self, tmp_path):
        p = self.write(tmp_path, "ticks c d\nc: a | d: -\nc: b | d: -\n")
        r = run_cli("stream", "abstract", p)
        assert r.code == 0
        assert r.out == "c: a b\nd: -\n"

    def test_delay(self, tmp_path):
        p = self.write(tmp_path, "ticks c\nc: a\n")
        r = run_cli("stream", "delay", p, "-d", "2")
        assert r.code == 0
        assert r.out == "ticks c\nc: -\nc: -\nc: a\n"


class TestCheck:
    def test_constant_spec_consistent(self, tmp_path):
        p = tmp_path / "const.tstd"
        p.write_text(
            "component const\nin chan in\nout chan out\nstate S initial\ntrans S -> S\n  emit out: k\n"
        )
        r = run_cli("check", "causality", str(p))
        assert r.code == 0
        assert "consistent-with-strong" in r.out

    def test_passthrough_refuted_with_replayable_witness(self, samples, tmp_path):
        r = run_cli("check", "causality", str(samples / "passthrough.tstd"))
        assert r.code == 1
        assert "refuted-strong" in r.out
        # Extract the two witness traces and replay them through simulate.
        body = r.out.split("# input a\n")[1]
        trace_a, trace_b = body.split("# input b\n")
        outputs = []
        for text in (trace_a, trace_b):
            f = tmp_path / "w.trc"
            f.write_text(text)
            rr = run_cli("simulate", str(samples / "passthrough.tstd"), str(f))
            assert rr.code == 0
            outputs.append(rr.out)
        assert outputs[0] != outputs[1]

    def test_untimed_sim_agree(self, samples):
        r = run_cli(
            "check",
            "untimed-sim",
            str(samples / "passthrough.tstd"),
            str(samples / "passthrough.tstd"),
        )
        assert r.code == 0
        assert "agree" in r.out

    def test_untimed_sim_disagree(self, samples, tmp_path):
        p = tmp_path / "shout.tstd"
        p.write_text(
            "component shout\nin chan in\nout chan out\nstate S initial\ntrans S -> S\n  emit out: loud\n"
        )
        r = run_cli(
            "check", "untimed-sim", str(samples / "passthrough.tstd"), str(p)
        )
        assert r.code == 1
        assert "disagree" in r.out

    def test_gate_causality_golden(self, samples, data):
        # Two input channels: the witness pins the order of the draws across them.
        r = run_cli("check", "causality", str(samples / "gate.tstd"))
        assert r.code == 1
        assert r.out.encode() == (data / "gate_causality.txt").read_bytes()

    def test_toggler_passthrough_untimed_golden(self, samples, data):
        r = run_cli(
            "check", "untimed-sim", str(samples / "toggler.tstd"), str(samples / "passthrough.tstd")
        )
        assert r.code == 1
        assert r.out.encode() == (data / "toggler_passthrough_untimed.txt").read_bytes()

    def test_untimed_sim_signature_mismatch(self, samples, tmp_path):
        p = tmp_path / "renamed.tstd"
        p.write_text("component r\nin chan x\nout chan out\nstate S initial\n")
        r = run_cli("check", "untimed-sim", str(samples / "passthrough.tstd"), str(p))
        assert r.code == 1
        assert r.err == "specs have different channel signatures\n"
        assert r.out == ""

    def test_feedback_well_formed(self, samples):
        r = run_cli("check", "feedback", str(samples / "feedback.tnet"))
        assert r.code == 0
        assert "well-formed" in r.out

    def test_feedback_refuses_invalid_component(self, tmp_path):
        net = mute_network(tmp_path)
        r = run_cli("check", "feedback", str(net))
        assert r.code == 2
        assert r.err == f"{net}:1:1: in 'mute.tstd': spec declares no output channel\n"
        assert r.out == ""

    def test_feedback_ill_formed(self, samples):
        r = run_cli("check", "feedback", str(samples / "feedback_undelayed.tnet"))
        assert r.code == 1
        assert r.out == "ill-formed: instantaneous cycle m -> p\n"

    def test_feedback_weak_self_loop(self, samples, tmp_path):
        net = tmp_path / "self.tnet"
        net.write_text(
            f"use p = file {samples / 'passthrough.tstd'}\n"
            "wire p.out -> p.in\n"
            "wire p.out -> extern out\n"
        )
        r = run_cli("check", "feedback", str(net))
        assert r.code == 1
        assert r.out == "ill-formed: instantaneous cycle p\n"

    def test_loop_through_a_fixed_port_is_well_formed(self, samples, tmp_path):
        # The tap's y passes its input a, while its state fixes z, so the
        # loop from z back to a resolves within the tick.
        net = tmp_path / "tap_self.tnet"
        net.write_text(
            f"use m = file {samples / 'tap.tstd'}\n"
            "wire m.z -> m.a\n"
            "wire m.y -> extern out\n"
        )
        r = run_cli("check", "feedback", str(net))
        assert (r.code, r.out) == (0, "well-formed\n")
        trc = tmp_path / "none.trc"
        trc.write_text("ticks\n")
        r = run_cli("compose", str(net), str(trc), "--ticks", "4")
        assert r.code == 0
        assert r.out == "ticks out\n" + "out: tick\n" * 4


def mute_network(tmp_path):
    """A network using a component that declares no output channel."""
    (tmp_path / "mute.tstd").write_text("component c\nin chan i\nstate S initial\n")
    net = tmp_path / "mute.tnet"
    net.write_text("use p = file mute.tstd\nwire extern x -> p.i\n")
    return net


class TestCompose:
    def test_invalid_component_refused(self, tmp_path):
        net = mute_network(tmp_path)
        trc = tmp_path / "in.trc"
        trc.write_text("ticks x\nx: -\n")
        r = run_cli("compose", str(net), str(trc))
        assert r.code == 2
        assert r.err == f"{net}:1:1: in 'mute.tstd': spec declares no output channel\n"

    def test_ticks_too_large_without_external_inputs(self, tmp_path):
        net = tmp_path / "loop.tnet"
        net.write_text(
            "use d = delay 1\n"
            "use m = merge\n"
            "wire d.out -> m.in1\n"
            "wire d.out -> m.in2\n"
            "wire m.out -> d.in\n"
            "wire m.out -> extern y\n"
        )
        trc = tmp_path / "none.trc"
        trc.write_text("ticks\n")
        r = run_cli("compose", str(net), str(trc), "--ticks", "1" + "0" * 30)
        assert r.code == 2
        assert r.err.startswith("result too large: ")
        assert r.out == ""

    def test_trace_channels_must_be_the_extern_inputs(self, samples, tmp_path):
        trc = tmp_path / "in.trc"
        trc.write_text("ticks other\nother: a\n")
        r = run_cli("compose", str(samples / "identity.tnet"), str(trc))
        assert r.code == 1
        assert r.err == "external inputs ['other'] do not match network inputs ['in']\n"
        assert r.out == ""

    def test_identity_net(self, samples, tmp_path):
        trc = tmp_path / "in.trc"
        trc.write_text("ticks in\nin: a b\nin: -\n")
        r = run_cli("compose", str(samples / "identity.tnet"), str(trc))
        assert r.code == 0
        assert r.out == "ticks out\nout: a b\nout: -\n"

    def test_feedback_golden(self, samples, data, tmp_path):
        out = tmp_path / "out.trc"
        r = run_cli(
            "compose",
            str(samples / "feedback.tnet"),
            str(samples / "feedback_in.trc"),
            "--out",
            str(out),
        )
        assert r.code == 0
        assert out.read_text() == (data / "feedback_out3.trc").read_text()

    def test_tap_loop_golden(self, samples, data):
        r = run_cli("compose", str(samples / "tap_loop.tnet"), str(samples / "empty4.trc"))
        assert r.code == 0
        assert r.out == (data / "tap_loop_out4.trc").read_text()

    def test_delay_net(self, samples, tmp_path):
        trc = tmp_path / "in.trc"
        trc.write_text("ticks in\nin: a\nin: b\n")
        r = run_cli("compose", str(samples / "delay1.tnet"), str(trc))
        assert r.code == 0
        assert r.out == "ticks out\nout: -\nout: a\n"

    def test_delay_deeper_than_any_int_index(self, tmp_path):
        net = tmp_path / "deep.tnet"
        net.write_text(
            "use d = delay 1000000000000000000000000000000\n"
            "wire extern in -> d.in\n"
            "wire d.out -> extern out\n"
        )
        trc = tmp_path / "in.trc"
        trc.write_text("ticks in\nin: a\nin: b\n")
        r = run_cli("compose", str(net), str(trc))
        assert r.code == 0
        assert r.out == "ticks out\nout: -\nout: -\n"

    def test_ill_formed_refused(self, samples):
        r = run_cli(
            "compose",
            str(samples / "feedback_undelayed.tnet"),
            str(samples / "feedback_in.trc"),
        )
        assert r.code == 1

    def test_ticks_conflict_is_usage_error(self, samples):
        r = run_cli(
            "compose",
            str(samples / "feedback.tnet"),
            str(samples / "feedback_in.trc"),
            "--ticks",
            "5",
        )
        assert r.code == 2


class TestGenTrace:
    def test_deterministic(self):
        a = run_cli("gen-trace", "--channels", "x,y", "--ticks", "20", "--seed", "7")
        b = run_cli("gen-trace", "--channels", "x,y", "--ticks", "20", "--seed", "7")
        assert a.code == 0 and a.out == b.out

    def test_zero_ticks_header_only(self):
        r = run_cli("gen-trace", "--channels", "x", "--ticks", "0")
        assert r.code == 0
        assert r.out == "ticks x\n"

    def test_empty_channel_list_rejected(self):
        r = run_cli("gen-trace", "--channels", "", "--ticks", "3")
        assert r.code == 2

    @pytest.mark.parametrize(
        "channels, message",
        [("x,1y", "--channels: invalid name '1y'"), ("x,y,x", "--channels lists a name twice")],
    )
    def test_bad_channel_names_rejected(self, channels, message):
        r = run_cli("gen-trace", "--channels", channels, "--ticks", "3")
        assert r.code == 2
        assert r.err == message + "\n"
        assert r.out == ""

    def test_output_is_parseable_with_requested_shape(self):
        r = run_cli(
            "gen-trace",
            "--channels",
            "c",
            "--ticks",
            "50",
            "--max-len",
            "2",
            "--alphabet",
            "p,q",
        )
        trace = parse_trace(r.out)
        assert trace.length == 50
        for iv in trace.channels["c"]:
            assert len(iv) <= 2
            assert all(m.tag in ("p", "q") for m in iv)

    def test_interval_length_mean_is_uniform(self):
        # Lengths drawn uniformly from 0..max-len have mean (max-len)/2.
        r = run_cli("gen-trace", "--channels", "c", "--ticks", "10000", "--max-len", "3")
        trace = parse_trace(r.out)
        mean = sum(len(iv) for iv in trace.channels["c"]) / trace.length
        assert abs(mean - 1.5) < 0.1

    # Past sys.maxsize no sequence can hold the result, so these are refused
    # before a single interval is drawn; a generator that is reached fails
    # the test instead of filling memory.
    @pytest.mark.parametrize(
        "flags, unit",
        [
            (("--ticks", "9" * 20), "ticks"),
            (("--ticks", "3", "--max-len", "9" * 20), "messages per interval"),
        ],
    )
    def test_huge_size_is_usage_error(self, monkeypatch, flags, unit):
        def refuse(*args, **kwargs):
            raise AssertionError("random_trace reached")

        monkeypatch.setattr(tstd.gen, "random_trace", refuse)
        r = run_cli("gen-trace", "--channels", "c", *flags)
        assert r.code == 2
        assert r.out == ""
        assert r.err.startswith("result too large: ")
        assert r.err.rstrip().endswith(unit)


class TestExportDot:
    def test_toggler(self, samples):
        r = run_cli("export-dot", str(samples / "toggler.tstd"))
        assert r.code == 0
        assert r.out.startswith('digraph "toggler"')
        assert r.out.count("->") == 2

    def test_identical_across_styles(self, samples):
        a = run_cli("export-dot", str(samples / "watchdog.tstd"))
        b = run_cli("export-dot", str(samples / "watchdog.ttab"))
        assert a.out == b.out

    def test_parse_error_is_usage_error(self, tmp_path):
        p = tmp_path / "junk.tstd"
        p.write_text("xyzzy\n")
        r = run_cli("export-dot", str(p))
        assert r.code == 2


def _parse_outcome(parser, argv):
    """stdout, stderr and the exit code or parsed arguments of ``argv``;
    a handler is compared by its name and the values it closes over."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return out.getvalue(), err.getvalue(), exc.code
    func = args.pop("func")
    handler = func.__name__, [cell.cell_contents for cell in func.__closure__ or ()]
    return out.getvalue(), err.getvalue(), (args, handler)


PARSER_CASES = [
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["bogus", "--help"],
    ["--bogus", "simulate", "a", "b"],
    *([name, "--help"] for name in cli._COMMANDS),
    *([name] for name in cli._COMMANDS),
    *(["stream", op, "--help"] for op in ("split", "join", "merge", "abstract", "delay")),
    *(["check", kind, "--help"] for kind in ("causality", "untimed-sim", "feedback")),
    ["stream", "bogus"],
    ["check", "bogus"],
    ["stream", "split", "t"],
    ["check", "untimed-sim", "a"],
    ["gen-trace", "--ticks", "3"],
    ["simulate", "a", "b", "--bogus"],
    ["validate", "a", "extra"],
    ["stream", "merge", "a", "b", "c"],
    ["check", "feedback", "n", "--trials", "3"],
    ["validate", "x", "--format", "yaml"],
    ["stream", "split", "t", "-n", "2", "--strategy", "x"],
    ["stream", "split", "t", "-n", "0"],
    ["compose", "n", "t", "--ticks", "-1"],
    ["check", "causality", "s", "--horizon", "x"],
    ["simulate", "a", "b", "--out", "o"],
    ["stream", "join", "t", "-n", "2", "--pad"],
    ["stream", "delay", "t", "-d", "3"],
    ["check", "causality", "s", "--trials", "5"],
    ["gen-trace", "--channels", "a", "--ticks", "3", "--max-len", "1"],
    ["export-dot", "s"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv):
    parser = cli._parser_for(argv)
    known = bool(argv) and argv[0] in cli._COMMANDS
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == (argv[:1] if known else list(cli._COMMANDS))
    assert _parse_outcome(parser, argv) == _parse_outcome(cli.build_parser(), argv)


def _stdout(*argv):
    r = run_cli(*argv)
    assert r.code == 0, r.err
    return r.out


def _saved(path, text):
    path.write_text(text)
    return str(path)


def _one_instance_net(path, component):
    """A network of one instance of ``component`` from extern in to extern out."""
    text = f"use c = file {component}\nwire extern in -> c.in\nwire c.out -> extern out\n"
    return _saved(path, text)


def _split(tmp_path, trace):
    text = _stdout("stream", "split", trace, "-n", "4", "--strategy", "spread")
    return _saved(tmp_path / "split.trc", text)


def _split_then_join(tmp_path, trace, seed):
    return _stdout("stream", "join", _split(tmp_path, trace), "-n", "4"), Path(trace).read_text()


def _merge_with_silence(tmp_path, trace, seed):
    silent = _stdout(
        "gen-trace", "--channels", "a,b", "--ticks", "50", "--seed", seed, "--max-len", "0"
    )
    merged = _stdout("stream", "merge", trace, _saved(tmp_path / "silent.trc", silent))
    return merged, Path(trace).read_text()


def _abstract_after_split(tmp_path, trace, seed):
    split = _split(tmp_path, trace)
    return _stdout("stream", "abstract", split), _stdout("stream", "abstract", trace)


def _delay_prefixes_silence(tmp_path, trace, seed):
    header, _, ticks = Path(trace).read_text().partition("\n")
    delayed = _stdout("stream", "delay", trace, "-d", "2")
    return delayed, header + "\n" + "a: - | b: -\n" * 2 + ticks


def _simulate_is_compose(tmp_path, trace, seed):
    # simulate runs the free-running state loops, compose the lock-step
    # tick functions of a one-instance network.
    spec = SAMPLES / "watchdog.tstd"
    inputs = _stdout("gen-trace", "--channels", "in", "--ticks", "500", "--seed", seed)
    inputs = _saved(tmp_path / "in.trc", inputs)
    net = _one_instance_net(tmp_path / "w.tnet", spec)
    return _stdout("simulate", str(spec), inputs), _stdout("compose", net, inputs)


CLI_LAWS = [
    _split_then_join,
    _merge_with_silence,
    _abstract_after_split,
    _delay_prefixes_silence,
    _simulate_is_compose,
]


@pytest.mark.parametrize("seed", ["3", "4"])
@pytest.mark.parametrize("law", CLI_LAWS, ids=lambda law: law.__name__.strip("_"))
def test_cli_law(law, seed, tmp_path):
    """Two commands, or a command and a plain text edit, give the same bytes
    on a gen-trace output."""
    trace = _stdout("gen-trace", "--channels", "a,b", "--ticks", "50", "--seed", seed)
    left, right = law(tmp_path, _saved(tmp_path / "in_ab.trc", trace), seed)
    assert left == right


@pytest.mark.parametrize(
    "argv, code",
    [
        *(
            (["check", "feedback", net.name], int(net.name == "feedback_undelayed.tnet"))
            for net in sorted(SAMPLES.glob("*.tnet"))
        ),
        (["check", "causality", "toggler.tstd"], 0),
        (["check", "causality", "passthrough.tstd"], 1),
        (["check", "untimed-sim", "toggler.tstd", "toggler.ttab"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_sample_verdict(argv, code):
    command, kind, *files = argv
    assert run_cli(command, kind, *(str(SAMPLES / f) for f in files)).code == code


def test_a_file_named_ttab_is_a_table_everywhere(samples, tmp_path):
    (tmp_path / ".ttab").write_text((samples / "toggler.ttab").read_text())
    r = run_cli("validate", str(tmp_path / ".ttab"))
    assert (r.code, r.out) == (0, "ok: component 'toggler'\n")
    net = _one_instance_net(tmp_path / "one.tnet", ".ttab")
    r = run_cli("check", "feedback", net)
    assert (r.code, r.out, r.err) == (0, "well-formed\n", "")
