import errno
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import tstd.gen
from tstd import cli
from tstd.trace_format import parse_trace

from conftest import SAMPLES, run_cli


def _is_a_directory():
    """What an OSError says, without its path, when a directory is opened as a file."""
    return os.strerror(errno.EISDIR)


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("  when i: len=-1", "malformed interval pattern 'len=-1'"),
            ("  set x := y + 1", "expected 'set VAR := VAR + INT | VAR - INT | INT'"),
            ("component n", "duplicate component declaration"),
            ("  when 1x: empty", "expected 'when CH: PATTERN[, VAR REL INT ...]'"),
        ],
    )
    def test_parse_error_names_its_line(self, tmp_path, line, message):
        p = tmp_path / "bad.tstd"
        head = "component m\nin chan i\nout chan o\nvar x = 0\nstate S initial\ntrans S -> S\n"
        p.write_text(f"{head}{line}\n")
        r = run_cli("validate", str(p))
        assert (r.code, r.out, r.err) == (1, f"error: line 7:1: {message}\n", "")

    def test_warnings_only_exit_zero(self, samples):
        r = run_cli("validate", str(samples / "counter.tstd"))
        assert r.code == 0
        assert "warning" in r.out

    def test_bad_flag_usage_error(self, samples):
        r = run_cli("validate", str(samples / "toggler.tstd"), "--format", "binary")
        assert r.code == 2


@pytest.mark.parametrize(
    "command",
    [
        ("simulate",),
        ("check", "causality"),
        ("export-dot",),
        ("compose",),
        ("check", "untimed-sim"),
    ],
    ids=" ".join,
)
def test_spec_without_output_channel_exits_2(command, tmp_path):
    # A parse error like any other error of a component, at its component line.
    spec = tmp_path / "mute.tstd"
    spec.write_text("component c\nin chan i\nstate S initial\n")
    trace = tmp_path / "in.trc"
    trace.write_text("ticks i\ni: -\n")
    second = {("simulate",): trace, ("compose",): trace, ("check", "untimed-sim"): spec}
    argv = [*command, str(spec)] + ([str(second[command])] if command in second else [])
    r = run_cli(*argv)
    assert r.code == 2
    assert r.err == f"{spec}:1:1: spec declares no output channel\n"
    assert r.out == ""
    r = run_cli("validate", str(spec))
    assert r.code == 1
    assert r.out == "error: line 1:1: spec declares no output channel\n"


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

    def test_out_that_is_a_directory_cannot_be_written(self, samples, tmp_path):
        r = run_cli(
            "simulate",
            str(samples / "toggler.tstd"),
            str(samples / "empty4.trc"),
            "--out",
            str(tmp_path),
        )
        assert (r.code, r.out) == (3, "")
        assert r.err == f"cannot write '{tmp_path}': {_is_a_directory()}\n"


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

    def test_spec_without_inputs_reports_the_trials_run(self, tmp_path):
        # With no input there is nothing to vary, so the probe runs no trial.
        p = tmp_path / "clock.tstd"
        p.write_text("component clock\nout chan out\nstate s initial\ntrans s -> s\n  emit out: tick\n")
        r = run_cli("check", "causality", str(p), "--trials", "200")
        assert (r.code, r.err) == (0, "")
        assert r.out == "consistent-with-strong (0 trials, horizon 16)\n"

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
        assert r.err == f"{net}:1:1: in 'mute.tstd' at 1:1: spec declares no output channel\n"
        assert r.out == ""

    def test_feedback_merge_takes_no_argument(self, tmp_path):
        net = tmp_path / "m.tnet"
        net.write_text("use m = merge x\nwire extern a -> m.in1\n")
        r = run_cli("check", "feedback", str(net))
        assert (r.code, r.out, r.err) == (2, "", f"{net}:1:1: 'merge' takes no argument\n")

    def test_feedback_component_file_that_is_a_directory(self, tmp_path):
        net = tmp_path / "dir.tnet"
        net.write_text(f"use c = file {tmp_path}\n")
        r = run_cli("check", "feedback", str(net))
        assert (r.code, r.out) == (2, "")
        error = _is_a_directory()
        assert r.err == f"{net}:1:1: cannot read component file '{tmp_path}': {error}\n"

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


def _wrapper_net(spec_path, tmp_path):
    """A network of one instance of the spec at ``spec_path``, its externs
    named and ordered as the spec's channels."""
    from tstd.dsl import parse_component
    from tstd.table_format import parse_table

    parse = parse_table if spec_path.suffix == ".ttab" else parse_component
    spec = parse(spec_path.read_text())
    lines = [f"use c = file {spec_path}"]
    lines += [f"wire extern {ch} -> c.{ch}" for ch in spec.in_channels()]
    lines += [f"wire c.{ch} -> extern {ch}" for ch in spec.out_channels()]
    net = tmp_path / f"{spec_path.name}.tnet"
    net.write_text("\n".join(lines) + "\n")
    return str(net)


class TestCheckNetwork:
    """The seeded checks take a network (a file named ``*.tnet``) wherever
    they take a component."""

    @pytest.mark.parametrize(
        "spec", sorted(p.name for p in SAMPLES.iterdir() if p.suffix in (".tstd", ".ttab"))
    )
    def test_a_one_instance_network_is_its_spec(self, spec, tmp_path):
        net = _wrapper_net(SAMPLES / spec, tmp_path)
        for seed in ("0", "1", "7"):
            of_spec = run_cli("check", "causality", str(SAMPLES / spec), "--seed", seed)
            of_net = run_cli("check", "causality", net, "--seed", seed)
            assert (of_net.code, of_net.out, of_net.err) == (of_spec.code, of_spec.out, "")
        r = run_cli("check", "untimed-sim", str(SAMPLES / spec), net)
        assert (r.code, r.out, r.err) == (0, "agree (200 trials, horizon 16)\n", "")

    @pytest.mark.parametrize(
        "net, code, verdict",
        [
            ("delay1.tnet", 0, "consistent-with-strong (200 trials, horizon 16)\n"),
            ("feedback.tnet", 1, "refuted-strong: "),
            ("identity.tnet", 1, "refuted-strong: "),
            ("tap_loop.tnet", 1, "refuted-strong: "),
        ],
    )
    def test_sample_networks(self, net, code, verdict):
        r = run_cli("check", "causality", str(SAMPLES / net))
        assert (r.code, r.err) == (code, "")
        assert r.out.startswith(verdict)

    def test_untimed_sim_of_a_spec_and_a_network(self, samples):
        spec, net = samples / "passthrough.tstd", samples / "identity.tnet"
        r = run_cli("check", "untimed-sim", str(spec), str(net))
        assert (r.code, r.out, r.err) == (0, "agree (200 trials, horizon 16)\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["causality", "feedback_undelayed.tnet"],
            ["untimed-sim", "feedback_undelayed.tnet", "passthrough.tstd"],
            ["untimed-sim", "passthrough.tstd", "feedback_undelayed.tnet"],
        ],
        ids=" ".join,
    )
    def test_ill_formed_network_refused(self, argv):
        kind, *files = argv
        r = run_cli("check", kind, *(str(SAMPLES / f) for f in files))
        assert r.code == 1
        assert r.err == "network has an instantaneous feedback cycle: m -> p\n"
        assert r.out == ""

    def test_invalid_component_in_a_network_is_a_usage_error(self, tmp_path):
        net = mute_network(tmp_path)
        r = run_cli("check", "causality", str(net))
        assert r.code == 2
        assert r.err == f"{net}:1:1: in 'mute.tstd' at 1:1: spec declares no output channel\n"
        assert r.out == ""

    def test_delay_deeper_than_any_int_index(self, tmp_path):
        net = tmp_path / "deep.tnet"
        net.write_text(
            f"use d = delay {10**30}\n"
            "wire extern in -> d.in\n"
            "wire d.out -> extern out\n"
        )
        r = run_cli("check", "causality", str(net))
        assert (r.code, r.err) == (0, "")
        assert r.out == "consistent-with-strong (200 trials, horizon 16)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["causality", "feedback.tnet"],
            ["causality", "tap_loop.tnet"],
            ["untimed-sim", "passthrough.tstd", "tap_loop.tnet"],
        ],
        ids=" ".join,
    )
    def test_the_network_compiles_once_per_command(self, monkeypatch, argv):
        # Not once per trial: one compiled network, which generates the tick
        # of its one component once, serves all 200 trials; untimed-sim
        # generates one more tick, for its machine.
        import tstd.executor
        import tstd.network

        built, ticks = [], []
        compile_network, machine_part = tstd.network._compile, tstd.executor._machine_part
        monkeypatch.setattr(
            tstd.network, "_compile", lambda net: built.append(net) or compile_network(net)
        )
        monkeypatch.setattr(
            tstd.executor, "_machine_part", lambda *args: ticks.append(args) or machine_part(*args)
        )
        kind, *files = argv
        r = run_cli("check", kind, *(str(SAMPLES / f) for f in files))
        assert r.err == ""
        specs = 1 + (kind == "untimed-sim")
        assert (len(built), len(ticks)) == (1, specs)


class TestCompose:
    def test_invalid_component_refused(self, tmp_path):
        net = mute_network(tmp_path)
        trc = tmp_path / "in.trc"
        trc.write_text("ticks x\nx: -\n")
        r = run_cli("compose", str(net), str(trc))
        assert r.code == 2
        assert r.err == f"{net}:1:1: in 'mute.tstd' at 1:1: spec declares no output channel\n"

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


class TestSystemArguments:
    """Every argument that names a system is read by its file name: a
    ``.tnet`` is a network, any other a component."""

    def test_simulate_runs_a_network(self, samples):
        r = run_cli("simulate", str(samples / "delay1.tnet"), str(samples / "empty4.trc"))
        assert (r.code, r.out, r.err) == (0, "ticks out\n" + "out: -\n" * 4, "simulated 4 ticks\n")

    def test_compose_runs_a_component(self, samples):
        r = run_cli("compose", str(samples / "passthrough.tstd"), str(samples / "empty4.trc"))
        assert (r.code, r.out, r.err) == (0, "ticks out\n" + "out: -\n" * 4, "")

    def test_compose_ticks_of_a_component_without_inputs(self, tmp_path):
        spec = _saved(
            tmp_path / "beat.tstd",
            "component beat\nout chan out\nstate S initial\ntrans S -> S\n  emit out: tick\n",
        )
        trc = _saved(tmp_path / "none.trc", "ticks\n")
        r = run_cli("compose", spec, trc, "--ticks", "3")
        assert (r.code, r.out, r.err) == (0, "ticks out\n" + "out: tick\n" * 3, "")
        r = run_cli("simulate", spec, trc)
        assert (r.code, r.out, r.err) == (0, "ticks out\n", "simulated 0 ticks\n")

    def test_compose_ticks_conflict_for_a_component(self, samples):
        spec, trc = samples / "passthrough.tstd", samples / "empty4.trc"
        r = run_cli("compose", str(spec), str(trc), "--ticks", "3")
        assert (r.code, r.out) == (2, "")
        assert r.err == "--ticks 3 conflicts with the 4-tick input trace\n"

    def test_simulate_of_a_network_names_its_channel_mismatch(self, samples):
        r = run_cli("simulate", str(samples / "feedback.tnet"), str(samples / "empty4.trc"))
        assert (r.code, r.out) == (1, "")
        assert r.err == "external inputs ['in'] do not match network inputs ['src']\n"

    @pytest.mark.parametrize("net", sorted(p.name for p in SAMPLES.glob("*.tnet")))
    def test_validate_sample_network(self, net):
        r = run_cli("validate", str(SAMPLES / net))
        if net == "feedback_undelayed.tnet":
            assert (r.code, r.out) == (1, "error: instantaneous cycle m -> p\n")
        else:
            assert (r.code, r.out) == (0, "ok: network\n")
        assert r.err == ""

    def test_validate_network_prints_its_issues_in_validates_format(self, tmp_path, monkeypatch):
        # The component resolves relative to the network, not the working directory.
        net = mute_network(tmp_path)
        monkeypatch.chdir(SAMPLES)
        r = run_cli("validate", str(net))
        assert (r.code, r.err) == (1, "")
        assert r.out == "error: line 1:1: in 'mute.tstd' at 1:1: spec declares no output channel\n"

    def test_validate_network_prints_each_components_warnings_once(self, samples, tmp_path):
        # After the network's errors, at the first line that uses the file.
        (tmp_path / "counter.tstd").write_text((samples / "counter.tstd").read_text())
        text = "wire extern i -> c.in\nuse c = file counter.tstd\nwire c.out -> extern o\n"
        warning = (
            "warning: line 2:1: in 'counter.tstd': transitions 1 and 2 from state "
            "'counting' can be enabled simultaneously; declaration order decides\n"
        )
        r = run_cli("validate", _saved(tmp_path / "net.tnet", text))
        assert (r.code, r.out, r.err) == (0, warning + "ok: network\n", "")
        r = run_cli("validate", _saved(tmp_path / "net.tnet", text + "use d = file counter.tstd\n"))
        error = "error: line 4:1: input port 'd.in' is not driven\n"
        assert (r.code, r.out, r.err) == (1, error + warning, "")

    def test_check_feedback_refuses_a_component(self, samples):
        path = str(samples / "passthrough.tstd")
        r = run_cli("check", "feedback", path)
        assert (r.code, r.out) == (2, "")
        assert r.err == f"{path}: check feedback takes a network (*.tnet)\n"

    def test_export_dot_refuses_a_network(self, samples):
        path = str(samples / "delay1.tnet")
        r = run_cli("export-dot", path)
        assert (r.code, r.out) == (2, "")
        assert r.err == f"{path}: export-dot draws a component, not a network\n"

    @pytest.mark.parametrize("command", [["check", "feedback"], ["validate"]])
    def test_a_network_file_is_not_a_component(self, samples, tmp_path, command):
        (tmp_path / "sub.tnet").write_text((samples / "identity.tnet").read_text())
        net = _saved(
            tmp_path / "outer.tnet",
            "wire extern in -> n.in\nuse n = file sub.tnet\nwire n.out -> extern out\n",
        )
        r = run_cli(*command, net)
        message = "2:1: network file 'sub.tnet' cannot be used as a component"
        if command == ["validate"]:
            assert (r.code, r.out, r.err) == (1, f"error: line {message}\n", "")
        else:
            assert (r.code, r.out, r.err) == (2, "", f"{net}:{message}\n")


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


# Integer options read ASCII digits with an optional leading "-", as the file
# formats do; Python's int() would take each of these tokens.
INTEGER_OPTION_CASES = [
    ("check", "causality", "toggler.tstd", "--trials", " 1_0 "),
    ("check", "causality", "toggler.tstd", "--horizon", "+5"),
    ("check", "causality", "toggler.tstd", "--seed", "1_0"),
    ("gen-trace", "--channels", "a", "--ticks", "٣"),
    ("gen-trace", "--channels", "a", "--ticks", "3", "--seed", "+5"),
    ("gen-trace", "--channels", "a", "--ticks", "3", "--max-len", " 2"),
    ("stream", "delay", "empty4.trc", "-d", " ٢"),
    ("stream", "split", "empty4.trc", "-n", "１２"),
    ("stream", "join", "empty4.trc", "-n", "2 "),
    ("compose", "feedback.tnet", "feedback_in.trc", "--ticks", "-٣"),
]


@pytest.mark.parametrize("argv", INTEGER_OPTION_CASES, ids=" ".join)
def test_integer_options_follow_the_file_formats_rule(argv, samples):
    argv = [str(samples / a) if a.endswith((".tstd", ".trc", ".tnet")) else a for a in argv]
    r = run_cli(*argv)
    assert (r.code, r.out) == (2, "")
    assert r.err.startswith("usage: ")
    assert r.err.endswith(f": invalid integer: {argv[-1]!r}\n")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "causality", "toggler.tstd", "--seed"),
        ("stream", "split", "empty4.trc", "-n"),
        ("gen-trace", "--channels", "a", "--ticks"),
    ],
    ids=" ".join,
)
def test_integer_options_past_the_digit_limit_say_so(argv, samples):
    limit = sys.get_int_max_str_digits()
    argv = [str(samples / a) if a.endswith((".tstd", ".trc")) else a for a in argv]
    r = run_cli(*argv, "1" * (limit + 1))
    assert (r.code, r.out) == (2, "")
    assert r.err.startswith("usage: ")
    message = f"integer literal of {limit + 1} digits exceeds the limit of {limit}"
    assert r.err.endswith(f": {message}\n")


def test_a_negative_seed_is_accepted(samples):
    r = run_cli("check", "causality", str(samples / "toggler.tstd"), "--seed", "-3")
    assert (r.code, r.out) == (0, "consistent-with-strong (200 trials, horizon 16)\n")


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
    ["validate", "x", "--format", "table"],
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


# The argv shapes of the benchmark's commands, which the reader must read.
BENCHMARK_ARGVS = [
    ["validate", "r000.tstd"],
    ["simulate", "gate.tstd", "gate_in.trc"],
    ["compose", "ring.tnet", "ring_in.trc"],
    ["check", "feedback", "ring.tnet"],
    ["check", "causality", "r000.tstd", "--trials", "100", "--horizon", "16", "--seed", "0"],
    ["stream", "split", "src.trc", "-n", "8", "--strategy", "spread"],
    ["stream", "join", "split.trc", "-n", "8"],
    ["gen-trace", "--channels", "in", "--ticks", "0"],
]

# Well-formed commands, among them every option of every command.
WELL_FORMED = [
    *BENCHMARK_ARGVS,
    ["simulate", "a", "b", "--out", "o"],
    ["compose", "n", "t", "--ticks", "3", "--out", "o"],
    ["check", "untimed-sim", "a", "b", "--trials", "3", "--horizon", "4", "--seed", "1"],
    ["stream", "join", "t", "-n", "2", "--pad"],
    ["stream", "merge", "a", "b"],
    ["stream", "abstract", "t"],
    ["stream", "delay", "t", "-d", "0"],
    ["gen-trace", "--channels", "a,b", "--ticks", "3", "--seed", "2", "--max-len", "1",
     "--alphabet", "x,y"],
    ["export-dot", "s"],
    # Options before and between the positionals.
    ["simulate", "--out", "o", "a", "b"],
    ["compose", "n", "--ticks", "3", "t"],
    ["check", "causality", "--seed", "1", "s", "--trials", "2"],
    ["stream", "split", "-n", "2", "t"],
    ["stream", "join", "--pad", "t", "-n", "2"],
    # A system of the other kind than the command took before.
    ["simulate", "delay1.tnet", "empty4.trc"],
    ["compose", "passthrough.tstd", "empty4.trc"],
    ["validate", "delay1.tnet"],
]


def _mutants(seed, count):
    """``count`` seeded mutations of each well-formed command: a token
    dropped, repeated or moved, ``--opt=value``, an abbreviated or attached
    option, ``--``, ``-h`` or a negative value put in.  Each command draws
    from a source of its own, so a command added to the list only adds
    mutants."""
    out = []
    for base in WELL_FORMED:
        rng = random.Random(f"{seed}:{' '.join(base)}")
        out += [_mutant(list(base), rng) for _ in range(count)]
    return out


def test_a_command_added_to_the_well_formed_list_only_adds_mutants(monkeypatch):
    before = _mutants(0, 8)
    assert len(before) >= 200
    monkeypatch.setattr(sys.modules[__name__], "WELL_FORMED", [*WELL_FORMED, ["validate", "x"]])
    after = _mutants(0, 8)
    assert (len(after), after[: len(before)]) == (len(before) + 8, before)


def _mutant(argv, rng):
    """One mutation of ``argv``, in place, drawn from ``rng``."""
    i = rng.randrange(len(argv))
    options = [j for j, a in enumerate(argv) if a.startswith("-") and j + 1 < len(argv)]
    kind = rng.randrange(8)
    if kind == 0:
        del argv[i]
    elif kind == 1:
        argv.insert(i, argv[i])
    elif kind == 2:
        argv.insert(rng.randrange(len(argv)), argv.pop(i))
    elif kind == 3 and options:
        j = rng.choice(options)
        argv[j : j + 2] = [argv[j] + ("=" if argv[j].startswith("--") else "") + argv[j + 1]]
    elif kind == 4 and options:
        j = rng.choice(options)
        argv[j] = argv[j][:4] if argv[j].startswith("--") else argv[j]
    elif kind == 5:
        argv.insert(i, rng.choice(["--", "-h", "--help", "-"]))
    elif kind == 6 and options:
        argv[rng.choice(options) + 1] = rng.choice(["-3", "-0", "--3"])
    else:
        argv += rng.choice([["--seed", "-3"], ["--trials", "2"], ["-n", "2"], ["--pad"], ["x"]])
    return argv


def _read_as_parsed(argv):
    """What the argv reader makes of ``argv``; fails unless that is None or
    exactly what the full parser parses."""
    args = cli._read_argv(list(argv))
    if args is not None:
        reader = SimpleNamespace(parse_args=lambda argv: args)
        assert _parse_outcome(reader, argv) == _parse_outcome(cli.build_parser(), argv)
    return args


@pytest.mark.parametrize(
    "argv",
    [*PARSER_CASES, *map(list, INTEGER_OPTION_CASES), *_mutants(0, 8)],
    ids=" ".join,
)
def test_the_argv_reader_is_argparse_or_defers(argv):
    _read_as_parsed(argv)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_main_with_the_argv_reader_matches_main_through_argparse(argv, monkeypatch, tmp_path):
    """What ``main`` prints and returns, for help, usage errors and commands
    whose files are missing, is the same when the full parser reads argv."""
    monkeypatch.chdir(tmp_path)
    with_reader = run_cli(*argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    through_argparse = run_cli(*argv)
    assert vars(with_reader) == vars(through_argparse)


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_the_argv_reader_reads_well_formed_commands(argv):
    assert _read_as_parsed(argv) is not None


def _leaves(table, prefix=()):
    """Each command of ``table`` that runs, as its argv prefix, with its flags."""
    for name, (_, *entry) in table.items():
        if isinstance(entry[0], str):
            yield from _leaves(entry[1], (*prefix, name))
        else:
            yield (*prefix, name), set(entry[2])


def test_well_formed_commands_cover_every_command_and_option():
    for command, flags in _leaves(cli._COMMANDS):
        argvs = [argv for argv in WELL_FORMED if tuple(argv[: len(command)]) == command]
        assert argvs, f"no well-formed {' '.join(command)}"
        missing = flags - set().union(*argvs)
        assert not missing, f"{' '.join(command)}: {sorted(missing)}"


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
    # simulate runs the machine's own loop, compose the same tick inlined
    # in the lock-step loop of a one-instance network.
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


def _inputs_of(path):
    """The input channels of the system at ``path``: a network's externs or
    a component's in channels."""
    from tstd.network import parse_network
    from tstd.dsl import _spec_parser

    if path.suffix == ".tnet":
        return parse_network(path.read_text(), base_dir=path.parent).external_in
    return _spec_parser(path.name)(path.read_text()).in_channels()


def _simulate_and_compose(path, seed, tmp_path):
    """simulate and compose of the system at ``path`` on a gen-trace of its inputs."""
    channels = ",".join(_inputs_of(path))
    trace = _stdout("gen-trace", "--channels", channels, "--ticks", "50", "--seed", seed)
    trace = _saved(tmp_path / "in.trc", trace)
    return run_cli("simulate", str(path), trace), run_cli("compose", str(path), trace)


@pytest.mark.parametrize("seed", ["3", "4"])
@pytest.mark.parametrize("net", sorted(p.name for p in SAMPLES.glob("*.tnet")))
def test_simulate_of_a_network_is_compose(net, seed, tmp_path):
    """Both print the same trace and exit alike; both refuse the ill-formed
    feedback_undelayed.tnet, exit 1, with the cycle."""
    simulated, composed = _simulate_and_compose(SAMPLES / net, seed, tmp_path)
    assert (simulated.code, simulated.out) == (composed.code, composed.out)
    if net == "feedback_undelayed.tnet":
        cycle = "network has an instantaneous feedback cycle: m -> p\n"
        assert (simulated.code, simulated.out, simulated.err, composed.err) == (1, "", cycle, cycle)
    else:
        assert (simulated.code, composed.err) == (0, "")


@pytest.mark.parametrize("seed", ["3", "4"])
@pytest.mark.parametrize(
    "spec", sorted(p.name for p in SAMPLES.iterdir() if p.suffix in (".tstd", ".ttab"))
)
def test_compose_of_a_component_is_simulate(spec, seed, tmp_path):
    simulated, composed = _simulate_and_compose(SAMPLES / spec, seed, tmp_path)
    assert (composed.code, composed.out, composed.err) == (0, simulated.out, "")
    assert simulated.code == 0


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
