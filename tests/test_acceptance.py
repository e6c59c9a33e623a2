"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from tstd.checks import probe_causality
from tstd.dsl import export_dot, parse_component, print_component
from tstd.executor import run
from tstd.gen import random_prefix, random_spec, random_trace
from tstd.model import (
    CausalityClass,
    ChannelDecl,
    ComponentSpec,
    Direction,
    OutputAction,
    Transition,
    classify_causality_syntactic,
    validate_spec,
)
from tstd.network import (
    IllFormedNetworkError,
    Instance,
    ExternalPort,
    Port,
    Wire,
    build_network,
    check_feedback_wellformed,
    parse_network,
    run_network,
)
from tstd.streams import (
    NonAlignedPrefixError,
    SplitStrategy,
    StreamPrefix,
    delay_stream,
    join,
    message_count,
    split,
    untimed_abstraction,
)
from tstd.table_format import parse_table, print_table
from tstd.trace_format import ParseFailure, parse_trace, print_trace

ALPHABET_8 = ("a", "b", "c", "d", "e", "f", "g", "h")
STRATEGIES = list(SplitStrategy)
FACTORS = range(1, 9)


def report(criterion: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS - {detail}")


@pytest.fixture(scope="module")
def corpus():
    rng = Random(20240811)
    return [
        random_prefix(rng, rng.randint(0, 64), alphabet=ALPHABET_8, max_len=4)
        for _ in range(1000)
    ]


def test_c01_round_trip_law(corpus):
    started = time.monotonic()
    checked = 0
    for s in corpus:
        for strategy in STRATEGIES:
            for n in FACTORS:
                assert join(split(s, n, strategy), n) == s
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"round-trip corpus took {elapsed:.1f}s"
    report(1, "round-trip law", f"{checked} split/join pairs over 1000 prefixes in {elapsed:.1f}s")


def test_c02_granularity_laws(corpus):
    violations = 0
    for s in corpus:
        for strategy in STRATEGIES:
            for n in FACTORS:
                if split(s, n, strategy).length != n * s.length:
                    violations += 1
        for n in FACTORS:
            if s.length % n == 0:
                if join(s, n).length != s.length // n:
                    violations += 1
            else:
                try:
                    join(s, n)
                    violations += 1
                except NonAlignedPrefixError:
                    pass
    assert violations == 0
    report(2, "granularity laws", "length law and non-aligned join errors, 0 violations")


def test_c03_conservation(corpus):
    violations = 0
    for s in corpus:
        count = message_count(s)
        flat = untimed_abstraction(s)
        for strategy in STRATEGIES:
            for n in FACTORS:
                refined = split(s, n, strategy)
                if message_count(refined) != count or untimed_abstraction(refined) != flat:
                    violations += 1
        for n in FACTORS:
            if s.length % n == 0:
                coarse = join(s, n)
                if message_count(coarse) != count or untimed_abstraction(coarse) != flat:
                    violations += 1
        for d in (0, 1, 3):
            delayed = delay_stream(s, d)
            if message_count(delayed) != count or untimed_abstraction(delayed) != flat:
                violations += 1
    assert violations == 0
    report(3, "conservation", "count and abstraction invariant under split/join/delay, 0 violations")


def test_c04_zeno_freedom():
    rng = Random(404)
    violations = 0
    for i in range(500):
        spec = random_spec(rng, name=f"z{i}")
        ticks = rng.randint(0, 32)
        inputs = random_trace(spec.in_channels(), ticks, rng)
        outputs = run(spec, inputs)
        for ch in spec.out_channels():
            if outputs.channels[ch].length != ticks:
                violations += 1
    assert violations == 0
    report(4, "zeno freedom", "500 random specs emit exactly T intervals per channel")


def test_c05_causality_soundness():
    rng = Random(505)
    strong_count = 0
    for i in range(500):
        spec = random_spec(rng, name=f"c{i}")
        if classify_causality_syntactic(spec) is CausalityClass.STRONG:
            strong_count += 1
            result = probe_causality(spec, trials=100, horizon=8, seed=i)
            assert not result.refuted, f"strong-classified spec {i} was refuted"
    assert strong_count > 0, "generator produced no strongly causal specs"

    passthrough = ComponentSpec(
        name="pt",
        channels=(ChannelDecl("in", Direction.IN), ChannelDecl("out", Direction.OUT)),
        vars=(),
        states=("S0",),
        initial="S0",
        transitions=(
            Transition("S0", "S0", outputs=(OutputAction.passthrough("out", "in"),)),
        ),
    )
    assert classify_causality_syntactic(passthrough) is CausalityClass.WEAK
    result = probe_causality(passthrough, trials=100, horizon=8, seed=0)
    assert result.refuted
    out_a = run(passthrough, result.witness_a)
    out_b = run(passthrough, result.witness_b)
    assert out_a.channels[result.channel][result.tick] != out_b.channels[result.channel][result.tick]
    assert result.tick <= result.cut
    report(
        5,
        "causality soundness",
        f"{strong_count}/500 strong-classified specs never refuted; pass-through refuted with replayable witness",
    )


def test_c06_feedback_golden(samples, data):
    net = parse_network((samples / "feedback.tnet").read_text(), base_dir=samples)
    inputs = parse_trace((samples / "feedback_in.trc").read_text())
    outputs = run_network(net, inputs, 3)
    golden = (data / "feedback_out3.trc").read_text()
    assert print_trace(outputs) == golden

    bad = parse_network((samples / "feedback_undelayed.tnet").read_text(), base_dir=samples)
    assert not check_feedback_wellformed(bad).well_formed
    with pytest.raises(IllFormedNetworkError):
        run_network(bad, inputs, 3)
    report(6, "feedback", "golden loop trace byte-exact; undelayed loop rejected")


def test_c07_composition_neutrality():
    rng = Random(707)
    for i in range(100):
        spec = random_spec(rng, name=f"n{i}")
        wires = [Wire(ExternalPort(ch), Port("c", ch)) for ch in spec.in_channels()]
        wires += [Wire(Port("c", ch), ExternalPort(ch)) for ch in spec.out_channels()]
        net = build_network(
            [Instance.of_spec("c", spec)],
            wires,
            list(spec.in_channels()),
            list(spec.out_channels()),
        )
        ticks = rng.randint(0, 12)
        inputs = random_trace(spec.in_channels(), ticks, rng)
        direct = run(spec, inputs)
        composed = run_network(net, inputs, ticks)
        assert print_trace(composed) == print_trace(direct)
    report(7, "composition neutrality", "100 single-component networks byte-equal to direct runs")


PAIRS = ("toggler", "passthrough", "counter", "gate", "watchdog")


def test_c08_style_equivalence(samples):
    rng = Random(808)
    for name in PAIRS:
        textual = parse_component((samples / f"{name}.tstd").read_text())
        table = parse_table((samples / f"{name}.ttab").read_text())
        assert validate_spec(textual) == validate_spec(table)
        assert export_dot(textual) == export_dot(table)
        for _ in range(50):
            inputs = random_trace(textual.in_channels(), rng.randint(0, 8), rng)
            assert print_trace(run(textual, inputs)) == print_trace(run(table, inputs))
    report(8, "style equivalence", f"{len(PAIRS)} pairs: equal reports, DOT bytes, and runs on 50 traces each")


def _fuzz_strings(count: int) -> list:
    rng = Random(909)
    seeds = [
        "component m\nin chan i\nout chan o\nstate S initial\ntrans S -> S\n  emit o: pass(i)\n",
        "@component m\n@in i\n@out o\n@state S\n@initial S\nsource, when:i, guard, emit:o, set, target\nS, , , a, , S\n",
        "ticks a b\na: x | b: -\n",
        "use p = file x.tstd\nwire extern a -> p.in\nwire p.out -> extern b\n",
    ]
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(bytes(rng.randrange(256) for _ in range(rng.randint(0, 80))).decode("latin-1"))
        else:
            base = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 8)):
                pos = rng.randrange(len(base))
                base[pos] = chr(rng.randrange(256))
            out.append("".join(base))
    return out


def test_c09_format_round_trips(tmp_path):
    rng = Random(901)
    for i in range(1000):
        names = rng.sample(["p", "q", "r", "s"], rng.randint(1, 3))
        trace = random_trace(names, rng.randint(0, 10), rng)
        assert parse_trace(print_trace(trace)) == trace
    for i in range(1000):
        spec = random_spec(rng, name=f"f{i}")
        assert parse_component(print_component(spec)) == spec
        assert parse_table(print_table(spec)) == spec

    crashes = 0
    for text in _fuzz_strings(10000):
        for parser in (parse_component, parse_table, parse_trace):
            try:
                parser(text)
            except ParseFailure:
                pass
            except Exception:
                crashes += 1
        try:
            parse_network(text, base_dir=tmp_path)
        except ParseFailure:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    report(9, "format round-trips", "2000 print/parse identities; 10000 fuzz strings, 0 crashes")


def _cli(*argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "tstd.cli", *argv],
        capture_output=True,
        cwd=cwd,
        text=True,
    )
    return proc


def test_c10_cli_determinism(samples, tmp_path):
    root = samples.parent
    invocations = [
        (
            "simulate",
            str(samples / "toggler.tstd"),
            str(samples / "empty4.trc"),
            "--out",
            str(tmp_path / "sim.trc"),
        ),
        (
            "compose",
            str(samples / "feedback.tnet"),
            str(samples / "feedback_in.trc"),
            "--out",
            str(tmp_path / "net.trc"),
        ),
        ("gen-trace", "--channels", "x,y", "--ticks", "30", "--seed", "42"),
        ("export-dot", str(samples / "watchdog.tstd")),
    ]
    for argv in invocations:
        first = _cli(*argv, cwd=root)
        assert first.returncode == 0, first.stderr
        snapshot = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix == ".trc"
        }
        second = _cli(*argv, cwd=root)
        assert second.returncode == 0
        assert first.stdout == second.stdout
        for name, blob in snapshot.items():
            assert (tmp_path / name).read_bytes() == blob
    report(10, "determinism", "simulate, compose, gen-trace, export-dot byte-identical across runs")
