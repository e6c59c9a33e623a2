"""Seeded inputs, command lists and output checks for the four workloads.

Every input file is generated here from the workload seed with ``tstd.gen``
and written with the canonical printers; the CLI under test sees only those
files.  Samples are parsed and re-printed into the work directory rather than
read in place.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Tuple

from tstd import (
    CausalityClass,
    classify_causality_syntactic,
    parse_component,
    parse_table,
    print_component,
    print_table,
    print_trace,
    validate_spec,
)
from tstd.executor import Trace
from tstd.gen import random_spec, random_trace
from tstd.model import has_errors

import traced
from traced import Tracer

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
MAX_LEN = 3  # most messages per generated interval (tstd.gen's default)


@dataclass(frozen=True)
class Sizes:
    sim_ticks: int = 50_000
    ring_stages: int = 5
    ring_ticks: int = 2_500
    corpus_strong: int = 50
    corpus_weak: int = 50
    probe_trials: int = 100
    probe_horizon: int = 16
    stream_ticks: int = 10_000
    split_n: int = 8
    setup_reps: int = 11


FULL = Sizes()
SMOKE = Sizes(
    sim_ticks=300,
    ring_stages=2,
    ring_ticks=60,
    corpus_strong=2,
    corpus_weak=2,
    probe_trials=20,
    stream_ticks=120,
    setup_reps=2,
)

Check = Callable[[int, bytes], List[str]]


@dataclass
class Command:
    """One ``tstd`` invocation, its in-process replay and its output check."""

    key: str
    argv: List[str]
    replay: Callable[[Tracer], traced.Replay]
    check: Check
    out: Path
    # Input ticks this command carries; counted in ticks_per_s when it exits 0.
    ticks: int = 0


@dataclass
class Workload:
    name: str
    setup: List[Command]
    commands: List[Command]
    volume: Dict[str, int]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class TraceStats:
    ticks: int
    channels: Tuple[str, ...]
    messages: int
    peak_interval_len: int


def trace_stats(data: bytes) -> TraceStats:
    """Read a canonical trace text without tstd's parser, as an independent check."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0].split()[:1] != ["ticks"]:
        raise ValueError("output is not a trace")
    messages = peak = 0
    for line in lines[1:]:
        for segment in line.split(" | "):
            body = segment.partition(": ")[2]
            n = 0 if body == "-" else len(body.split())
            messages += n
            peak = max(peak, n)
    return TraceStats(len(lines) - 1, tuple(lines[0].split()[1:]), messages, peak)


def _expect_trace(ticks: int, channels: Tuple[str, ...], extra=None) -> Check:
    def check(rc: int, out: bytes) -> List[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        try:
            stats = trace_stats(out)
        except ValueError as exc:
            return [str(exc)]
        problems = []
        if stats.ticks != ticks:
            problems.append(f"{stats.ticks} output ticks, expected {ticks}")
        if stats.channels != channels:
            problems.append(f"output channels {stats.channels}, expected {channels}")
        if extra is not None:
            problems += extra(stats)
        return problems

    return check


def _expect_text(rc_expected: int, predicate: Callable[[str], bool], what: str) -> Check:
    def check(rc: int, out: bytes) -> List[str]:
        problems = []
        if rc != rc_expected:
            problems.append(f"exit code {rc}, expected {rc_expected}")
        if not predicate(out.decode("utf-8", errors="replace")):
            problems.append(f"output is not {what}")
        return problems

    return check


def _validate_cmd(work: Path, spec: Path, name: str) -> Command:
    return Command(
        key=f"validate {spec.name}",
        argv=["validate", str(spec)],
        replay=lambda tr: traced.replay_validate(tr, spec),
        check=_expect_text(0, lambda s: s.endswith(f"ok: component '{name}'\n"), "'ok'"),
        out=work / f"validate-{spec.name}.out",
    )


def _copy_spec(src: Path, work: Path):
    """Parse a sample and re-print it canonically into the work directory."""
    if src.suffix == ".ttab":
        spec = parse_table(src.read_text(encoding="utf-8"))
        text = print_table(spec)
    else:
        spec = parse_component(src.read_text(encoding="utf-8"))
        text = print_component(spec)
    dest = work / src.name
    dest.write_text(text, encoding="utf-8")
    return spec, dest


def _write_trace(trace: Trace, path: Path) -> int:
    """Write a trace canonically; returns its message count."""
    text = print_trace(trace)
    path.write_text(text, encoding="utf-8")
    return trace_stats(text.encode()).messages


def sim_long(rng: Random, sizes: Sizes, work: Path, seed: int) -> Workload:
    t = sizes.sim_ticks
    wd, wd_path = _copy_spec(SAMPLES / "watchdog.tstd", work)
    gate, gate_path = _copy_spec(SAMPLES / "gate.tstd", work)
    wd_in = work / "watchdog_in.trc"
    gate_in = work / "gate_in.trc"
    m_wd = _write_trace(random_trace(["in"], t, rng), wd_in)
    ctl = random_trace(["ctl"], t, rng, alphabet=("open", "close", "x"), max_len=1)
    data = random_trace(["data"], t, rng)
    m_gate = _write_trace(Trace({**ctl.channels, **data.channels}, length=t), gate_in)
    commands = [
        Command(
            key=f"simulate {spec.name}",
            argv=["simulate", str(path), str(trc)],
            replay=functools.partial(traced.replay_simulate, spec=path, trace=trc),
            check=_expect_trace(t, ("out",)),
            out=work / f"simulate-{spec.name}.out",
            ticks=t,
        )
        for spec, path, trc in ((wd, wd_path, wd_in), (gate, gate_path, gate_in))
    ]
    return Workload(
        "sim-long",
        setup=[_validate_cmd(work, wd_path, wd.name), _validate_cmd(work, gate_path, gate.name)],
        commands=commands,
        volume={
            "ticks": 2 * t,
            "channels_in": len(wd.in_channels()) + len(gate.in_channels()),
            "specs": 2,
            "messages_in": m_wd + m_gate,
        },
    )


def _ring_text(stages: int) -> str:
    """Stages of merge -> passthrough -> watchdog -> delay 2 -> toggler -> merge.

    The strong toggler closes each stage's loop, which the delay also cuts;
    a counter taps every stage and the passthrough feeds the next stage.
    """
    lines = []
    for i in range(stages):
        lines += [
            f"use m{i} = merge",
            f"use p{i} = file passthrough.tstd",
            f"use w{i} = file watchdog.tstd",
            f"use d{i} = delay 2",
            f"use g{i} = file toggler.tstd",
            f"use c{i} = file counter.ttab",
        ]
    for i in range(stages):
        source = "extern in" if i == 0 else f"p{i - 1}.out"
        lines += [
            f"wire {source} -> m{i}.in1",
            f"wire g{i}.out -> m{i}.in2",
            f"wire m{i}.out -> p{i}.in",
            f"wire p{i}.out -> w{i}.in",
            f"wire w{i}.out -> d{i}.in",
            f"wire d{i}.out -> g{i}.in",
            f"wire p{i}.out -> c{i}.in",
            f"wire c{i}.out -> extern tap{i}",
        ]
    lines.append(f"wire p{stages - 1}.out -> extern out")
    return "\n".join(lines) + "\n"


def net_ring(rng: Random, sizes: Sizes, work: Path, seed: int) -> Workload:
    t, stages = sizes.ring_ticks, sizes.ring_stages
    for name in ("passthrough.tstd", "watchdog.tstd", "toggler.tstd", "counter.ttab"):
        _copy_spec(SAMPLES / name, work)
    net = work / "ring.tnet"
    net.write_text(_ring_text(stages), encoding="utf-8")
    trc = work / "ring_in.trc"
    m_in = _write_trace(random_trace(["in"], t, rng), trc)
    # Each stage adds at most one toggler message per tick to what it forwards.
    bound = MAX_LEN + stages

    def bounded(stats: TraceStats) -> List[str]:
        if stats.peak_interval_len > bound:
            return [f"peak interval of {stats.peak_interval_len} messages exceeds {bound}"]
        return []

    outs = tuple(sorted(["out"] + [f"tap{i}" for i in range(stages)]))
    compose = Command(
        key="compose ring.tnet",
        argv=["compose", str(net), str(trc)],
        replay=functools.partial(traced.replay_compose, network=net, trace=trc),
        check=_expect_trace(t, outs, bounded),
        out=work / "compose.out",
        ticks=t,
    )
    feedback = Command(
        key="check feedback ring.tnet",
        argv=["check", "feedback", str(net)],
        replay=functools.partial(traced.replay_check_feedback, network=net),
        check=_expect_text(0, lambda s: s == "well-formed\n", "'well-formed'"),
        out=work / "feedback.out",
    )
    return Workload(
        "net-ring",
        setup=[feedback],
        commands=[compose],
        volume={"ticks": t, "instances": 6 * stages, "channels_out": len(outs), "messages_in": m_in},
    )


PROBE_SAMPLES = ("passthrough.tstd", "toggler.tstd", "watchdog.tstd", "counter.tstd", "gate.tstd")


def _random_corpus(rng: Random, strong: int, weak: int) -> List:
    """Valid random specs, with a fixed strong/weak split so seeds differ less."""
    want = {CausalityClass.STRONG: strong, CausalityClass.WEAK: weak}
    specs = []
    for i in range(100 * (strong + weak)):
        spec = random_spec(rng, name=f"r{i:03d}")
        cls = classify_causality_syntactic(spec)
        if want[cls] and not has_errors(validate_spec(spec)):
            want[cls] -= 1
            specs.append(spec)
            if not any(want.values()):
                return specs
    raise RuntimeError("could not draw the spec corpus")


def probe_corpus(rng: Random, sizes: Sizes, work: Path, seed: int) -> Workload:
    trials, horizon = sizes.probe_trials, sizes.probe_horizon
    specs = []
    for spec in _random_corpus(rng, sizes.corpus_strong, sizes.corpus_weak):
        path = work / f"{spec.name}.tstd"
        path.write_text(print_component(spec), encoding="utf-8")
        specs.append((spec, path))
    specs += [_copy_spec(SAMPLES / name, work) for name in PROBE_SAMPLES]

    def verdict_check(strong: bool) -> Check:
        def check(rc: int, out: bytes) -> List[str]:
            text = out.decode("utf-8", errors="replace")
            if rc == 0 and text.startswith("consistent-with-strong"):
                return []
            if rc == 1 and text.startswith("refuted-strong") and "# input b\n" in text:
                return ["a syntactically strong spec was refuted"] if strong else []
            return [f"exit code {rc} does not match the printed verdict"]

        return check

    commands = []
    strong_count = 0
    for spec, path in specs:
        strong = classify_causality_syntactic(spec) is CausalityClass.STRONG
        strong_count += strong
        commands.append(
            Command(
                key=f"check causality {path.name}",
                argv=["check", "causality", str(path), "--trials", str(trials),
                      "--horizon", str(horizon), "--seed", str(seed)],
                replay=functools.partial(
                    traced.replay_check_causality,
                    spec=path, trials=trials, horizon=horizon, seed=seed,
                ),
                check=verdict_check(strong),
                out=work / f"causality-{path.stem}.out",
                # A consistent verdict runs every trial: two runs of `horizon` ticks.
                ticks=2 * trials * horizon,
            )
        )
    setup = [_validate_cmd(work, path, spec.name) for spec, path in specs[: sizes.setup_reps]]
    return Workload(
        "probe-corpus",
        setup=setup,
        commands=commands,
        volume={
            "specs": len(specs),
            "strong": strong_count,
            "weak": len(specs) - strong_count,
            "trials": trials,
            "horizon": horizon,
        },
    )


def stream_refine(rng: Random, sizes: Sizes, work: Path, seed: int) -> Workload:
    t, n = sizes.stream_ticks, sizes.split_n
    channels = ("a", "b", "c")
    src = work / "source.trc"
    m_in = _write_trace(random_trace(channels, t, rng), src)
    source_bytes = src.read_bytes()
    split_out = work / "split.out"

    def conserved(stats: TraceStats) -> List[str]:
        return [] if stats.messages == m_in else [f"split carries {stats.messages} messages, not {m_in}"]

    def round_trip(rc: int, out: bytes) -> List[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        return [] if out == source_bytes else ["join(split(s)) differs from s"]

    split_cmd = Command(
        key="stream split",
        argv=["stream", "split", str(src), "-n", str(n), "--strategy", "spread"],
        replay=functools.partial(traced.replay_stream_split, trace=src, n=n, strategy="spread"),
        check=_expect_trace(n * t, channels, conserved),
        out=split_out,
        ticks=t,
    )
    join_cmd = Command(
        key="stream join",
        argv=["stream", "join", str(split_out), "-n", str(n)],
        replay=functools.partial(traced.replay_stream_join, trace=split_out, n=n),
        check=round_trip,
        out=work / "join.out",
    )
    null = Command(
        key="gen-trace --ticks 0",
        argv=["gen-trace", "--channels", "in", "--ticks", "0"],
        replay=functools.partial(traced.replay_gen_trace, channels=["in"], ticks=0),
        check=_expect_text(0, lambda s: s == "ticks in\n", "an empty trace"),
        out=work / "null.out",
    )
    return Workload(
        "stream-refine",
        setup=[null],
        commands=[split_cmd, join_cmd],
        volume={"ticks": t, "channels": len(channels), "split_n": n,
                "messages_in": m_in, "ticks_out": n * t},
    )


BUILDERS = {
    "sim-long": sim_long,
    "net-ring": net_ring,
    "probe-corpus": probe_corpus,
    "stream-refine": stream_refine,
}


def build(name: str, seed: int, sizes: Sizes, work_root: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` into a fresh directory."""
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return BUILDERS[name](Random(f"{name}:{seed}"), sizes, work, seed)
