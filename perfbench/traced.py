"""In-process replays of CLI commands, with one span per public call.

Each ``replay_*`` function makes the same public calls, in the same order and
with the same stdout text, as the matching command in ``tstd.cli``.  The
spans are recorded here, around the calls, so nothing inside ``src/`` is
touched; the calls a function makes internally stay invisible.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from random import Random
from statistics import median
from typing import Dict, Iterator, List, Tuple

from tstd import (
    check_feedback_wellformed,
    join,
    parse_component,
    parse_network,
    parse_table,
    parse_trace,
    print_trace,
    probe_causality,
    run,
    run_network,
    split,
    validate_spec,
    SplitStrategy,
)
from tstd.executor import Trace
from tstd.gen import random_trace
from tstd.model import ComponentSpec, has_errors

Replay = Tuple[int, str]  # (exit code the CLI would return, its stdout text)


class ReplayError(Exception):
    """The replayed command would have failed in the CLI."""


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id, counts."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.run_id = ""
        self._open: List[dict] = []

    @contextmanager
    def span(self, name: str, **counts: int) -> Iterator[Dict[str, int]]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "counts": counts,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _load_spec(tr: Tracer, path: Path) -> ComponentSpec:
    text = _read(path)
    if path.suffix == ".ttab":
        with tr.span("dsl.parse_table"):
            return parse_table(text)
    with tr.span("dsl.parse_component"):
        return parse_component(text)


def _load_validated_spec(tr: Tracer, path: Path) -> ComponentSpec:
    spec = _load_spec(tr, path)
    with tr.span("model.validate_spec"):
        findings = validate_spec(spec)
    if has_errors(findings):
        raise ReplayError(f"{path.name}: validation errors")
    return spec


def _load_trace(tr: Tracer, path: Path) -> Trace:
    text = _read(path)
    with tr.span("dsl.parse_trace") as counts:
        trace = parse_trace(text)
        counts["ticks"] = trace.length
    return trace


def _print_trace(tr: Tracer, trace: Trace) -> str:
    with tr.span("dsl.print_trace", ticks=trace.length):
        return print_trace(trace)


def _load_network(tr: Tracer, path: Path):
    text = _read(path)
    with tr.span("dsl.parse_network"):
        # The CLI's default loader does the same: tables by extension.
        return parse_network(text, base_dir=path.parent, loader=lambda p: _load_spec(tr, p))


def replay_validate(tr: Tracer, spec: Path) -> Replay:
    parsed = _load_spec(tr, spec)
    with tr.span("model.validate_spec"):
        findings = validate_spec(parsed)
    lines = [f.render() for f in findings]
    if has_errors(findings):
        return 1, "".join(line + "\n" for line in lines)
    lines.append(f"ok: component '{parsed.name}'")
    return 0, "".join(line + "\n" for line in lines)


def replay_simulate(tr: Tracer, spec: Path, trace: Path) -> Replay:
    parsed = _load_validated_spec(tr, spec)
    inputs = _load_trace(tr, trace)
    with tr.span("executor.run", ticks=inputs.length):
        outputs = run(parsed, inputs)
    return 0, _print_trace(tr, outputs)


def replay_check_feedback(tr: Tracer, network: Path) -> Replay:
    net = _load_network(tr, network)
    with tr.span("network.check_feedback_wellformed"):
        result = check_feedback_wellformed(net)
    if result.well_formed:
        return 0, "well-formed\n"
    return 1, "ill-formed: instantaneous cycle " + " -> ".join(result.cycle) + "\n"


def replay_compose(tr: Tracer, network: Path, trace: Path) -> Replay:
    net = _load_network(tr, network)
    inputs = _load_trace(tr, trace)
    with tr.span(
        "network.run_network",
        instances=len(net.instances),
        ticks=inputs.length,
        instance_ticks=len(net.instances) * inputs.length,
    ) as counts:
        outputs = run_network(net, inputs, inputs.length)
        intervals = [iv for prefix in outputs.channels.values() for iv in prefix]
        counts["messages_out"] = sum(len(iv) for iv in intervals)
        counts["peak_interval_len"] = max((len(iv) for iv in intervals), default=0)
    return 0, _print_trace(tr, outputs)


def replay_check_causality(
    tr: Tracer, spec: Path, trials: int, horizon: int, seed: int
) -> Replay:
    parsed = _load_validated_spec(tr, spec)
    with tr.span("executor.probe_causality", trials=trials) as counts:
        result = probe_causality(parsed, trials=trials, horizon=horizon, seed=seed)
        counts["refuted"] = int(result.refuted)
    if result.consistent_with_strong:
        return 0, f"consistent-with-strong ({trials} trials, horizon {horizon})\n"
    return 1, (
        f"refuted-strong: outputs diverge at tick {result.tick} on channel "
        f"'{result.channel}'; inputs diverge only at tick {result.cut}\n"
        "# input a\n"
        + _print_trace(tr, result.witness_a)
        + "# input b\n"
        + _print_trace(tr, result.witness_b)
    )


def replay_stream_split(tr: Tracer, trace: Path, n: int, strategy: str) -> Replay:
    inputs = _load_trace(tr, trace)
    how = SplitStrategy.parse(strategy)
    channels = {}
    for ch, prefix in inputs.channels.items():
        with tr.span("streams.split", ticks=prefix.length):
            channels[ch] = split(prefix, n, how)
    return 0, _print_trace(tr, Trace(channels, length=inputs.length * n))


def replay_stream_join(tr: Tracer, trace: Path, n: int) -> Replay:
    inputs = _load_trace(tr, trace)
    channels = {}
    for ch, prefix in inputs.channels.items():
        with tr.span("streams.join", ticks=prefix.length):
            channels[ch] = join(prefix, n)
    return 0, _print_trace(tr, Trace(channels, length=inputs.length // n))


def replay_gen_trace(tr: Tracer, channels: List[str], ticks: int) -> Replay:
    with tr.span("gen.random_trace", ticks=ticks):
        trace = random_trace(channels, ticks, Random(0))
    return 0, _print_trace(tr, trace)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit, calls, volume).

    ``.ms`` metrics are the median call; ``.us_per_*`` metrics are total time
    over total volume, so one long call and many short ones weigh alike.
    """
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name: str, pick=None) -> List[dict]:
        found = [s for s in by_name.get(name, ()) if pick is None or pick(s)]
        if not found:
            raise ReplayError(f"the traced run recorded no '{name}' span")
        return found

    def ms(name: str, pick=None) -> tuple:
        found = calls(name, pick)
        return 1e3 * median(_dur(s) for s in found), "ms", len(found), ""

    def per(name: str, count: str, unit: str, pick=None) -> tuple:
        found = calls(name, pick)
        volume = sum(s["counts"][count] for s in found)
        return 1e6 * sum(_dur(s) for s in found) / volume, unit, len(found), f"{volume} {count}"

    def total(name: str, count: str) -> int:
        return sum(s["counts"][count] for s in calls(name))

    refuted = lambda s: s["counts"]["refuted"] == 1
    consistent = lambda s: s["counts"]["refuted"] == 0
    probes = calls("executor.probe_causality")
    networks = calls("network.run_network")
    return {
        "dsl.parse_trace.us_per_tick": per("dsl.parse_trace", "ticks", "us/tick"),
        "dsl.print_trace.us_per_tick": per("dsl.print_trace", "ticks", "us/tick"),
        "dsl.parse_component.ms": ms("dsl.parse_component"),
        "dsl.parse_table.ms": ms("dsl.parse_table"),
        "dsl.parse_network.ms": ms("dsl.parse_network"),
        "model.validate_spec.ms": ms("model.validate_spec"),
        "network.check_feedback_wellformed.ms": ms("network.check_feedback_wellformed"),
        "executor.run.us_per_tick": per("executor.run", "ticks", "us/tick"),
        "executor.run.ticks": (total("executor.run", "ticks"), "ticks", len(calls("executor.run")), ""),
        "executor.probe_causality.consistent_ms": ms("executor.probe_causality", consistent),
        "executor.probe_causality.refuted_ms": ms("executor.probe_causality", refuted),
        "executor.probe_causality.us_per_trial": per(
            "executor.probe_causality", "trials", "us/trial", consistent
        ),
        "executor.probe_causality.refuted_ratio": (
            sum(map(refuted, probes)) / len(probes), "ratio", len(probes), ""
        ),
        "network.run_network.us_per_instance_tick": per(
            "network.run_network", "instance_ticks", "us/inst-tick"
        ),
        "network.run_network.instance_ticks": (
            total("network.run_network", "instance_ticks"), "inst-ticks", len(networks), ""
        ),
        "network.messages_out": (
            total("network.run_network", "messages_out"), "messages", len(networks), ""
        ),
        "network.peak_interval_len": (
            max(s["counts"]["peak_interval_len"] for s in networks), "messages", len(networks), ""
        ),
        "streams.split.us_per_tick": per("streams.split", "ticks", "us/tick"),
        "streams.join.us_per_tick": per("streams.join", "ticks", "us/tick"),
    }


def root_seconds(spans: List[dict], workload: str) -> float:
    """Total duration of one workload's root spans."""
    return sum(
        _dur(s) for s in spans if s["parent"] is None and s["run"].startswith(workload + "/")
    )
