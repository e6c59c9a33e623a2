#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tstd CLI.

Untraced run (``--trace 0``): every command is a real ``python -m tstd``
process, started one at a time in a closed loop from this single process,
each waiting for the previous one.  The loop cycles through the workload's
commands for ``--seconds`` seconds (and at least one full pass).  Every
output is checked; failures count in ``failed``.  Times are scaled to a
reference speed measured next to each command (see REF_S below).

Traced run (``--trace 1``): the same commands are replayed in this process
through the public API, one span per call (see ``traced.py``), for all four
workloads, so every per-layer metric is present.  The named workload's
commands are also run once as processes, untraced, and both totals are
reported, which shows the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Run it from the repository root::

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seed
    python3 perfbench/run.py --smoke               # tiny sizes, both runs, checks only

See NOTES.md for the metric definitions and the measurement limits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("sim-long", "net-ring", "probe-corpus", "stream-refine")
DEFAULT_SEED = 0
COMMAND_TIMEOUT_S = 150
# Times are reported at a fixed reference speed: each measured time is
# multiplied by REF_S over the time REF_LOOPS turns of a pure-Python loop take
# next to it.  On a shared machine the speed drifts by tens of percent between
# runs, and the loop drifts with it (NOTES.md).  REF_S is near the loop's time
# on the 2.1 GHz Xeon the bounds were set on, so numbers there read near the
# measured ones, which the report prints beside them.
REF_LOOPS = 50_000
REF_S = 0.0035
TIME_UNITS = {"s", "ms", "us/tick", "us/trial", "us/inst-tick"}
TAIL_GRID = (50, 75, 90, 95, 99)



class Metric(NamedTuple):
    value: float
    unit: str
    samples: int  # commands, processes or calls the value is taken over
    volume: str = ""


def machine_facts() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: List[str], out: Path, env: Dict[str, str]) -> Tuple[int, float, int]:
    """Run ``python ARGV`` with stdout to ``out``; (exit code, wall s, max RSS KiB)."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


@dataclass
class Tally:
    """Attempted and failed commands, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


class Checker:
    """Checks one workload's outputs: the command's own check, the same bytes
    on every run and replay of a command, and the digests pinned for the
    default seed."""

    def __init__(self, workload, pinned: Optional[Dict[str, str]], tally: Tally):
        self.workload = workload
        self.pinned = pinned
        self.tally = tally
        self.first: Dict[str, str] = {}

    def __call__(self, cmd, rc: int, out: bytes, label: str) -> None:
        problems = cmd.check(rc, out)
        d = workloads.digest(out)
        if cmd.key not in self.first:
            self.first[cmd.key] = d
            if out.startswith(b"ticks"):
                stats = workloads.trace_stats(out)
                volume = self.workload.volume
                volume["messages_out"] = volume.get("messages_out", 0) + stats.messages
        elif self.first[cmd.key] != d:
            problems.append("output differs from an earlier run or replay of the same command")
        if self.pinned is not None and self.pinned.get(cmd.key) != d:
            problems.append("output differs from the digest pinned for the default seed")
        self.tally.record(f"{self.workload.name} {label} '{cmd.key}'", problems)


class Sample(NamedTuple):
    key: str
    rc: int
    wall: float  # seconds at reference speed
    raw: float  # seconds as measured
    maxrss_kib: int


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is right now."""
    times = []
    for _ in range(4):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i % 7
        times.append(time.perf_counter() - start)
    return median(times[1:])  # the first turn warms caches the checks disturbed


def run_cli(cmd, env, check: Checker) -> Sample:
    before = reference_s()
    rc, raw, maxrss = spawn(["-m", "tstd", *cmd.argv], cmd.out, env)
    scale = REF_S / ((before + reference_s()) / 2)
    check(cmd, rc, cmd.out.read_bytes(), "process")
    return Sample(cmd.key, rc, raw * scale, raw, maxrss)


def tail(walls: List[float]) -> Tuple[float, int]:
    """The highest percentile of TAIL_GRID with at least 10 samples beyond it."""
    fit = [p for p in TAIL_GRID if len(walls) * (100 - p) / 100 >= 10]
    if not fit:
        return max(walls), 100
    return quantiles(walls, n=100, method="inclusive")[fit[-1] - 1], fit[-1]


def timings(w, setup: List[Sample], samples: List[Sample], attr: str) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    for s in samples:
        walls.setdefault(s.key, []).append(getattr(s, attr))
    medians = {k: median(v) for k, v in walls.items()}
    # Refuted verdicts stop early, so only commands that always exit 0 carry ticks.
    counted = [c for c in w.commands if all(s.rc == 0 for s in samples if s.key == c.key)]
    busy = sum(medians[c.key] for c in counted)
    tail_s, pct = tail([getattr(s, attr) for s in samples])
    return {
        "setup_s": median(getattr(s, attr) for s in setup),
        "ticks_per_s": sum(c.ticks for c in counted) / busy if busy else 0.0,
        "cmd_p50_ms": 1e3 * median(medians.values()),
        f"tail_ms.p{pct}": 1e3 * tail_s,
    }


def untraced(w, seconds: float, sizes, env, check: Checker) -> Dict[str, Metric]:
    setup = [run_cli(w.setup[i % len(w.setup)], env, check) for i in range(sizes.setup_reps)]
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(w.commands) or time.perf_counter() < deadline:
        samples.append(run_cli(w.commands[i % len(w.commands)], env, check))
        i += 1

    scaled = timings(w, setup, samples, "wall")
    raw = timings(w, setup, samples, "raw")
    n = len(samples)
    units = {"setup_s": ("s", len(setup)), "ticks_per_s": ("ticks/s", n), "cmd_p50_ms": ("ms", n)}
    metrics = {
        name: Metric(scaled[name], unit, count, f"measured {raw[name]:.6g}")
        for name, (unit, count) in units.items()
    }
    metrics["peak_rss_mb"] = Metric(
        max(s.maxrss_kib for s in setup + samples) / 1024, "MB", len(setup) + n)
    if w.name == "net-ring":
        instances = w.volume["instances"]
        metrics["instance_ticks_per_s"] = Metric(
            scaled["ticks_per_s"] * instances, "inst-ticks/s", n, f"{instances} instances")
    if w.name == "probe-corpus":
        metrics["verdict_p50_ms"] = metrics["cmd_p50_ms"]
        name = next(k for k in scaled if k.startswith("tail_ms"))
        metrics["verdict_" + name] = Metric(scaled[name], "ms", n, f"measured {raw[name]:.6g}")
    tally = check.tally
    metrics["failed_ratio"] = Metric(tally.failed / tally.attempted, "ratio", tally.attempted,
                                     f"{tally.failed} failed")
    return metrics


def traced_run(names, seed, sizes, env, pinned_for, tally: Tally, machine) -> Dict[str, Metric]:
    """Replay all four workloads in process with spans; run ``names`` as processes too."""
    tracer = traced.Tracer()
    refs = [reference_s()]
    null = WORK / "null.out"
    startup = [spawn(["-m", "tstd", "gen-trace", "--channels", "in", "--ticks", "0"], null, env)
               for _ in range(sizes.setup_reps)]
    bare = [spawn(["-c", "pass"], null, env) for _ in range(sizes.setup_reps)]
    refs.append(reference_s())
    for rc, _, _ in startup + bare:
        tally.record("startup process", [] if rc == 0 else [f"exit code {rc}"])
    untraced_s = 0.0
    volumes = {}
    for name in WORKLOADS:
        w = workloads.build(name, seed, sizes, WORK)
        check = Checker(w, pinned_for(name), tally)
        for cmd in w.setup + w.commands:
            tracer.run_id = f"{name}/{cmd.key}"
            try:
                with tracer.span("cli"):
                    rc, text = cmd.replay(tracer)
                    cmd.out.write_text(text, encoding="utf-8")
            except Exception:
                tally.record(f"{name} replay '{cmd.key}'", [traceback.format_exc(limit=3)])
                continue
            check(cmd, rc, text.encode("utf-8"), "replay")
        refs.append(reference_s())
        if name in names:
            # The checker also holds each process to the bytes its replay printed.
            for cmd in w.setup + w.commands:
                untraced_s += run_cli(cmd, env, check).wall
        volumes[name] = w.volume

    metrics: Dict[str, Metric] = {
        "cli.startup_ms": Metric(1e3 * median(s[1] for s in startup), "ms", len(startup)),
        "cli.python_ms": Metric(1e3 * median(s[1] for s in bare), "ms", len(bare)),
    }
    try:
        metrics.update((k, Metric(*v)) for k, v in traced.layer_metrics(tracer.spans).items())
    except traced.ReplayError as exc:
        tally.record("per-layer metrics", [str(exc)])
    traced_s = sum(traced.root_seconds(tracer.spans, n) for n in names)
    metrics["bench.traced_s"] = Metric(traced_s, "s", len(names), "in process, spans on")
    # One factor for the whole traced run: its spans are too short to bracket.
    scale = REF_S / median(refs)
    metrics = {
        k: m._replace(value=m.value * scale) if m.unit in TIME_UNITS else m
        for k, m in metrics.items()
    }
    metrics["bench.untraced_s"] = Metric(untraced_s, "s", len(names), "as processes")
    spans_file = WORK / f"spans-{'-'.join(names) if len(names) == 1 else 'all'}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "machine": machine, "seed": seed, "volumes": volumes,
        "metrics": {k: m._asdict() for k, m in metrics.items()},
        "spans": tracer.spans,
    }), encoding="utf-8")
    print(f"# spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    for name, volume in volumes.items():
        report(f"{name} replayed", volume, {})
    return metrics


def report(title: str, volume: Dict[str, int], metrics: Dict[str, Metric]) -> None:
    print(f"# {title}")
    if volume:
        print("#   volume: " + " ".join(f"{k}={v}" for k, v in volume.items()))
    for name, m in metrics.items():
        print(f"#   {name:<44} {m.value:>14.6g} {m.unit:<13} n={m.samples:<6} {m.volume}")


def load_pinned(seed: int, sizes):
    if seed != DEFAULT_SEED or sizes is not workloads.FULL:
        return lambda name: None
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return lambda name: pinned[name]


def pin_digests(env) -> int:
    """Write the output digests of one pass at the default seed and sizes."""
    pinned = {}
    tally = Tally()
    for name in WORKLOADS:
        w = workloads.build(name, DEFAULT_SEED, workloads.FULL, WORK)
        check = Checker(w, None, tally)
        for cmd in w.setup + w.commands:
            run_cli(cmd, env, check)
        pinned[name] = dict(sorted(check.first.items()))
    if tally.failed:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, pinned.values()))} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, all workloads, untraced and traced, no timing")
    p.add_argument("--pin-digests", action="store_true",
                   help=f"rewrite {DIGESTS.name} from the current program")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    env = child_env()
    if args.pin_digests:
        return pin_digests(env)

    names = WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = 0.0 if args.smoke else args.seconds
    modes = (0, 1) if args.smoke else (args.trace,)
    machine = machine_facts()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    pinned_for = load_pinned(args.seed, sizes)
    tally = Tally()
    result: Dict[str, Metric] = {}
    if 0 in modes:
        for name in names:
            w = workloads.build(name, args.seed, sizes, WORK)
            check = Checker(w, pinned_for(name), Tally())
            metrics = untraced(w, seconds, sizes, env, check)
            report(f"{name} seed={args.seed} untraced, closed loop, 1 client", w.volume, metrics)
            tally.attempted += check.tally.attempted
            tally.failed += check.tally.failed
            tally.messages += check.tally.messages
            prefix = "" if len(names) == 1 else f"{name}."
            result.update({prefix + k: v for k, v in metrics.items()})
    if 1 in modes:
        metrics = traced_run(names, args.seed, sizes, env, pinned_for, tally, machine)
        report(f"traced run, seed={args.seed}, all workloads replayed in process", {}, metrics)
        result.update(metrics)
    for message in tally.messages:
        print(f"# FAILED {message}")
    if len(names) == 1 and not args.smoke:
        # The driver's contract: exactly the metrics named in BENCHMARK.json.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
        result = {k: result[k] for k in wanted}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in result.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "tstd" / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"perfbench: no tstd source tree at {ROOT} (src/tstd and samples/ are needed)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import traced
    import workloads

    sys.exit(main())
