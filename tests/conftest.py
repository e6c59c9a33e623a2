import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def samples() -> Path:
    return SAMPLES


@pytest.fixture(scope="session")
def data() -> Path:
    return DATA


class CliResult:
    def __init__(self, code: int, out: str, err: str):
        self.code = code
        self.out = out
        self.err = err


def run_cli(*argv: str) -> CliResult:
    """Drive the CLI in-process, capturing streams and the exit code."""
    from tstd.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture
def cli():
    return run_cli


@lru_cache(maxsize=8)
def _compiled(spec):
    from tstd.executor import _compile

    return _compile(spec)


def machine_ticks(spec, cfg, ticks):
    """Ticks of ``spec``, compiled as a system of one machine
    (``tstd.executor._compile``, kept for the last few specs), from ``cfg``,
    a ``(state, var_env)`` pair by name, on ``ticks``, mappings from input
    channel to interval: one ``kernel`` call over the whole input, with the
    configuration it ends in read back by name and each tick's outputs as a
    mapping from output channel to interval."""
    machine = _compiled(spec)
    state, var_env = cfg
    config = ((spec.states.index(state), tuple(var_env[v.name] for v in spec.vars)),)
    rows = [tuple(tick[ch] for ch in machine.in_channels) for tick in ticks]
    columns = [[] for _ in machine.out_channels]
    ((target, env),) = machine.kernel(rows, config, *[column.append for column in columns])
    outputs = [
        dict(zip(machine.out_channels, (column[t] for column in columns)))
        for t in range(len(rows))
    ]
    return (spec.states[target], {v.name: x for v, x in zip(spec.vars, env)}), outputs


def machine_step(spec, cfg, tick):
    """One tick of :func:`machine_ticks`, in the shape of
    ``reference.reference_step``."""
    end, (outputs,) = machine_ticks(spec, cfg, [tick])
    return end, outputs
