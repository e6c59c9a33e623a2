import io
import sys
from contextlib import redirect_stderr, redirect_stdout
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


def machine_ticks(machine, cfg, ticks):
    """Ticks of a compiled machine (``tstd.executor._Machine``) from ``cfg``,
    a ``(state, var_env)`` pair by name, on ``ticks``, mappings from input
    channel to interval: one ``kernel`` call over the whole input, with the
    configuration it ends in read back by name and each tick's outputs as a
    mapping from output channel to interval."""
    state, var_env = cfg
    env = tuple(var_env[v] for v in machine.var_names)
    rows = [tuple(tick[ch] for ch in machine.in_channels) for tick in ticks]
    columns = [[] for _ in machine.out_channels]
    appends = [column.append for column in columns]
    target, env = machine.kernel(rows, machine.state_index[state], env, *appends)
    outputs = [
        dict(zip(machine.out_channels, (column[t] for column in columns)))
        for t in range(len(rows))
    ]
    return (tuple(machine.state_index)[target], dict(zip(machine.var_names, env))), outputs


def machine_step(machine, cfg, tick):
    """One tick of :func:`machine_ticks`, in the shape of
    ``reference.reference_step``."""
    end, (outputs,) = machine_ticks(machine, cfg, [tick])
    return end, outputs
