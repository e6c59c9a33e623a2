"""The component table format (``*.ttab``).

Preamble lines ``@component``, ``@in``, ``@out``, ``@var NAME = INT``,
``@state NAME``, ``@initial NAME``, then a header row
``source, when:CH..., guard, emit:CH..., set, target`` (one ``when:`` column
per input channel, one ``emit:`` column per output channel, declaration
order) and one comma-separated row per transition.  Cells reuse the textual
clause syntax of :mod:`tstd.dsl`; multiple guards or updates within a cell are
separated by ``;`` since the comma is the column separator.  An empty cell
means unconstrained / no emission / no update.

The parser shares its clause parsers and its back half, with every
reference check, with :func:`tstd.dsl.parse_component`.  The CLI and the
network loader import this module only for a ``.ttab`` file.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .dsl import (
    _parse_emission,
    _parse_pattern,
    _parse_update,
    _parse_var_guard,
    _RawTransition,
    _SpecBuilder,
)
from .model import ComponentSpec, Direction, IntervalGuard
from .streams import IDENT_RE, _Issues, _logical_lines

__all__ = ["parse_table", "print_table"]


def _header(ins: Sequence[str], outs: Sequence[str]) -> List[str]:
    """The header row's cells for input channels ``ins`` and outputs ``outs``."""
    return [
        "source", *(f"when:{ch}" for ch in ins), "guard", *(f"emit:{ch}" for ch in outs),
        "set", "target",
    ]


def parse_table(text: str) -> ComponentSpec:
    """Parse the table component style; raises ParseFailure on any error."""
    issues = _Issues()
    builder = _SpecBuilder(issues)
    header: Optional[List[str]] = None

    for lineno, content in _logical_lines(text):
        stripped = content.strip()
        if not stripped:
            continue
        if stripped.startswith("@"):
            if header is not None:
                issues.add(lineno, 1, "preamble line after the header row")
                continue
            keyword, _, rest = stripped.partition(" ")
            rest = rest.strip()
            if keyword == "@component":
                builder.declare_component(lineno, rest)
            elif keyword in ("@in", "@out"):
                if IDENT_RE.match(rest):
                    builder.declare_channel(lineno, rest, Direction(keyword[1:]))
                else:
                    issues.add(lineno, 1, f"expected '{keyword} NAME'")
            elif keyword == "@var":
                builder.declare_var(lineno, keyword, rest)
            elif keyword in ("@state", "@initial"):
                if not IDENT_RE.match(rest):
                    issues.add(lineno, 1, f"expected '{keyword} NAME'")
                elif keyword == "@state":
                    builder.declare_state(lineno, rest)
                else:
                    builder.declare_initial(lineno, rest)
            else:
                issues.add(lineno, 1, f"unknown preamble directive {keyword!r}")
            continue

        cells = [c.strip() for c in content.split(",")]
        if header is None:
            header = _header(builder.in_channels(), builder.out_channels())
            if cells != header:
                issues.add(
                    lineno,
                    1,
                    f"header row must be '{', '.join(header)}', got '{', '.join(cells)}'",
                )
            continue

        if len(cells) != len(header):
            issues.add(lineno, 1, f"row has {len(cells)} cells, expected {len(header)}")
            continue
        builder.transitions.append(_parse_table_row(lineno, content, header, cells, issues))

    spec = builder.finish()
    issues.raise_if_any()
    return spec


def _cell_column(content: str, index: int) -> int:
    # Character offset of the index-th comma-separated cell, 1-based.
    pos = 0
    for _ in range(index):
        pos = content.find(",", pos) + 1
    return pos + 1


# The reader of a when cell, or of one ``;``-separated part of a guard or
# set cell, and what a text it refuses is called.  A when cell's pattern
# guards its column's channel; a guard or set column has none.
_CELL_READERS = {
    "when": (_parse_pattern, "interval pattern"),
    "guard": (_parse_var_guard, "variable guard"),
    "set": (_parse_update, "update"),
}


def _parse_table_row(
    lineno: int, content: str, header: List[str], cells: List[str], issues: _Issues
) -> _RawTransition:
    """The transition of a row whose ``cells`` fill the columns of ``header``;
    each cell's issues are reported at the cell's column."""
    raw = _RawTransition(lineno, cells[0], cells[-1])
    for index in range(1, len(header) - 1):
        cell = cells[index]
        if not cell:
            continue
        kind, _, channel = header[index].partition(":")
        col = _cell_column(content, index)
        with issues.located(lineno, col):
            if kind == "emit":
                action = _parse_emission(lineno, col, channel, cell, issues)
                if action is not None:
                    raw.add(kind, lineno, action)
                continue
            read, what = _CELL_READERS[kind]
            for part in (cell,) if kind == "when" else cell.split(";"):
                clause = read(part)
                if clause is None:
                    issues.add(lineno, col, f"malformed {what} {part.strip()!r}")
                else:
                    raw.add(kind, lineno, IntervalGuard(channel, clause) if channel else clause)
    return raw


def print_table(spec: ComponentSpec) -> str:
    """Canonical table form; ``parse_table`` inverts it exactly."""
    out: List[str] = [f"@component {spec.name}"]
    for ch in spec.channels:
        out.append(f"@{ch.direction.value} {ch.name}")
    for v in spec.vars:
        out.append(f"@var {v.name} = {v.initial}")
    for s in spec.states:
        out.append(f"@state {s}")
    out.append(f"@initial {spec.initial}")
    ins = spec.in_channels()
    outs = spec.out_channels()
    out.append(", ".join(_header(ins, outs)))
    for t in spec.transitions:
        guards = {g.channel: g.pattern for g in t.interval_guards}
        emits = {o.channel: o for o in t.outputs}
        cells = [t.source]
        for ch in ins:
            cells.append(guards[ch].render() if ch in guards else "")
        cells.append("; ".join(vg.render() for vg in t.var_guards))
        for ch in outs:
            o = emits.get(ch)
            if o is None:
                cells.append("")
            elif o.is_pass:
                cells.append(f"pass({o.source})")
            else:
                cells.append(" ".join(m.token() for m in o.messages))
        cells.append("; ".join(u.render() for u in t.updates))
        cells.append(t.target)
        out.append(", ".join(cells))
    return "\n".join(out) + "\n"
