"""Render analysis tables as aligned text, CSV, or JSON.

Text output mirrors a desktop profiler's hot-spot view:
``Hot Spots - Method | Self time (%) | Self time | Invocations``.
CSV output carries one block per table, each preceded by a ``#`` section
comment; JSON output is a single object with one key per table.  All
emitters are deterministic for identical inputs, and yield their lines
one row at a time (``analysis_lines``, ``diff_lines``); the ``render_*``
functions join them into one string with ``trace.join_lines``.
"""

from __future__ import annotations

import csv
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator, Sequence

from .components import ComponentUtilizationRow
from .metrics import HotSpotRow, format_avg_ms, format_ms, format_pct
# AnalysisTables is also imported from here by callers that build sections
from .snapshot import _HEAD_FIELDS, AnalysisTables, Snapshot, SnapshotDiffRow
# the format names live with the writer, so the CLI's parser needs no report
from .trace import CSV, JSON, REPORT_FORMATS, TEXT, join_lines, json_members, json_rows


def _text_table(headers: Sequence[str], rows: list[list[str]]) -> Iterator[str]:
    """An aligned table's lines."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    # left-align the first (name) column, right-align numbers
    template = "  ".join([f"{{:<{widths[0]}}}", *(f"{{:>{w}}}" for w in widths[1:])])
    head = template.format(*headers).rstrip()
    yield head
    yield "-" * len(head)
    for row in rows:
        yield template.format(*row).rstrip()


def _text_section(tables: AnalysisTables) -> Iterator[str]:
    yield from _text_table(
        ["Hot Spots - Method", "Self time (%)", "Self time", "Invocations"],
        [[r.method, format_pct(r.self_pct), format_ms(r.self_time), str(r.invocations)]
         for r in tables.hot_spots])
    yield ""
    yield from _text_table(
        ["Method", "Total time", "Invocations"],
        [[r.method, format_ms(r.total_time), str(r.invocations)] for r in tables.total_time])
    yield ""
    yield from _text_table(
        ["Component", "Tier", "Utilization (%)", "Self time", "Invocations"],
        [[r.component, r.tier.label, format_pct(r.utilization_pct),
          format_ms(r.self_time), str(r.invocations)]
         for r in tables.components])


class _Echo:
    """A file for ``csv.writer`` whose ``write`` returns the text, so that
    ``writerow`` returns the row's line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _one_line(text: str) -> str:
    # line breaks as escapes, so a label or a text diff method keeps to its
    # line; str.replace passes a name without them far faster than translate
    return text.replace("\r", "\\r").replace("\n", "\\n")


def _csv_block(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    yield f"# {_one_line(title)}"
    # csv quotes a cell that holds a character of the terminator: either line break
    writer = csv.writer(_Echo(), lineterminator="\r\n")
    yield writer.writerow(headers)[:-2]
    for row in rows:
        yield writer.writerow(row)[:-2]


# the members of each JSON row (and CSV columns where they agree), and the
# row's values in that order; a total-time row's values are its fields
_HOTSPOT_NAMES = ("method", "self_ns", "self_pct", "invocations", "avg_ns")
_TOTAL_NAMES = ("method", "total_ns", "invocations")
_COMPONENT_NAMES = ("component", "tier", "self_ns", "utilization_pct", "invocations")


def _hotspot_values(r: HotSpotRow) -> tuple:
    return (r.method, r.self_time, float(r.self_pct), r.invocations,
            r.self_time / r.invocations)


def _component_values(r: ComponentUtilizationRow) -> tuple:
    return (r.component, r.tier.value, r.self_time, float(r.utilization_pct), r.invocations)


def _tables_json(tables: AnalysisTables, pad: str) -> Iterator[str]:
    """The members of one section's JSON object at indentation ``pad``."""
    yield from json_rows("hot_spots", _HOTSPOT_NAMES, map(_hotspot_values, tables.hot_spots),
                         pad, last=False)
    yield from json_rows("total_time", _TOTAL_NAMES, tables.total_time, pad, last=False)
    yield from json_rows("components", _COMPONENT_NAMES,
                         map(_component_values, tables.components), pad, last=True)


def analysis_lines(sections: Iterable[tuple[str, AnalysisTables]], fmt: str = TEXT,
                   labeled: bool = False) -> Iterator[str]:
    """The lines of ``render_analysis``, one section at a time: ``sections``
    is ``(label, tables)`` pairs, and may make each section's tables as it
    is read.  ``labeled`` sections carry their labels, as ``render_analysis``
    labels any number of sections but one; unlabeled JSON takes exactly one.
    """
    if fmt == TEXT:
        for i, (label, tables) in enumerate(sections):
            if i:
                yield ""
            if labeled:
                yield f"=== {label} ==="
                yield ""
            yield from _text_section(tables)
    elif fmt == CSV:
        for label, tables in sections:
            prefix = f"{label}: " if labeled else ""
            yield from _csv_block(f"{prefix}hot spots",
                                  ["method", "self_pct", "self_ns", "invocations", "avg_ns"],
                                  ([r.method, f"{float(r.self_pct):.6f}", r.self_time,
                                    r.invocations, f"{r.self_time / r.invocations:.1f}"]
                                   for r in tables.hot_spots))
            yield from _csv_block(f"{prefix}total time", _TOTAL_NAMES, tables.total_time)
            yield from _csv_block(f"{prefix}components",
                                  ["component", "tier", "utilization_pct", "self_ns",
                                   "invocations"],
                                  ([r.component, r.tier.value,
                                    f"{float(r.utilization_pct):.6f}", r.self_time,
                                    r.invocations]
                                   for r in tables.components))
    elif fmt == JSON:
        if not labeled:
            for _, tables in sections:
                yield "{"
                yield from _tables_json(tables, "  ")
                yield "}"
            return
        # each section's closing brace waits for the next section, or the end
        head, tail = '{\n  "sections": {', '{\n  "sections": {}\n}'
        for label, tables in sections:
            yield f"{head}\n    {_json_string(label)}: {{"
            yield from _tables_json(tables, "      ")
            head, tail = "    },", "    }\n  }\n}"
        yield tail
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def render_analysis(sections: dict[str, AnalysisTables], fmt: str = TEXT) -> str:
    """Render one or more labeled sections (merged view, or one per tid).

    Section keys are display labels ("merged", "thread 3").  For JSON the
    single merged section collapses to a flat object; multiple sections
    nest under "sections".
    """
    return join_lines(analysis_lines(sections.items(), fmt, labeled=len(sections) != 1))


def _per(total: int, count: int) -> float | None:
    """``float(Fraction(total, count))``, which is ``total / count``, or None
    for no count."""
    return total / count if count else None


def _ratio(r: SnapshotDiffRow) -> float | None:
    terms = r.ratio_terms
    return None if terms is None else terms[0] / terms[1]


def _cell(value: float | None, spec: str, absent: str = "") -> str:
    return absent if value is None else format(value, spec)


_DIFF_NAMES = ("method", "avg_a_ns", "avg_b_ns", "ratio", "invocations_a", "invocations_b",
               "status")


def _side_json(s: Snapshot) -> str:
    """A snapshot's header, without its format, as the members of a side's object."""
    names = [name for name, _, _ in _HEAD_FIELDS[1:]]
    return json_members(names, [getattr(s, name) for name in names], "    ")


def _diff_values(r: SnapshotDiffRow) -> tuple:
    """A row's values under ``_DIFF_NAMES``, its floats made from its integers."""
    return (r.method, _per(r.self_a, r.invocations_a), _per(r.self_b, r.invocations_b),
            _ratio(r), r.invocations_a, r.invocations_b, r.status)


def diff_lines(rows: Iterable[SnapshotDiffRow], a: Snapshot, b: Snapshot,
               fmt: str = TEXT) -> Iterator[str]:
    """The lines of ``render_diff``."""
    if fmt == TEXT:
        yield (f"Snapshot diff: a={_one_line(a.label)} (users={a.user_count})  "
               f"b={_one_line(b.label)} (users={b.user_count})")
        yield ""
        yield from _text_table(
            ["Method", "Avg a", "Avg b", "Ratio b/a", "Inv a", "Inv b", "Status"],
            [[_one_line(r.method),
              format_avg_ms(r.self_a, r.invocations_a) if r.invocations_a else "-",
              format_avg_ms(r.self_b, r.invocations_b) if r.invocations_b else "-",
              _cell(_ratio(r), ".3f", "-"), str(r.invocations_a), str(r.invocations_b),
              r.status]
             for r in rows])
    elif fmt == CSV:
        yield from _csv_block(f"diff {a.label} vs {b.label}",
                              _DIFF_NAMES,
                              ([method, _cell(avg_a, ".1f"), _cell(avg_b, ".1f"),
                                _cell(ratio, ".6f"), inv_a, inv_b, status]
                               for method, avg_a, avg_b, ratio, inv_a, inv_b, status
                               in map(_diff_values, rows)))
    elif fmt == JSON:
        yield f'{{\n  "a": {{\n{_side_json(a)}\n  }},\n  "b": {{\n{_side_json(b)}\n  }},'
        yield from json_rows("rows", _DIFF_NAMES, map(_diff_values, rows), "  ", last=True)
        yield "}"
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def render_diff(rows: list[SnapshotDiffRow], a: Snapshot, b: Snapshot,
                fmt: str = TEXT) -> str:
    """Render a snapshot diff; labels tell the reader which side is which."""
    return join_lines(diff_lines(rows, a, b, fmt))
