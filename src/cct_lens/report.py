"""Render analysis tables as aligned text, CSV, or JSON.

Text output mirrors a desktop profiler's hot-spot view:
``Hot Spots - Method | Self time (%) | Self time | Invocations``.
CSV output carries one block per table, each preceded by a ``#`` section
comment; JSON output is a single object with one key per table.  All
emitters are deterministic for identical inputs, and yield their lines
one row at a time (``analysis_lines``); ``render_analysis`` joins them
with ``trace.join_lines``.  ``compare`` renders diffs, with the same writers.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator

from .compare import _csv_block, _text_table, format_ms, format_pct
from .compare import render_diff  # bench/layers.py calls it here, where it was
from .components import ComponentUtilizationRow
from .metrics import HotSpotRow
# AnalysisTables is also imported from here by callers that build sections
from .snapshot import AnalysisTables
# the format names live with the writer, so the CLI's parser needs no report
from .trace import CSV, JSON, REPORT_FORMATS, TEXT, join_lines, json_rows


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
        [[r.component, r.tier.capitalize(), format_pct(r.utilization_pct),
          format_ms(r.self_time), str(r.invocations)]
         for r in tables.components])


# the members of each JSON row (and CSV columns where they agree), and the
# row's values in that order; a total-time row's values are its fields
_HOTSPOT_NAMES = ("method", "self_ns", "self_pct", "invocations", "avg_ns")
_TOTAL_NAMES = ("method", "total_ns", "invocations")
_COMPONENT_NAMES = ("component", "tier", "self_ns", "utilization_pct", "invocations")


def _hotspot_values(r: HotSpotRow) -> tuple:
    return (r.method, r.self_time, float(r.self_pct), r.invocations,
            r.self_time / r.invocations)


def _component_values(r: ComponentUtilizationRow) -> tuple:
    return (r.component, r.tier, r.self_time, float(r.utilization_pct), r.invocations)


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
                                  ([r.component, r.tier, f"{float(r.utilization_pct):.6f}",
                                    r.self_time, r.invocations]
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
