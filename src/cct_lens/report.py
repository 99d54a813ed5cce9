"""Render analysis tables as aligned text, CSV, or JSON.

Text output mirrors a desktop profiler's hot-spot view:
``Hot Spots - Method | Self time (%) | Self time | Invocations``.
CSV output carries one block per table, each preceded by a ``#`` section
comment; JSON output is a single object with one key per table.  All
emitters are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .components import ComponentUtilizationRow
from .metrics import (HotSpotRow, TotalTimeRow, format_avg_ms, format_ms,
                      format_pct)
# AnalysisTables is also imported from here by callers that build sections
from .snapshot import AnalysisTables, Snapshot, SnapshotDiffRow

TEXT, CSV, JSON = "text", "csv", "json"
REPORT_FORMATS = (TEXT, CSV, JSON)


def _text_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    rows = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        # left-align the first (name) column, right-align numbers
        parts = [f"{cells[0]:<{widths[0]}}"]
        parts += [f"{c:>{widths[i]}}" for i, c in enumerate(cells) if i > 0]
        return "  ".join(parts).rstrip()
    lines = [fmt(headers)]
    lines.append("-" * len(lines[0]))
    lines.extend(fmt(row) for row in rows)
    return lines


def hotspot_cells(rows: Iterable[HotSpotRow]) -> list[list[str]]:
    return [
        [r.method, format_pct(r.self_pct), format_ms(r.self_time), str(r.invocations)]
        for r in rows
    ]


def render_hotspots_text(rows: Iterable[HotSpotRow]) -> list[str]:
    headers = ["Hot Spots - Method", "Self time (%)", "Self time", "Invocations"]
    return _text_table(headers, hotspot_cells(rows))


def render_total_time_text(rows: Iterable[TotalTimeRow]) -> list[str]:
    headers = ["Method", "Total time", "Invocations"]
    cells = [[r.method, format_ms(r.total_time), str(r.invocations)] for r in rows]
    return _text_table(headers, cells)


def render_components_text(rows: Iterable[ComponentUtilizationRow]) -> list[str]:
    headers = ["Component", "Tier", "Utilization (%)", "Self time", "Invocations"]
    cells = [
        [r.component, r.tier.label, format_pct(r.utilization_pct),
         format_ms(r.self_time), str(r.invocations)]
        for r in rows
    ]
    return _text_table(headers, cells)


def _hotspot_obj(r: HotSpotRow) -> dict:
    return {
        "method": r.method,
        "self_ns": r.self_time,
        "self_pct": float(r.self_pct),
        "invocations": r.invocations,
        "avg_ns": float(r.avg_per_invocation),
    }


def _total_obj(r: TotalTimeRow) -> dict:
    return {"method": r.method, "total_ns": r.total_time, "invocations": r.invocations}


def _component_obj(r: ComponentUtilizationRow) -> dict:
    return {
        "component": r.component,
        "tier": r.tier.value,
        "self_ns": r.self_time,
        "utilization_pct": float(r.utilization_pct),
        "invocations": r.invocations,
    }


def _tables_obj(tables: AnalysisTables) -> dict:
    return {
        "hot_spots": [_hotspot_obj(r) for r in tables.hot_spots],
        "total_time": [_total_obj(r) for r in tables.total_time],
        "components": [_component_obj(r) for r in tables.components],
    }


def _csv_block(out, title: str, headers: Sequence[str], rows: Iterable[Sequence]):
    out.write(f"# {title}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def render_analysis(sections: dict[str, AnalysisTables], fmt: str = TEXT) -> str:
    """Render one or more labeled sections (merged view, or one per tid).

    Section keys are display labels ("merged", "thread 3").  For JSON the
    single merged section collapses to a flat object; multiple sections
    nest under "sections".
    """
    if fmt == TEXT:
        out: list[str] = []
        for label, tables in sections.items():
            if len(sections) > 1:
                out.append(f"=== {label} ===")
                out.append("")
            out.extend(render_hotspots_text(tables.hot_spots))
            out.append("")
            out.extend(render_total_time_text(tables.total_time))
            out.append("")
            out.extend(render_components_text(tables.components))
            out.append("")
        return "\n".join(out)
    if fmt == CSV:
        buf = io.StringIO()
        for label, tables in sections.items():
            prefix = f"{label}: " if len(sections) > 1 else ""
            _csv_block(buf, f"{prefix}hot spots",
                       ["method", "self_pct", "self_ns", "invocations", "avg_ns"],
                       [[r.method, f"{float(r.self_pct):.6f}", r.self_time,
                         r.invocations, f"{float(r.avg_per_invocation):.1f}"]
                        for r in tables.hot_spots])
            _csv_block(buf, f"{prefix}total time",
                       ["method", "total_ns", "invocations"],
                       [[r.method, r.total_time, r.invocations]
                        for r in tables.total_time])
            _csv_block(buf, f"{prefix}components",
                       ["component", "tier", "utilization_pct", "self_ns", "invocations"],
                       [[r.component, r.tier.value, f"{float(r.utilization_pct):.6f}",
                         r.self_time, r.invocations]
                        for r in tables.components])
        return buf.getvalue()
    if fmt == JSON:
        if len(sections) == 1:
            obj = _tables_obj(next(iter(sections.values())))
        else:
            obj = {"sections": {label: _tables_obj(t) for label, t in sections.items()}}
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def _ratio_text(ratio: Fraction | None) -> str:
    if ratio is None:
        return "-"
    return f"{float(ratio):.3f}"


def _avg_text(avg: Fraction | None) -> str:
    return "-" if avg is None else format_avg_ms(avg)


def render_diff(rows: list[SnapshotDiffRow], a: Snapshot, b: Snapshot,
                fmt: str = TEXT) -> str:
    """Render a snapshot diff; labels tell the reader which side is which."""
    if fmt == TEXT:
        title = f"Snapshot diff: a={a.label} (users={a.user_count})  b={b.label} (users={b.user_count})"
        headers = ["Method", "Avg a", "Avg b", "Ratio b/a", "Inv a", "Inv b", "Status"]
        cells = [
            [r.method, _avg_text(r.avg_a), _avg_text(r.avg_b), _ratio_text(r.ratio),
             str(r.invocations_a), str(r.invocations_b), r.status]
            for r in rows
        ]
        return "\n".join([title, ""] + _text_table(headers, cells)) + "\n"
    if fmt == CSV:
        buf = io.StringIO()
        _csv_block(buf, f"diff {a.label} vs {b.label}",
                   ["method", "avg_a_ns", "avg_b_ns", "ratio", "invocations_a",
                    "invocations_b", "status"],
                   [[r.method,
                     "" if r.avg_a is None else f"{float(r.avg_a):.1f}",
                     "" if r.avg_b is None else f"{float(r.avg_b):.1f}",
                     "" if r.ratio is None else f"{float(r.ratio):.6f}",
                     r.invocations_a, r.invocations_b, r.status]
                    for r in rows])
        return buf.getvalue()
    if fmt == JSON:
        obj = {
            "a": {"label": a.label, "user_count": a.user_count,
                  "source_trace_digest": a.source_trace_digest},
            "b": {"label": b.label, "user_count": b.user_count,
                  "source_trace_digest": b.source_trace_digest},
            "rows": [
                {
                    "method": r.method,
                    "avg_a_ns": None if r.avg_a is None else float(r.avg_a),
                    "avg_b_ns": None if r.avg_b is None else float(r.avg_b),
                    "ratio": None if r.ratio is None else float(r.ratio),
                    "invocations_a": r.invocations_a,
                    "invocations_b": r.invocations_b,
                    "status": r.status,
                }
                for r in rows
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def render_edges(edges) -> Iterator[str]:
    """Call-graph edges as tab-separated rows under a comment header, one
    line each with its newline, as they come."""
    yield "# caller\tcallee\tcalls\tcallee_total_ns\n"
    for e in edges:
        yield f"{e.caller}\t{e.callee}\t{e.calls}\t{e.callee_total_time}\n"
