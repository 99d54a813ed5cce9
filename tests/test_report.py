"""The reports and snapshots, written one row at a time, against ``json.dumps``.

The object builders below are the ones the JSON forms were made from
before they were streamed; ``json.dumps(obj, indent=2)`` of what they build
is the reference for every byte.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens.components import ComponentUtilizationRow, Tier
from cct_lens.metrics import HotSpotRow, TotalTimeRow
from cct_lens.report import (REPORT_FORMATS, AnalysisTables, _text_table, analysis_lines,
                             diff_lines,
                             render_analysis, render_diff)
from cct_lens.snapshot import Snapshot, SnapshotDiffRow, dump_snapshot, snapshot_lines
from cct_lens.trace import join_lines


def _hotspot_obj(r: HotSpotRow) -> dict:
    return {
        "method": r.method,
        "self_ns": r.self_time,
        "self_pct": float(r.self_pct),
        "invocations": r.invocations,
        "avg_ns": float(Fraction(r.self_time, r.invocations)),
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


def analysis_obj(sections: dict[str, AnalysisTables]) -> dict:
    if len(sections) == 1:
        return _tables_obj(next(iter(sections.values())))
    return {"sections": {label: _tables_obj(t) for label, t in sections.items()}}


def diff_obj(rows: list[SnapshotDiffRow], a: Snapshot, b: Snapshot) -> dict:
    return {
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


def snapshot_doc(snapshot: Snapshot) -> dict:
    return {
        "format": "cct-lens/snapshot@1",
        "label": snapshot.label,
        "user_count": snapshot.user_count,
        "source_trace_digest": snapshot.source_trace_digest,
        "hot_spots": [{"method": r.method, "self_ns": r.self_time,
                       "invocations": r.invocations} for r in snapshot.hotspot_table],
        "components": [{"component": r.component, "tier": r.tier.value,
                        "self_ns": r.self_time, "invocations": r.invocations}
                       for r in snapshot.component_table],
    }


# quotes, backslashes, control characters, the line and paragraph
# separators, non-ASCII inside and outside the BMP, and any other text
NAMES = (st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028",
                                  "\u2029", "\u00e9", "\uffff", "\U0001f600", "a", "{",
                                  "}", "%"]), max_size=6)
         | st.text(max_size=6))
INTS = st.integers(0, 2**96 - 1)
SHARES = st.builds(Fraction, st.integers(0, 2**70), st.integers(1, 2**70))
HOT = st.builds(HotSpotRow, NAMES, INTS, SHARES, st.integers(1, 2**64))
TOTAL = st.builds(TotalTimeRow, NAMES, INTS, INTS)
COMPONENT = st.builds(ComponentUtilizationRow, NAMES, st.sampled_from(Tier), INTS, SHARES, INTS)
TABLES = st.builds(AnalysisTables, st.lists(HOT, max_size=4).map(tuple),
                   st.lists(TOTAL, max_size=4).map(tuple),
                   st.lists(COMPONENT, max_size=4).map(tuple))
SNAPSHOT = st.builds(Snapshot, NAMES, st.integers(-2**40, 2**40),
                     st.lists(HOT, max_size=4).map(tuple),
                     st.lists(COMPONENT, max_size=4).map(tuple), NAMES)
DIFF_ROW = st.builds(SnapshotDiffRow, NAMES, INTS, INTS, INTS, INTS,
                     st.sampled_from(["shared", "added", "removed"]))

EMPTY = AnalysisTables((), (), ())
CASES = settings(max_examples=60, deadline=None)


def each_ends_a_line(lines) -> str:
    """The text the writer writes for ``lines``, each of which must leave its
    newline to the writer: none may end with one."""
    lines = list(lines)
    assert not any(line.endswith("\n") for line in lines)
    return join_lines(lines)


@CASES
@given(st.dictionaries(NAMES, TABLES, max_size=4))
@example({"merged": EMPTY})
@example({"thread 1": EMPTY, "thread 2": EMPTY})
@example({})
def test_analysis_json_is_json_dumps(sections):
    expected = json.dumps(analysis_obj(sections), indent=2) + "\n"
    assert render_analysis(sections, "json") == expected
    # the CLI writes the lines of sections made as they are read
    lines = analysis_lines(iter(list(sections.items())), "json", labeled=len(sections) != 1)
    assert each_ends_a_line(lines) == expected


@CASES
@given(st.dictionaries(NAMES, TABLES, min_size=1, max_size=3), st.sampled_from(REPORT_FORMATS))
def test_every_analysis_line_ends_a_line(sections, fmt):
    lines = analysis_lines(sections.items(), fmt, labeled=len(sections) > 1)
    assert each_ends_a_line(lines) == render_analysis(sections, fmt)


@CASES
@given(st.lists(DIFF_ROW, max_size=5), SNAPSHOT, SNAPSHOT, st.sampled_from(REPORT_FORMATS))
@example([], Snapshot("a", 1, (), (), "x"), Snapshot("b", 2, (), (), "y"), "json")
def test_diff(rows, a, b, fmt):
    text = each_ends_a_line(diff_lines(rows, a, b, fmt))
    assert render_diff(rows, a, b, fmt) == text
    if fmt == "json":
        assert text == json.dumps(diff_obj(rows, a, b), indent=2) + "\n"


@CASES
@given(SNAPSHOT)
@example(Snapshot("empty", 0, (), (), ""))
def test_snapshot_is_json_dumps(snapshot):
    expected = json.dumps(snapshot_doc(snapshot), indent=2) + "\n"
    assert each_ends_a_line(snapshot_lines(snapshot)) == expected
    assert dump_snapshot(snapshot) == expected


def reference_text_table(headers, rows):
    """The text table as it was written before it took one template: one
    f-string per cell and one ``max`` per cell for the widths."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        parts = [f"{cells[0]:<{widths[0]}}"]
        parts += [f"{c:>{widths[i]}}" for i, c in enumerate(cells) if i > 0]
        return "  ".join(parts).rstrip()
    head = fmt(headers)
    yield head
    yield "-" * len(head)
    for row in rows:
        yield fmt(row)


# braces and format fields, combining characters, trailing whitespace
CELLS = (st.lists(st.sampled_from(["{", "}", "{}", "{0}", "{:>9}", "a", " ", "\u0301", "\u2028",
                                   "\x1f", "\u00e9", "\U0001f600", "%", "7"]),
                  max_size=5).map("".join)
         | st.text(max_size=8))


@st.composite
def text_tables(draw):
    width = draw(st.integers(1, 7))
    headers = draw(st.lists(CELLS, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6))
    return headers, rows


@CASES
@given(text_tables())
@example((["Method", "Total time", "Invocations"], []))
@example((["a wide header", "x"], [["b", "{}"], ["c\u0301", "{0:>9}"]]))
def test_text_table_is_the_cell_by_cell_table(table):
    headers, rows = table
    assert list(_text_table(headers, rows)) == list(reference_text_table(headers, rows))


def csv_rows_as_before(rows) -> str:
    """The lines ``csv.writer`` writes with its former terminator ``"\\n"``,
    under which a cell with a bare ``"\\r"`` was not quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@CASES
@given(st.lists(DIFF_ROW, max_size=5), SNAPSHOT, SNAPSHOT)
@example([SnapshotDiffRow(m, 10, 20, 2, 2, "shared") for m in ["a\rb", "a\nb", "a\r\nb", "c"]],
         Snapshot("x", 1, (), (), ""), Snapshot("y", 2, (), (), ""))
def test_csv_cells_read_back(rows, a, b):
    text = render_diff(rows, a, b, "csv")
    header, *read = csv.reader(io.StringIO(text.split("\n", 1)[1], newline=""))
    # a line break in a cell is quoted, so every method reads back whole
    assert [row[0] for row in read] == [r.method for r in rows]
    if not any("\r" in r.method for r in rows):
        # every other byte is as it was
        assert text.split("\n", 1)[1] == csv_rows_as_before([header, *read])
