"""The analysis pipeline, labeled snapshots and load-level diffs.

``cct.ingest_merged`` reads a trace once into its merged tree (or
``cct.ingest`` into its per-thread trees, for a per-thread report);
``tabulate`` filters a tree and builds its tables.  Every report and
snapshot comes from these two steps.  A snapshot freezes the
hot-spot and component tables with a label (e.g. "20-user") and the
trace digest, and persists as JSON so two load levels can be compared
without keeping the traces.

The diff joins two snapshots per method and compares average self time
per invocation as a ratio b/a.  Methods with zero average on both sides
get ratio 1 (nothing changed); a zero on exactly one side leaves the
ratio undefined.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Iterator, NamedTuple

from .cct import CctNode, ingest_merged
from .components import (ComponentCatalog, ComponentUtilizationRow, Tier,
                         component_utilization, default_hr_catalog)
from .filters import ATTRIBUTE_TO_PARENT, FilterSet, apply_filter
from .metrics import (HotSpotRow, TotalTimeRow, aggregate_methods, hotspot_rows,
                      total_time_rows)
from .trace import errors_in, json_field, json_members, json_rows, write_lines

_SNAPSHOT_FORMAT = "cct-lens/snapshot@1"

SHARED = "shared"
ADDED = "added"
REMOVED = "removed"


class AnalysisTables(NamedTuple):
    """The three per-trace report tables, renderable in any format."""

    hot_spots: tuple[HotSpotRow, ...]
    total_time: tuple[TotalTimeRow, ...]
    components: tuple[ComponentUtilizationRow, ...]


class Snapshot(NamedTuple):
    label: str
    user_count: int
    hotspot_table: tuple[HotSpotRow, ...]
    component_table: tuple[ComponentUtilizationRow, ...]
    source_trace_digest: str


def tabulate(root: CctNode, catalog: ComponentCatalog | None = None,
             filter_set: FilterSet = FilterSet(),
             filter_mode: str = ATTRIBUTE_TO_PARENT) -> AnalysisTables:
    """Filter a tree, then build its hot-spot, total-time and component tables.

    The tables come from one walk of the tree; the catalog defaults to the
    built-in HR one.
    """
    totals = aggregate_methods(apply_filter(root, filter_set, filter_mode))
    hot = hotspot_rows(totals)
    return AnalysisTables(
        hot_spots=tuple(hot),
        total_time=tuple(total_time_rows(totals)),
        components=tuple(component_utilization(hot, catalog or default_hr_catalog())),
    )


def take_snapshot(label: str, user_count: int, trace_bytes: bytes,
                  lenient: bool = False) -> Snapshot:
    """Run the full pipeline over trace content and freeze the tables.

    Lines split as in a file opened with ``open(path, encoding="utf-8")``.
    """
    import hashlib

    with io.TextIOWrapper(io.BytesIO(trace_bytes), encoding="utf-8") as text:
        root = ingest_merged(text, lenient=lenient)
    tables = tabulate(root)
    return Snapshot(label, user_count, tables.hot_spots, tables.components,
                    hashlib.sha256(trace_bytes).hexdigest())


class SnapshotDiffRow(NamedTuple):
    method: str
    avg_a: Fraction | None       # ns per invocation; None when absent in a
    avg_b: Fraction | None
    invocations_a: int
    invocations_b: int
    ratio: Fraction | None       # avg_b / avg_a where defined
    status: str                  # shared | added | removed

    @property
    def deviation(self) -> Fraction | None:
        """Distance of the ratio from 1; the diff's sort key."""
        if self.ratio is None:
            return None
        return abs(self.ratio - 1)


def diff(a: Snapshot, b: Snapshot) -> list[SnapshotDiffRow]:
    """Join two snapshots per method, largest average-ratio change first.

    Shared methods sort by |ratio - 1| descending (undefined ratios
    first, since they indicate a method that went from zero-cost to
    costing something or vice versa); added/removed rows come last.
    Ties break by method name.
    """
    rows_a = {r.method: r for r in a.hotspot_table}
    rows_b = {r.method: r for r in b.hotspot_table}
    shared_rows: list[SnapshotDiffRow] = []
    added_removed: list[SnapshotDiffRow] = []
    for method in rows_a.keys() | rows_b.keys():
        in_a, in_b = rows_a.get(method), rows_b.get(method)
        if in_a is not None and in_b is not None:
            avg_a = in_a.avg_per_invocation
            avg_b = in_b.avg_per_invocation
            if avg_a == 0 and avg_b == 0:
                ratio = Fraction(1)
            elif avg_a == 0 or avg_b == 0:
                ratio = None
            else:
                ratio = avg_b / avg_a
            shared_rows.append(SnapshotDiffRow(
                method, avg_a, avg_b, in_a.invocations, in_b.invocations,
                ratio, SHARED))
        elif in_b is not None:
            added_removed.append(SnapshotDiffRow(
                method, None, in_b.avg_per_invocation, 0, in_b.invocations,
                None, ADDED))
        else:
            added_removed.append(SnapshotDiffRow(
                method, in_a.avg_per_invocation, None, in_a.invocations, 0,
                None, REMOVED))

    def shared_key(row: SnapshotDiffRow):
        dev = row.deviation
        # undefined deviation outranks any finite one
        return (0, Fraction(0), row.method) if dev is None else (1, -dev, row.method)

    shared_rows.sort(key=shared_key)
    added_removed.sort(key=lambda r: (r.status, r.method))
    return shared_rows + added_removed


# the members of a snapshot's header, and (field, type, minimum) per row, in
# the order written; diff divides by hot-spot invocations
_HEAD_NAMES = ("format", "label", "user_count", "source_trace_digest")
_HOT_FIELDS = (("method", str, None), ("self_ns", int, 0), ("invocations", int, 1))
_COMPONENT_FIELDS = (("component", str, None), ("tier", str, None),
                     ("self_ns", int, 0), ("invocations", int, 0))


def snapshot_lines(snapshot: Snapshot) -> Iterator[str]:
    """The lines of ``dump_snapshot``, each with its newline, one row at a time."""
    head = (_SNAPSHOT_FORMAT, snapshot.label, snapshot.user_count,
            snapshot.source_trace_digest)
    yield f"{{\n{json_members(_HEAD_NAMES, head, '  ')},\n"
    yield from json_rows("hot_spots", [name for name, _, _ in _HOT_FIELDS],
                         ((r.method, r.self_time, r.invocations) for r in snapshot.hotspot_table),
                         "  ", last=False)
    yield from json_rows("components", [name for name, _, _ in _COMPONENT_FIELDS],
                         ((r.component, r.tier.value, r.self_time, r.invocations)
                          for r in snapshot.component_table),
                         "  ", last=True)
    yield "}\n"


def dump_snapshot(snapshot: Snapshot) -> str:
    """Serialize to JSON; percentages are recomputed on load, not stored."""
    return "".join(snapshot_lines(snapshot))


def _table_field(obj, key: str, kind: type, minimum: int | None = None, where: str = ""):
    """``trace.json_field``, refusing integers of 2**96 or more.  The tables of
    any trace that ``ingest`` accepts stay below that (each thread's times are
    below 2**64), and every diff format renders them."""
    value = json_field(obj, key, kind, minimum, where)
    if kind is int and value >= 2**96:
        raise ValueError(f"{where}{key!r} must be below 2**96")
    return value


def _rows(doc: dict, key: str, fields) -> list[tuple]:
    """The rows of ``doc[key]`` as tuples of ``fields``.  The text fields name
    a row (a method, or a component and tier), so no two rows may share them."""
    rows, seen = [], set()
    for i, row in enumerate(json_field(doc, key, list)):
        where = f"{key}[{i}]: "
        values = tuple(_table_field(row, *field, where=where) for field in fields)
        name = tuple((f, v) for (f, kind, _), v in zip(fields, values) if kind is str)
        if name in seen:
            raise ValueError(f"{where}duplicate " + ", ".join(f"{f} {v!r}" for f, v in name))
        seen.add(name)
        rows.append(values)
    return rows


def load_snapshot(text: str) -> Snapshot:
    """Parse a snapshot document; raises ValueError on any missing or mistyped field."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad snapshot document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _SNAPSHOT_FORMAT:
        raise ValueError(f"not a {_SNAPSHOT_FORMAT} document")
    hot = _rows(doc, "hot_spots", _HOT_FIELDS)
    denom = sum(self_ns for _, self_ns, _ in hot)
    hot_rows = tuple(
        HotSpotRow(method, self_ns, Fraction(self_ns, denom) if denom else Fraction(0),
                   invocations)
        for method, self_ns, invocations in hot
    )
    comps = _rows(doc, "components", _COMPONENT_FIELDS)
    tiers = {t.value: t for t in Tier}
    for i, (_, tier, _, _) in enumerate(comps):
        if tier not in tiers:
            raise ValueError(f"components[{i}]: unknown tier {tier!r} "
                             f"(expected {', '.join(tiers)})")
    comp_denom = sum(self_ns for _, _, self_ns, _ in comps)
    comp_rows = tuple(
        ComponentUtilizationRow(component, tiers[tier], self_ns,
                                Fraction(self_ns, comp_denom) if comp_denom else Fraction(0),
                                invocations)
        for component, tier, self_ns, invocations in comps
    )
    return Snapshot(
        label=json_field(doc, "label", str),
        user_count=json_field(doc, "user_count", int),
        hotspot_table=hot_rows,
        component_table=comp_rows,
        source_trace_digest=json_field(doc, "source_trace_digest", str),
    )


def save_snapshot(snapshot: Snapshot, path) -> None:
    """Write a snapshot file with ``trace.write_lines``; a failed write names the file."""
    write_lines(snapshot_lines(snapshot), path)


def load_snapshot_file(path) -> Snapshot:
    """Load a snapshot file; errors name the file (``trace.errors_in``).

    A file whose first non-blank character is not ``{`` is refused before
    the rest of it is read.
    """
    with errors_in(path), open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096)
        start = head.lstrip(" \t\n\r")
        if start and start[0] != "{":
            raise ValueError(f"not a {_SNAPSHOT_FORMAT} document")
        return load_snapshot(head + fh.read())
