"""Labeled analysis snapshots and load-level diffs.

A snapshot freezes the full pipeline result for one trace: hot-spot
table, component-utilization table, a label (e.g. "20-user"), and a
sha256 digest of the analyzed trace for provenance.  Snapshots persist
as JSON so two load levels can be compared without keeping the traces.

The diff joins two snapshots per method and compares average self time
per invocation as a ratio b/a.  Methods with zero average on both sides
get ratio 1 (nothing changed); a zero on exactly one side leaves the
ratio undefined.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .cct import ingest
from .components import (ComponentCatalog, ComponentUtilizationRow, Tier,
                         component_utilization, default_hr_catalog)
from .filters import ATTRIBUTE_TO_PARENT, FilterSet, apply_filter
from .metrics import HotSpotRow, hotspots

_SNAPSHOT_FORMAT = "cct-lens/snapshot@1"

SHARED = "shared"
ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class Snapshot:
    label: str
    user_count: int
    hotspot_table: tuple[HotSpotRow, ...]
    component_table: tuple[ComponentUtilizationRow, ...]
    source_trace_digest: str


def trace_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def analyze_trace_text(text: str, filter_set: FilterSet | None = None,
                       filter_mode: str = ATTRIBUTE_TO_PARENT,
                       lenient: bool = False):
    """Parse, build, filter, and merge; returns the merged tree."""
    forest = ingest(text.splitlines(), lenient=lenient)
    merged = forest.merged()
    if filter_set is not None and not filter_set.is_identity():
        merged = apply_filter(merged, filter_set, filter_mode)
    return merged


def take_snapshot(label: str, user_count: int, trace_bytes: bytes,
                  filter_set: FilterSet | None = None,
                  catalog: ComponentCatalog | None = None,
                  filter_mode: str = ATTRIBUTE_TO_PARENT,
                  lenient: bool = False) -> Snapshot:
    """Run the full pipeline over trace content and freeze the tables."""
    merged = analyze_trace_text(trace_bytes.decode("utf-8"), filter_set,
                                filter_mode, lenient)
    rows = hotspots(merged)
    comp = component_utilization(rows, catalog or default_hr_catalog())
    return Snapshot(
        label=label,
        user_count=user_count,
        hotspot_table=tuple(rows),
        component_table=tuple(comp),
        source_trace_digest=trace_digest(trace_bytes),
    )


def take_snapshot_file(label: str, user_count: int, path, **kwargs) -> Snapshot:
    with open(path, "rb") as fh:
        return take_snapshot(label, user_count, fh.read(), **kwargs)


@dataclass(frozen=True)
class SnapshotDiffRow:
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


def _hotspot_row_obj(row: HotSpotRow) -> dict:
    return {"method": row.method, "self_ns": row.self_time, "invocations": row.invocations}


def _component_row_obj(row: ComponentUtilizationRow) -> dict:
    return {"component": row.component, "tier": row.tier.value,
            "self_ns": row.self_time, "invocations": row.invocations}


def dump_snapshot(snapshot: Snapshot) -> str:
    """Serialize to JSON; percentages are recomputed on load, not stored."""
    doc = {
        "format": _SNAPSHOT_FORMAT,
        "label": snapshot.label,
        "user_count": snapshot.user_count,
        "source_trace_digest": snapshot.source_trace_digest,
        "hot_spots": [_hotspot_row_obj(r) for r in snapshot.hotspot_table],
        "components": [_component_row_obj(r) for r in snapshot.component_table],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_snapshot(text: str) -> Snapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad snapshot document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _SNAPSHOT_FORMAT:
        raise ValueError(f"not a {_SNAPSHOT_FORMAT} document")
    hot_objs = doc.get("hot_spots", [])
    denom = sum(int(r["self_ns"]) for r in hot_objs)
    hot_rows = tuple(
        HotSpotRow(
            method=r["method"],
            self_time=int(r["self_ns"]),
            self_pct=Fraction(int(r["self_ns"]), denom) if denom else Fraction(0),
            invocations=int(r["invocations"]),
        )
        for r in hot_objs
    )
    comp_objs = doc.get("components", [])
    comp_denom = sum(int(r["self_ns"]) for r in comp_objs)
    comp_rows = tuple(
        ComponentUtilizationRow(
            component=r["component"],
            tier=Tier(r["tier"]),
            self_time=int(r["self_ns"]),
            utilization_pct=(Fraction(int(r["self_ns"]), comp_denom)
                             if comp_denom else Fraction(0)),
            invocations=int(r["invocations"]),
        )
        for r in comp_objs
    )
    return Snapshot(
        label=str(doc.get("label", "")),
        user_count=int(doc.get("user_count", 0)),
        hotspot_table=hot_rows,
        component_table=comp_rows,
        source_trace_digest=str(doc.get("source_trace_digest", "")),
    )


def save_snapshot(snapshot: Snapshot, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_snapshot(snapshot))


def load_snapshot_file(path) -> Snapshot:
    with open(path, "r", encoding="utf-8") as fh:
        return load_snapshot(fh.read())
