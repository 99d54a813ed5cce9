"""The analysis pipeline and the snapshots it writes.

``ingest_totals`` reads a trace once, in ``loop``'s ingest loop, into the
filtered per-method sums of its merged view (or of each thread, for a
per-thread report); ``tabulate`` builds their tables.  Every report and
snapshot comes from these two steps, and neither builds a tree.
``take_snapshot`` freezes a trace's tables and ``snapshot_lines`` writes
them in the format that ``compare`` reads back and diffs.
"""

from __future__ import annotations

import io
from typing import Callable, Iterable, Iterator, NamedTuple

from .compare import (_COMPONENT_FIELDS, _HEAD_FIELDS, _HOT_FIELDS, _SNAPSHOT_FORMAT, Snapshot,
                      _head)
from .compare import diff, load_snapshot  # bench/layers.py calls them here, where they were
from .components import (ComponentCatalog, ComponentUtilizationRow, component_utilization,
                         default_hr_catalog)
from .filters import FilterSet, keeper
from .loop import _ingest
from .metrics import HotSpotRow, MethodTotals, TotalTimeRow, hotspot_rows, total_time_rows
from .trace import (ATTRIBUTE_TO_PARENT, DROP_SUBTREE, join_lines, json_members, json_rows,
                    text_lines)


class AnalysisTables(NamedTuple):
    """The three per-trace report tables, renderable in any format."""

    hot_spots: tuple[HotSpotRow, ...]
    total_time: tuple[TotalTimeRow, ...]
    components: tuple[ComponentUtilizationRow, ...]


def tabulate(totals: dict[str, MethodTotals],
             catalog: ComponentCatalog | None = None) -> AnalysisTables:
    """The hot-spot, total-time and component tables of per-method sums, as
    ``ingest_totals`` adds them up; the catalog defaults to the built-in HR one."""
    hot = hotspot_rows(totals)
    return AnalysisTables(
        hot_spots=tuple(hot),
        total_time=tuple(total_time_rows(totals)),
        components=tuple(component_utilization(hot, catalog or default_hr_catalog())),
    )


def ingest_totals(lines: Iterable[str], lenient: bool = False,
                  warn: Callable[[str], None] | None = None,
                  filter_set: FilterSet = FilterSet(), filter_mode: str = ATTRIBUTE_TO_PARENT,
                  per_thread: bool = False) -> dict:
    """``metrics.aggregate_methods(filters.apply_filter(root, filter_set,
    filter_mode))`` of ``ingest_merged``'s tree, ``{method: MethodTotals}``,
    or with ``per_thread`` of each ``ingest`` tree, ``{tid: {method:
    MethodTotals}}`` in ascending tid order, added up as frames close, with
    the checks of ``ingest``: memory follows the methods, not the contexts."""

    def table(cells: dict) -> dict[str, MethodTotals]:
        # a refused method, or one entered only under dropped frames, has no row
        return {method: MethodTotals(cell[0] - cell[2], cell[0], cell[1])
                for method, cell in cells.items() if cell and cell[1]}

    shared = None if per_thread else {}
    states = _ingest(lines, lenient, warn, shared, True, keeper(filter_set, filter_mode),
                     filter_mode == DROP_SUBTREE)
    if not per_thread:
        return table(shared)
    tables = {}
    for state in sorted(states, key=lambda s: s.tid):
        # each thread's cells go as its table is made
        tables[state.tid], state.root = table(state.root), None
    return tables


def take_snapshot(label: str, user_count: int, trace_bytes: bytes,
                  lenient: bool = False) -> Snapshot:
    """Run the full pipeline over trace content, read by ``trace.text_lines``
    as the CLI reads a trace file, and freeze the tables.  A label or user
    count that ``load_snapshot`` would refuse raises its ValueError first."""
    import hashlib

    head = _head({"label": label, "user_count": user_count,
                  "source_trace_digest": hashlib.sha256(trace_bytes).hexdigest()})
    tables = tabulate(ingest_totals(text_lines(io.BytesIO(trace_bytes)), lenient=lenient))
    return Snapshot(hotspot_table=tables.hot_spots, component_table=tables.components, **head)


def snapshot_lines(snapshot: Snapshot) -> Iterator[str]:
    """The lines of ``dump_snapshot``, one row at a time."""
    head = [_SNAPSHOT_FORMAT, *(getattr(snapshot, name) for name, _, _ in _HEAD_FIELDS[1:])]
    yield f"{{\n{json_members([name for name, _, _ in _HEAD_FIELDS], head, '  ')},"
    yield from json_rows("hot_spots", [name for name, _, _ in _HOT_FIELDS],
                         ((r.method, r.self_time, r.invocations) for r in snapshot.hotspot_table),
                         "  ", last=False)
    yield from json_rows("components", [name for name, _, _ in _COMPONENT_FIELDS],
                         ((r.component, r.tier, r.self_time, r.invocations)
                          for r in snapshot.component_table),
                         "  ", last=True)
    yield "}"


def dump_snapshot(snapshot: Snapshot) -> str:
    """Serialize to JSON; percentages are recomputed on load, not stored."""
    return join_lines(snapshot_lines(snapshot))
