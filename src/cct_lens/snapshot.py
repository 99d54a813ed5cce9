"""The analysis pipeline, labeled snapshots and load-level diffs.

``ingest_totals`` reads a trace once, in ``cct``'s ingest loop, into the
filtered per-method sums of its merged view (or of each thread, for a
per-thread report); ``tabulate`` builds their tables.  Every report and
snapshot comes from these two steps, and neither builds a tree.  A
snapshot freezes the hot-spot and component tables with a label (e.g.
"20-user") and the trace digest, and persists as JSON so two load levels
can be compared without keeping the traces.

The diff joins two snapshots per method and compares average self time
per invocation as a ratio b/a.  Methods with zero average on both sides
get ratio 1 (nothing changed); a zero on exactly one side leaves the
ratio undefined.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .components import (TIERS, ComponentCatalog, ComponentUtilizationRow, Tier,
                         component_utilization, default_hr_catalog)
from .filters import ATTRIBUTE_TO_PARENT, DROP_SUBTREE, FilterSet, keeper
from .metrics import HotSpotRow, MethodTotals, TotalTimeRow, hotspot_rows, total_time_rows
from .trace import (clip, join_lines, json_field, json_members, json_rows, load_json_file,
                    text_lines)

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
    from .cct import _ingest

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


class SnapshotDiffRow(NamedTuple):
    """One method's row of a diff: its self time and invocations on each
    side, both 0 on a side where it is absent (a table row has at least one
    invocation).  The averages and the ratio are exact ``Fraction``s, made
    when they are read."""

    method: str
    self_a: int                  # ns, summed over contexts
    self_b: int
    invocations_a: int
    invocations_b: int
    status: str                  # shared | added | removed

    @property
    def avg_a(self) -> Fraction | None:
        """Self ns per invocation in a; None when absent in a."""
        return Fraction(self.self_a, self.invocations_a) if self.invocations_a else None

    @property
    def avg_b(self) -> Fraction | None:
        return Fraction(self.self_b, self.invocations_b) if self.invocations_b else None

    @property
    def ratio_terms(self) -> tuple[int, int] | None:
        """The numerator and denominator of ``ratio``, not reduced; None
        where it is undefined."""
        sa, sb, ia, ib = self.self_a, self.self_b, self.invocations_a, self.invocations_b
        if not (ia and ib) or (sa == 0) != (sb == 0):
            return None
        return (sb * ia, sa * ib) if sa else (1, 1)

    @property
    def ratio(self) -> Fraction | None:
        """avg_b / avg_a where both sides have the method: 1 when both
        averages are zero, None when exactly one is."""
        terms = self.ratio_terms
        return None if terms is None else Fraction(*terms)

    @property
    def deviation(self) -> Fraction | None:
        """Distance of the ratio from 1; the diff's sort key."""
        ratio = self.ratio
        return None if ratio is None else abs(ratio - 1)


def diff(a: Snapshot, b: Snapshot) -> list[SnapshotDiffRow]:
    """Join two snapshots per method, largest average-ratio change first.

    Shared methods sort by |ratio - 1| descending (undefined ratios
    first, since they indicate a method that went from zero-cost to
    costing something or vice versa); added/removed rows come last.
    Ties break by method name.

    The order is exact for values below ``_INT_LIMIT``: every snapshot
    ``load_snapshot`` accepts, and every table of a trace ``ingest`` accepts.
    A shared row sorts on the integer ``(|n - d| << _KEY_SHIFT) // d`` for
    ``(n, d) = ratio_terms``, which orders rows as their deviations do.
    """
    # HotSpotRow is (method, self_time, self_pct, invocations)
    rows_a = {r.method: r for r in a.hotspot_table}
    rows_b = {r.method: r for r in b.hotspot_table}
    # (rank, key, method, row): undefined ratios rank 0, defined ones 1,
    # added 2 and removed 3; methods are unique, so a sort compares no further
    keyed = []
    for method, (_, sa, _, ia) in rows_a.items():
        in_b = rows_b.pop(method, None)
        if in_b is None:
            keyed.append((3, 0, method, SnapshotDiffRow(method, sa, 0, ia, 0, REMOVED)))
            continue
        _, sb, _, ib = in_b
        row = SnapshotDiffRow(method, sa, sb, ia, ib, SHARED)
        terms = row.ratio_terms
        if terms is None:
            keyed.append((0, 0, method, row))
        else:
            n, d = terms
            keyed.append((1, -((abs(n - d) << _KEY_SHIFT) // d), method, row))
    for method, (_, sb, _, ib) in rows_b.items():
        keyed.append((2, 0, method, SnapshotDiffRow(method, 0, sb, 0, ib, ADDED)))
    keyed.sort()
    return [k[-1] for k in keyed]


# (field, type, minimum) of a snapshot's header and of each row, in the order
# written; a Tier field is a tier's name, and diff divides by hot-spot invocations
_HEAD_FIELDS = (("format", str, None), ("label", str, None), ("user_count", int, 0),
                ("source_trace_digest", str, None))
_HOT_FIELDS = (("method", str, None), ("self_ns", int, 0), ("invocations", int, 1))
_COMPONENT_FIELDS = (("component", str, None), ("tier", Tier, None),
                     ("self_ns", int, 0), ("invocations", int, 0))
# the integers of any trace that ``ingest`` accepts stay below this in the
# tables (each thread's times are below 2**64), and every diff format renders them
_INT_LIMIT = 2**96
# a ratio's terms are below _INT_LIMIT**2, so two distinct deviations differ
# by more than 1 / _INT_LIMIT**4: scaled by 2**_KEY_SHIFT, by more than 1
_KEY_SHIFT = 4 * (_INT_LIMIT.bit_length() - 1)


def _hot_row_ok(method, self_ns, invocations) -> bool:
    """Whether a hot-spot row's values have the exact types and the ranges of
    ``_HOT_FIELDS``; a ``bool`` is not an ``int`` here.  Text that is not
    ASCII is left to ``_table_field``'s UTF-8 check."""
    return (type(method) is str and method.isascii() and type(self_ns) is int
            and type(invocations) is int
            and 0 <= self_ns < _INT_LIMIT and 1 <= invocations < _INT_LIMIT)


def _component_row_ok(component, tier, self_ns, invocations) -> bool:
    """``_hot_row_ok`` for a row of ``_COMPONENT_FIELDS``."""
    return (type(component) is str and component.isascii() and type(tier) is str
            and tier in TIERS and type(self_ns) is int and type(invocations) is int
            and 0 <= self_ns < _INT_LIMIT and 0 <= invocations < _INT_LIMIT)


def snapshot_lines(snapshot: Snapshot) -> Iterator[str]:
    """The lines of ``dump_snapshot``, one row at a time."""
    head = [_SNAPSHOT_FORMAT, *(getattr(snapshot, name) for name, _, _ in _HEAD_FIELDS[1:])]
    yield f"{{\n{json_members([name for name, _, _ in _HEAD_FIELDS], head, '  ')},"
    yield from json_rows("hot_spots", [name for name, _, _ in _HOT_FIELDS],
                         ((r.method, r.self_time, r.invocations) for r in snapshot.hotspot_table),
                         "  ", last=False)
    yield from json_rows("components", [name for name, _, _ in _COMPONENT_FIELDS],
                         ((r.component, r.tier.value, r.self_time, r.invocations)
                          for r in snapshot.component_table),
                         "  ", last=True)
    yield "}"


def dump_snapshot(snapshot: Snapshot) -> str:
    """Serialize to JSON; percentages are recomputed on load, not stored."""
    return join_lines(snapshot_lines(snapshot))


def _table_field(obj, key: str, kind: type, minimum: int | None = None, where: str = ""):
    """``trace.json_field``, refusing integers of ``_INT_LIMIT`` or more, text
    UTF-8 cannot encode (a lone surrogate, which JSON can escape) and unknown tiers."""
    value = json_field(obj, key, str if kind is Tier else kind, minimum, where)
    if kind is int and value >= _INT_LIMIT:
        raise ValueError(f"{where}{key!r} must be below 2**96")
    if kind is not int and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{where}{key!r} must be UTF-8 text, "
                             f"got {clip(value, repr)}") from None
    if kind is Tier and value not in TIERS:
        raise ValueError(f"{where}unknown tier {clip(value, repr)} "
                         f"(expected {', '.join(TIERS)})")
    return value


def _head(doc: dict) -> dict:
    """The fields of ``_HEAD_FIELDS`` after the format, from ``doc``, checked."""
    return {name: _table_field(doc, name, kind, minimum)
            for name, kind, minimum in _HEAD_FIELDS[1:]}


def _rows(doc: dict, key: str, fields, row_ok) -> list[tuple]:
    """The rows of ``doc[key]`` as tuples of ``fields``.  The fields other than
    integers name a row (a method, or a component and tier): no two rows share them.

    A dict whose values pass ``row_ok`` and whose name is new is taken with
    that one check; any other row goes field by field through
    ``_table_field``, which raises the error that names its row and field.
    """
    names = [name for name, _, _ in fields]
    texts = [i for i, (_, kind, _) in enumerate(fields) if kind is not int]
    name_of = itemgetter(*texts)
    rows, seen = [], set()
    for i, row in enumerate(json_field(doc, key, list)):
        values = tuple(map(row.get, names)) if type(row) is dict else None
        if values is None or not row_ok(*values) or name_of(values) in seen:
            where = f"{key}[{i}]: "
            values = tuple(_table_field(row, *field, where=where) for field in fields)
            if name_of(values) in seen:
                raise ValueError(f"{where}duplicate "
                                 + ", ".join(f"{names[j]} {clip(values[j], repr)}" for j in texts))
        seen.add(name_of(values))
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
    head = _head(doc)
    hot = _rows(doc, "hot_spots", _HOT_FIELDS, _hot_row_ok)
    denom = sum(self_ns for _, self_ns, _ in hot)
    hot_rows = tuple(
        HotSpotRow(method, self_ns, Fraction(self_ns, denom) if denom else Fraction(0),
                   invocations)
        for method, self_ns, invocations in hot
    )
    comps = _rows(doc, "components", _COMPONENT_FIELDS, _component_row_ok)
    comp_denom = sum(self_ns for _, _, self_ns, _ in comps)
    comp_rows = tuple(
        ComponentUtilizationRow(component, TIERS[tier], self_ns,
                                Fraction(self_ns, comp_denom) if comp_denom else Fraction(0),
                                invocations)
        for component, tier, self_ns, invocations in comps
    )
    return Snapshot(hotspot_table=hot_rows, component_table=comp_rows, **head)


def load_snapshot_file(path) -> Snapshot:
    """Load a snapshot file, as ``trace.load_json_file`` loads one."""
    return load_json_file(path, load_snapshot, f"not a {_SNAPSHOT_FORMAT} document")
