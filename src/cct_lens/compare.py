"""Snapshots read back, diffed and rendered: all that ``diff`` runs.

A snapshot keeps a trace's hot-spot and component tables, a label (e.g.
"20-user") and the trace digest, so two load levels can be compared
without their traces.  The diff joins two snapshots per method and
compares average self time per invocation as a ratio b/a: 1 where both
averages are zero, undefined where one is.  It reads only the integers
``check_snapshot`` checks, so ``diff`` loads no ``fractions`` and no analysis.
The number formats and table writers of every report, in the style of
desktop profilers, live here too.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .trace import (CSV, JSON, REPORT_FORMATS, TEXT, clip, join_lines, json_field, json_members,
                    json_rows, load_json_file)

_SNAPSHOT_FORMAT = "cct-lens/snapshot@1"

SHARED = "shared"
ADDED = "added"
REMOVED = "removed"

# every tier a component is in, by the name catalogs (in any case), reports
# and snapshots write; the one list of them
TIER_NAMES = ("web", "business", "dao", "middleware", "other")


class Snapshot(NamedTuple):
    label: str
    user_count: int
    hotspot_table: tuple[HotSpotRow, ...]
    component_table: tuple[ComponentUtilizationRow, ...]
    source_trace_digest: str


# (field, type, minimum) of a snapshot's header and of each row, in the order
# written; a TIER_NAMES field is one of those names, and diff divides by
# hot-spot invocations
_HEAD_FIELDS = (("format", str, None), ("label", str, None), ("user_count", int, 0),
                ("source_trace_digest", str, None))
_HOT_FIELDS = (("method", str, None), ("self_ns", int, 0), ("invocations", int, 1))
_COMPONENT_FIELDS = (("component", str, None), ("tier", TIER_NAMES, None),
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
            and tier in TIER_NAMES and type(self_ns) is int and type(invocations) is int
            and 0 <= self_ns < _INT_LIMIT and 0 <= invocations < _INT_LIMIT)


def _table_field(obj, key: str, kind, minimum: int | None = None, where: str = ""):
    """``trace.json_field``, refusing integers of ``_INT_LIMIT`` or more, text
    UTF-8 cannot encode (a lone surrogate, which JSON can escape) and unknown tiers."""
    value = json_field(obj, key, str if kind is TIER_NAMES else kind, minimum, where)
    if kind is int and value >= _INT_LIMIT:
        raise ValueError(f"{where}{key!r} must be below 2**96")
    if kind is not int and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{where}{key!r} must be UTF-8 text, "
                             f"got {clip(value, repr)}") from None
    if kind is TIER_NAMES and value not in TIER_NAMES:
        raise ValueError(f"{where}unknown tier {clip(value, repr)} "
                         f"(expected {', '.join(TIER_NAMES)})")
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


def check_snapshot(text: str) -> Snapshot:
    """Parse a snapshot document, its rows as tuples of ``_HOT_FIELDS`` and
    ``_COMPONENT_FIELDS``; raises ValueError on any missing or mistyped field."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # past Python's digit limit the reason ends in advice for Python code
        raise ValueError(f"bad snapshot document: {str(exc).partition('; use sys.')[0]}") from None
    if not isinstance(doc, dict) or doc.get("format") != _SNAPSHOT_FORMAT:
        raise ValueError(f"not a {_SNAPSHOT_FORMAT} document")
    head = _head(doc)
    hot = _rows(doc, "hot_spots", _HOT_FIELDS, _hot_row_ok)
    comps = _rows(doc, "components", _COMPONENT_FIELDS, _component_row_ok)
    return Snapshot(hotspot_table=hot, component_table=comps, **head)


def load_snapshot(text: str) -> Snapshot:
    """``check_snapshot`` with typed rows, ``HotSpotRow``s and
    ``ComponentUtilizationRow``s, each share an exact ``Fraction`` of its
    table's self time (0 in a table of none)."""
    from fractions import Fraction

    from .components import ComponentUtilizationRow
    from .metrics import HotSpotRow

    snap = check_snapshot(text)
    denom = sum(self_ns for _, self_ns, _ in snap.hotspot_table) or 1
    hot_rows = tuple(HotSpotRow(method, self_ns, Fraction(self_ns, denom), invocations)
                     for method, self_ns, invocations in snap.hotspot_table)
    denom = sum(self_ns for _, _, self_ns, _ in snap.component_table) or 1
    comp_rows = tuple(ComponentUtilizationRow(component, tier, self_ns,
                                              Fraction(self_ns, denom), invocations)
                      for component, tier, self_ns, invocations in snap.component_table)
    return snap._replace(hotspot_table=hot_rows, component_table=comp_rows)


def load_snapshot_file(path, load=load_snapshot) -> Snapshot:
    """``load`` (``load_snapshot`` or ``check_snapshot``) of a snapshot file,
    as ``trace.load_json_file`` loads one."""
    return load_json_file(path, load, f"not a {_SNAPSHOT_FORMAT} document")


class SnapshotDiffRow(NamedTuple):
    """One method's row of a diff: its self time and invocations on each
    side, both 0 on a side where it is absent (a table row has at least one
    invocation).  The averages and the ratio are exact ``Fraction``s, made
    when they are read, as is the import of ``fractions``."""

    method: str
    self_a: int                  # ns, summed over contexts
    self_b: int
    invocations_a: int
    invocations_b: int
    status: str                  # shared | added | removed

    @property
    def avg_a(self) -> Fraction | None:
        """Self ns per invocation in a; None when absent in a."""
        from fractions import Fraction
        return Fraction(self.self_a, self.invocations_a) if self.invocations_a else None

    @property
    def avg_b(self) -> Fraction | None:
        from fractions import Fraction
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
        from fractions import Fraction
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
    ``check_snapshot`` accepts, and every table of a trace ``ingest`` accepts.
    A shared row sorts on the integer ``(|n - d| << _KEY_SHIFT) // d`` for
    ``(n, d) = ratio_terms``, which orders rows as their deviations do.
    """
    # a hot-spot row is (method, self ns, ..., invocations): checked, or a HotSpotRow
    rows_a = {r[0]: r for r in a.hotspot_table}
    rows_b = {r[0]: r for r in b.hotspot_table}
    # (rank, key, method, row): undefined ratios rank 0, defined ones 1,
    # added 2 and removed 3; methods are unique, so a sort compares no further
    keyed = []
    for method, in_a in rows_a.items():
        sa, ia = in_a[1], in_a[-1]
        in_b = rows_b.pop(method, None)
        if in_b is None:
            keyed.append((3, 0, method, SnapshotDiffRow(method, sa, 0, ia, 0, REMOVED)))
            continue
        row = SnapshotDiffRow(method, sa, in_b[1], ia, in_b[-1], SHARED)
        terms = row.ratio_terms
        if terms is None:
            keyed.append((0, 0, method, row))
        else:
            n, d = terms
            keyed.append((1, -((abs(n - d) << _KEY_SHIFT) // d), method, row))
    for method, in_b in rows_b.items():
        keyed.append((2, 0, method, SnapshotDiffRow(method, 0, in_b[1], 0, in_b[-1], ADDED)))
    keyed.sort()
    return [k[-1] for k in keyed]


def format_ms(ns: int) -> str:
    """Nanoseconds as a profiler-style millisecond string.

    Three significant digits below one second ("85.8 ms", "0.068 ms"),
    whole milliseconds from there up ("1267 ms").
    """
    if ns == 0:
        return "0 ms"
    sign = "-" if ns < 0 else ""
    ns = abs(ns)
    if ns >= 999_500_000:
        return f"{sign}{(ns + 500_000) // 1_000_000} ms"
    ms = ns / 1e6
    if ns < 100:
        # below 0.0001 ms the %g form would go scientific; spell it out
        text = f"{ms:.7f}".rstrip("0").rstrip(".")
    else:
        text = format(ms, ".3g")
    return f"{sign}{text} ms"


def format_avg_ms(total_ns: int, count: int) -> str:
    """The average ``total_ns / count`` in ms, exactly rounded: two decimals,
    half up, from 1 ms up, else ``format_ms`` of the nearest integer ns,
    half to even."""
    if total_ns >= count * 1_000_000:
        unit = count * 10_000
        cents, rest = divmod(total_ns, unit)
        ms, cents = divmod(cents + (2 * rest >= unit), 100)
        return f"{ms} ms" if not cents else f"{ms}.{cents:02d}".rstrip("0") + " ms"
    ns, rest = divmod(total_ns, count)
    return format_ms(ns + (2 * rest > count or (2 * rest == count and ns & 1)))


def format_pct(fraction: Fraction) -> str:
    """A fraction as a percentage with one decimal, e.g. "41.4%"."""
    return f"{float(fraction) * 100:.1f}%"


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
    # only a CSV report loads csv
    import csv

    yield f"# {_one_line(title)}"
    # csv quotes a cell that holds a character of the terminator: either line break
    writer = csv.writer(_Echo(), lineterminator="\r\n")
    yield writer.writerow(headers)[:-2]
    for row in rows:
        yield writer.writerow(row)[:-2]


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
