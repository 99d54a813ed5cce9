"""Per-method aggregate tables over a CCT, plus display formatting.

Hot-spot rows aggregate self time and invocation counts per method over
all calling contexts, excluding synthetic roots.  Percentages are exact
rationals so conservation properties hold without rounding error; a
per-invocation average is never stored, but printed from its row's two
integers with exact rounding.  Formatting to display strings happens only
at the edge.

Display conventions follow desktop profiler output: self and total time
in milliseconds with three significant digits (whole milliseconds from
1000 ms up), percentages with one decimal, per-invocation averages with
two decimals, rounded half up, from 1 ms up.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, NamedTuple


class HotSpotRow(NamedTuple):
    method: str
    self_time: int          # ns, summed over contexts
    self_pct: Fraction      # fraction of the table's total self time
    invocations: int


class TotalTimeRow(NamedTuple):
    method: str
    total_time: int         # inclusive ns, summed over contexts
    invocations: int


class MethodTotals(NamedTuple):
    self_time: int = 0
    total_time: int = 0
    invocations: int = 0


def aggregate_methods(root: CctNode) -> dict[str, MethodTotals]:
    """Sum self time, total time, and invocations per method name.

    The node passed as root is treated as synthetic and excluded; every
    descendant contributes.  Insertion order is first encounter in
    preorder, which makes downstream tie-breaking deterministic.
    """
    acc: dict[str, list[int]] = {}
    nodes = root.walk()
    next(nodes)  # the root
    for node in nodes:
        total = node.total_time
        self_ns = total
        for child in node.children.values():
            self_ns -= child.total_time
        cell = acc.get(node.method)
        if cell is None:
            acc[node.method] = [self_ns, total, node.invocations]
        else:
            cell[0] += self_ns
            cell[1] += total
            cell[2] += node.invocations
    return {m: MethodTotals(s, t, i) for m, (s, t, i) in acc.items()}


def add_totals(tables: Iterable[dict[str, MethodTotals]]) -> dict[str, MethodTotals]:
    """Tables of per-method sums (of threads) added up, method by method."""
    acc: dict[str, MethodTotals] = {}
    for totals in tables:
        for method, row in totals.items():
            acc[method] = MethodTotals(*map(add, acc.get(method, (0, 0, 0)), row))
    return acc


def hotspots(root: CctNode) -> list[HotSpotRow]:
    """The hot-spot table of a tree; see ``hotspot_rows``."""
    return hotspot_rows(aggregate_methods(root))


def hotspot_rows(totals: dict[str, MethodTotals]) -> list[HotSpotRow]:
    """Hot-spot table: per-method self time, share of total self, invocations.

    Sorted by descending self time, ties broken by method name.  The
    percentage denominator is the sum of all self times in the table,
    which equals the root's total time; an all-zero table gets zero
    percentages.
    """
    denom = sum(t.self_time for t in totals.values())
    # methods are unique, so the sort compares no further than the name
    order = sorted((-t.self_time, m, t.invocations) for m, t in totals.items())
    return [HotSpotRow(m, -neg, Fraction(-neg, denom) if denom else Fraction(0), inv)
            for neg, m, inv in order]


def total_time_table(root: CctNode) -> list[TotalTimeRow]:
    """The inclusive-time table of a tree; see ``total_time_rows``."""
    return total_time_rows(aggregate_methods(root))


def total_time_rows(totals: dict[str, MethodTotals]) -> list[TotalTimeRow]:
    """Inclusive-time table, sorted by descending total time then name."""
    order = sorted((-t.total_time, m, t.invocations) for m, t in totals.items())
    return [TotalTimeRow(m, -neg, inv) for neg, m, inv in order]


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
