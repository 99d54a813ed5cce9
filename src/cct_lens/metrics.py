"""Per-method aggregate tables over a CCT.

Hot-spot rows aggregate self time and invocation counts per method over
all calling contexts, excluding synthetic roots.  Percentages are exact
rationals so conservation properties hold without rounding error; a
per-invocation average is never stored.  ``compare`` formats the numbers
of the tables for display, only at the edge.
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
