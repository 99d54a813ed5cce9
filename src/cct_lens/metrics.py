"""Per-method aggregate tables over a CCT, plus display formatting.

Hot-spot rows aggregate self time and invocation counts per method over
all calling contexts, excluding synthetic roots.  Percentages and
per-invocation averages are exact rationals so conservation properties
hold without rounding error; formatting to display strings happens only
at the edge.

Display conventions follow desktop profiler output: self and total time
in milliseconds with three significant digits (whole milliseconds from
1000 ms up), percentages with one decimal, per-invocation averages with
two decimals from 1 ms up.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import NamedTuple

from .cct import CctNode


class HotSpotRow(NamedTuple):
    method: str
    self_time: int          # ns, summed over contexts
    self_pct: Fraction      # fraction of the table's total self time
    invocations: int

    @property
    def avg_per_invocation(self) -> Fraction:
        """Exact mean self nanoseconds per invocation."""
        return Fraction(self.self_time, self.invocations)


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
    # preorder: reversed so children come off the stack in encounter order
    stack = list(reversed(root.children.values()))
    while stack:
        node = stack.pop()
        total = node.total_time
        self_ns = total
        children = node.children.values()
        for child in children:
            self_ns -= child.total_time
        stack.extend(reversed(children))
        cell = acc.get(node.method)
        if cell is None:
            acc[node.method] = [self_ns, total, node.invocations]
        else:
            cell[0] += self_ns
            cell[1] += total
            cell[2] += node.invocations
    return {m: MethodTotals(s, t, i) for m, (s, t, i) in acc.items()}


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
    rows = [
        HotSpotRow(
            method=m,
            self_time=t.self_time,
            self_pct=Fraction(t.self_time, denom) if denom else Fraction(0),
            invocations=t.invocations,
        )
        for m, t in totals.items()
    ]
    rows.sort(key=lambda r: (-r.self_time, r.method))
    return rows


def total_time_table(root: CctNode) -> list[TotalTimeRow]:
    """The inclusive-time table of a tree; see ``total_time_rows``."""
    return total_time_rows(aggregate_methods(root))


def total_time_rows(totals: dict[str, MethodTotals]) -> list[TotalTimeRow]:
    """Inclusive-time table, sorted by descending total time then name."""
    rows = [
        TotalTimeRow(method=m, total_time=t.total_time, invocations=t.invocations)
        for m, t in totals.items()
    ]
    rows.sort(key=lambda r: (-r.total_time, r.method))
    return rows


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


def format_avg_ms(avg_ns: Fraction | int) -> str:
    """Per-invocation average in ms: two decimals from 1 ms up, else 3 digits."""
    avg = avg_ns if type(avg_ns) is Fraction else Fraction(avg_ns)
    if avg == 0:
        return "0 ms"
    if avg >= 1_000_000:
        ms = Decimal(avg.numerator) / Decimal(avg.denominator) / Decimal(1_000_000)
        text = str(ms.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return f"{text} ms"
    return format_ms(round(avg))


def format_pct(fraction: Fraction) -> str:
    """A fraction as a percentage with one decimal, e.g. "41.4%"."""
    return f"{float(fraction) * 100:.1f}%"
