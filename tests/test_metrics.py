"""Hot-spot and total-time tables, exact averages, display formatting."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens.cct import build_forest, merge_ccts
from cct_lens.filters import FilterSet, apply_filter
from cct_lens.metrics import (
    HotSpotRow,
    MethodTotals,
    TotalTimeRow,
    format_avg_ms,
    format_ms,
    format_pct,
    hotspot_rows,
    hotspots,
    total_time_rows,
    total_time_table,
)
from cct_lens.snapshot import load_snapshot
from cct_lens.trace import ENTER as E, EXIT as X

from conftest import decimal_format_avg_ms, events_1tid, random_trace, replay_totals

MS = 1_000_000  # ns per ms
# a self time and invocation count whose average a Decimal quotient rounds wrong
HUGE_PAIR = (2_000_000_000_000_000_999_999_999_999, 200_000_000)


def row_average(self_ns: int, invocations: int) -> Fraction:
    """The exact average that a hot-spot row with these totals reports."""
    row = HotSpotRow("m", self_ns, Fraction(1), invocations)
    return Fraction(row.self_time, row.invocations)


class TestHotspots:
    def test_single_method_is_whole_table(self):
        root = build_forest(events_1tid((0, E, "a"), (20, X, "a")))[1]
        rows = hotspots(root)
        assert len(rows) == 1
        assert rows[0].method == "a"
        assert rows[0].self_time == 20
        assert rows[0].self_pct == Fraction(1)

    def test_aggregates_across_contexts(self):
        # b appears under a and under c
        root = build_forest(
            events_1tid(
                (0, E, "a"), (1, E, "b"), (6, X, "b"), (7, X, "a"),
                (8, E, "c"), (9, E, "b"), (16, X, "b"), (17, X, "c"),
            )
        )[1]
        by_method = {r.method: r for r in hotspots(root)}
        assert by_method["b"].self_time == 5 + 7
        assert by_method["b"].invocations == 2

    def test_root_excluded(self):
        root = build_forest(events_1tid((0, E, "a"), (5, X, "a")))[1]
        assert all(not r.method.startswith("<root") for r in hotspots(root))

    def test_sorted_desc_with_name_ties(self):
        root = build_forest(
            events_1tid(
                (0, E, "z"), (5, X, "z"), (6, E, "a"), (11, X, "a"), (12, E, "big"), (30, X, "big")
            )
        )[1]
        rows = hotspots(root)
        assert [r.method for r in rows] == ["big", "a", "z"]

    def test_empty_tree_empty_table(self):
        assert hotspots(merge_ccts(build_forest([]))) == []

    def test_avg_property_on_rows(self):
        events = events_1tid((0, E, "a"), (5, X, "a"), (5, E, "a"), (12, X, "a"))
        root = build_forest(events)[1]
        (row,) = hotspots(root)
        assert Fraction(row.self_time, row.invocations) == Fraction(12, 2)


class TestTableOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text("abc", max_size=3),
                           st.builds(MethodTotals, st.integers(0, 3), st.integers(0, 3),
                                     st.integers(1, 3)), max_size=8))
    def test_equals_the_key_function_sort(self, totals):
        denom = sum(t.self_time for t in totals.values())
        hot = [HotSpotRow(m, t.self_time, Fraction(t.self_time, denom) if denom
                          else Fraction(0), t.invocations) for m, t in totals.items()]
        hot.sort(key=lambda r: (-r.self_time, r.method))
        assert hotspot_rows(totals) == hot
        total = [TotalTimeRow(m, t.total_time, t.invocations) for m, t in totals.items()]
        total.sort(key=lambda r: (-r.total_time, r.method))
        assert total_time_rows(totals) == total


class TestTotalTimeTable:
    def test_inclusive_totals(self):
        events = events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
        root = build_forest(events)[1]
        rows = {r.method: r for r in total_time_table(root)}
        assert rows["a"].total_time == 40
        assert rows["b"].total_time == 20

    def test_leaf_only_tree_equals_self_times(self):
        events = events_1tid((0, E, "a"), (9, X, "a"), (10, E, "b"), (14, X, "b"))
        root = build_forest(events)[1]
        totals = {r.method: r.total_time for r in total_time_table(root)}
        selfs = {r.method: r.self_time for r in hotspots(root)}
        assert totals == selfs

    def test_two_contexts_sum(self):
        root = build_forest(
            events_1tid(
                (0, E, "a"), (1, E, "m"), (6, X, "m"), (7, X, "a"),
                (8, E, "b"), (9, E, "m"), (16, X, "m"), (17, X, "b"),
            )
        )[1]
        rows = {r.method: r for r in total_time_table(root)}
        assert rows["m"].total_time == 5 + 7
        assert rows["m"].invocations == 2

    def test_sorted_by_total_desc(self):
        root = build_forest(
            events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
        )[1]
        rows = total_time_table(root)
        assert [r.method for r in rows] == ["a", "b"]

    def test_total_at_least_self(self):
        rng = random.Random(17)
        for _ in range(25):
            merged = merge_ccts(build_forest(random_trace(rng)))
            selfs = {r.method: r.self_time for r in hotspots(merged)}
            for row in total_time_table(merged):
                assert row.total_time >= selfs[row.method]


class TestAvgPerInvocation:
    def test_published_average_small(self):
        assert row_average(15_200_000, 10) == Fraction(1_520_000)
        assert format_avg_ms(15_200_000, 10) == "1.52 ms"

    def test_published_average_mid(self):
        assert row_average(946 * MS, 20) == Fraction(47_300_000)
        assert format_avg_ms(946 * MS, 20) == "47.3 ms"

    def test_exact_division_top_row(self):
        avg = row_average(1267 * MS, 50)
        assert avg == Fraction(1267 * MS, 50) == Fraction(25_340_000)
        assert format_avg_ms(1267 * MS, 50) == "25.34 ms"

    def test_zero_invocations_rejected(self):
        # a row without invocations has no average, so no snapshot may hold one
        doc = {"format": "cct-lens/snapshot@1", "label": "a", "user_count": 1,
               "source_trace_digest": "", "components": [],
               "hot_spots": [{"method": "m", "self_ns": 100, "invocations": 0}]}
        with pytest.raises(ValueError, match="'invocations' must be a int >= 1, got 0"):
            load_snapshot(json.dumps(doc))

    @given(
        st.integers(min_value=0, max_value=10**13), st.integers(min_value=1, max_value=10**6)
    )
    def test_exact_product_identity(self, self_ns, inv):
        assert row_average(self_ns, inv) * inv == self_ns


class TestFormatting:
    @pytest.mark.parametrize(
        "ns,text",
        [
            (0, "0 ms"),
            (1_267_000_000, "1267 ms"),
            (946_000_000, "946 ms"),
            (624_000_000, "624 ms"),
            (85_800_000, "85.8 ms"),
            (54_600_000, "54.6 ms"),
            (8_700_000, "8.7 ms"),
            (856_000, "0.856 ms"),
            (68_000, "0.068 ms"),
            (5_469_998, "5.47 ms"),
            (999_499_999, "999 ms"),
            (999_500_000, "1000 ms"),
            (15_200_000, "15.2 ms"),
            (1_950, "0.00195 ms"),
        ],
    )
    def test_format_ms(self, ns, text):
        assert format_ms(ns) == text

    def test_format_avg_two_decimals_above_one_ms(self):
        assert format_avg_ms(25_340_000, 1) == "25.34 ms"
        assert format_avg_ms(2_730_000, 1) == "2.73 ms"
        assert format_avg_ms(47_300_000, 1) == "47.3 ms"
        assert format_avg_ms(1_000_000, 1) == "1 ms"

    def test_format_avg_below_one_ms_falls_back(self):
        assert format_avg_ms(1950, 1) == "0.00195 ms"
        assert format_avg_ms(0, 1) == "0 ms"

    def test_format_avg_rounds_half_up(self):
        # 1.255 ms -> 1.26, not banker's 1.25 or 1.2
        assert format_avg_ms(1_255_000, 1) == "1.26 ms"

    def test_format_avg_is_exact_above_decimal_precision(self):
        # 10000000000000.004999... ms: a 28-digit quotient rounds it up to a
        # tie, and half up then gives 10000000000000.01
        assert format_avg_ms(*HUGE_PAIR) == "10000000000000 ms"
        assert decimal_format_avg_ms(Fraction(*HUGE_PAIR)) == "10000000000000.01 ms"

    def test_format_pct(self):
        assert format_pct(Fraction(1)) == "100.0%"
        assert format_pct(Fraction(1, 3)) == "33.3%"
        assert format_pct(Fraction(1_267_000, 3_059_976)) == "41.4%"
        assert format_pct(Fraction(0)) == "0.0%"


@st.composite
def average_terms(draw, self_limit: int, count_limit: int):
    """``(self_ns, invocations)`` below the limits: free, or near an exact
    hundredth of a ms or half of one per invocation (``k * 5_000 * count + d``),
    or at half a nanosecond per invocation (``k * count + count // 2``)."""
    count = draw(st.integers(1, 1000) | st.integers(1, count_limit - 1))
    kind = draw(st.sampled_from(["free", "cents", "half_ns"]))
    if kind == "free":
        return draw(st.integers(0, self_limit - 1)), count
    if kind == "cents":
        unit = 5_000 * count
        k = draw(st.integers(0, (self_limit - 2) // unit))
        return min(max(k * unit + draw(st.sampled_from([-1, 0, 1])), 0), self_limit - 1), count
    k = draw(st.integers(0, (self_limit - 1 - count // 2) // count))
    return k * count + count // 2, count


def exact_avg_ms(self_ns: int, invocations: int) -> str:
    """``format_avg_ms`` in exact ``Fraction`` arithmetic: the ms value
    rounded half up to hundredths from 1 ms up, else ``format_ms`` of the
    nearest integer ns, half to even (``round``)."""
    avg = Fraction(self_ns, invocations)
    if avg < 1_000_000:
        return format_ms(round(avg))
    cents = math.floor(avg / 10_000 + Fraction(1, 2))
    text = f"{cents // 100}.{cents % 100:02d}".rstrip("0").rstrip(".")
    return f"{text} ms"


class TestFormatAvgReferences:
    @settings(max_examples=500, deadline=None)
    @given(average_terms(2 * 10**27, 2**64 + 1))
    @example((1_255_000, 1))
    @example((2 * 10**27 - 1, 1))
    def test_equals_decimal_formatter_below_its_precision(self, terms):
        assert format_avg_ms(*terms) == decimal_format_avg_ms(Fraction(*terms))

    @settings(max_examples=500, deadline=None)
    @given(average_terms(2**96, 2**96))
    @example(HUGE_PAIR)
    # 298023223876953.124999... ms, which the Decimal formatter printed as .13
    @example((10**28 - 1, 2**25))
    @example((2**96 - 1, 2**96 - 1))
    def test_equals_exact_half_up(self, terms):
        assert format_avg_ms(*terms) == exact_avg_ms(*terms)


class TestTableInvariants:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_pct_sums_to_one_exactly(self, seed):
        merged = merge_ccts(build_forest(random_trace(random.Random(seed))))
        rows = hotspots(merged)
        if not rows or merged.total_time == 0:
            return
        assert sum(r.self_pct for r in rows) == Fraction(1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_self_sum_equals_root_total(self, seed):
        merged = merge_ccts(build_forest(random_trace(random.Random(seed))))
        rows = hotspots(merged)
        # merged root has no self time of its own on well-formed traces
        assert sum(r.self_time for r in rows) == merged.total_time

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_oracle(self, seed):
        events = random_trace(random.Random(seed))
        self_ns, total_ns, calls = replay_totals(events)
        merged = merge_ccts(build_forest(events))
        assert {r.method: r.self_time for r in hotspots(merged)} == self_ns
        assert {r.method: r.invocations for r in hotspots(merged)} == calls
        assert {r.method: r.total_time for r in total_time_table(merged)} == total_ns

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_filtered_tables_conserve_root_inclusive_self(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        methods = sorted({n.method for n in merged.walk() if n is not merged})
        if not methods:
            return
        fs = FilterSet.from_patterns(excludes=[rng.choice(methods)])
        out = apply_filter(merged, fs)
        # table self plus unattributed root self together conserve the total
        assert sum(r.self_time for r in hotspots(out)) + out.self_time() == merged.total_time

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_filters_keeping_top_level_conserve_table_sum(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        inner = sorted(
            {
                n.method
                for top in merged.children.values()
                for n in top.walk()
                if n is not top
            }
        )
        top_level = set(merged.children)
        candidates = [m for m in inner if m not in top_level]
        if not candidates:
            return
        fs = FilterSet.from_patterns(excludes=[rng.choice(candidates)])
        out = apply_filter(merged, fs)
        assert sum(r.self_time for r in hotspots(out)) == sum(
            r.self_time for r in hotspots(merged)
        )
