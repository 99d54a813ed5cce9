"""Hot-spot and total-time tables, exact averages, display formatting."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cct_lens.cct import build_forest, merge_ccts
from cct_lens.filters import FilterSet, apply_filter
from cct_lens.metrics import (
    HotSpotRow,
    format_avg_ms,
    format_ms,
    format_pct,
    hotspots,
    total_time_table,
)
from cct_lens.snapshot import load_snapshot
from cct_lens.trace import ENTER as E, EXIT as X

from conftest import events_1tid, random_trace, replay_totals

MS = 1_000_000  # ns per ms


def row_average(self_ns: int, invocations: int) -> Fraction:
    """The exact average that a hot-spot row with these totals reports."""
    return HotSpotRow("m", self_ns, Fraction(1), invocations).avg_per_invocation


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
        assert row.avg_per_invocation == Fraction(12, 2)


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
        assert format_avg_ms(row_average(15_200_000, 10)) == "1.52 ms"

    def test_published_average_mid(self):
        assert row_average(946 * MS, 20) == Fraction(47_300_000)
        assert format_avg_ms(row_average(946 * MS, 20)) == "47.3 ms"

    def test_exact_division_top_row(self):
        avg = row_average(1267 * MS, 50)
        assert avg == Fraction(1267 * MS, 50) == Fraction(25_340_000)
        assert format_avg_ms(avg) == "25.34 ms"

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
        assert format_avg_ms(Fraction(25_340_000)) == "25.34 ms"
        assert format_avg_ms(Fraction(2_730_000)) == "2.73 ms"
        assert format_avg_ms(Fraction(47_300_000)) == "47.3 ms"
        assert format_avg_ms(Fraction(1_000_000)) == "1 ms"

    def test_format_avg_below_one_ms_falls_back(self):
        assert format_avg_ms(Fraction(1950)) == "0.00195 ms"
        assert format_avg_ms(Fraction(0)) == "0 ms"

    def test_format_avg_rounds_half_up(self):
        # 1.255 ms -> 1.26, not banker's 1.25 or 1.2
        assert format_avg_ms(Fraction(1_255_000)) == "1.26 ms"

    def test_format_pct(self):
        assert format_pct(Fraction(1)) == "100.0%"
        assert format_pct(Fraction(1, 3)) == "33.3%"
        assert format_pct(Fraction(1_267_000, 3_059_976)) == "41.4%"
        assert format_pct(Fraction(0)) == "0.0%"


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
