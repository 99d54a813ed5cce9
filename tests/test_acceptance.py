"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints one ``ACCEPTANCE n: PASS`` line on the real stdout when
its criterion holds, so the gate's verdict survives pytest's capture.
Numbers reproduced here (invocation counts, displayed self times, the
41.4% share) come from the calibrated 20-user HR portal preset; the rest
are property checks over seeded random inputs.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from conftest import random_trace, replay_totals
from cct_lens import workload as wl
from cct_lens.cct import CctNode, build_forest, ingest, merge_ccts
from cct_lens.components import component_utilization, default_hr_catalog
from cct_lens.filters import (ATTRIBUTE_TO_PARENT, DROP_SUBTREE, FilterSet,
                              apply_filter)
from cct_lens.metrics import (HotSpotRow, format_avg_ms, format_ms, format_pct,
                              hotspots)
from cct_lens.report import AnalysisTables, render_analysis
from cct_lens.snapshot import SHARED, diff, take_snapshot
from cct_lens.trace import TraceEvent
from test_filters import random_filter


def _pass(capsys, n: int, detail: str = "") -> None:
    # capsys.disabled() bypasses fd capture so the verdict reaches the terminal
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: PASS{suffix}", flush=True)


def _tree_self_sum(root: CctNode) -> int:
    """Self time over every node including the synthetic root."""
    return sum(node.self_time() for node in root.walk())


@pytest.fixture(scope="module")
def fig8_rows():
    text = wl.simulate(wl.figure8_preset())
    merged = merge_ccts(ingest(text.splitlines()))
    return text, merged, hotspots(merged)


def test_criterion_1_figure8_invocations(capsys):
    start = time.perf_counter()
    text = wl.simulate(wl.figure8_preset())
    merged = merge_ccts(ingest(text.splitlines()))
    rows = {r.method: r for r in hotspots(merged)}
    elapsed = time.perf_counter() - start
    expected = {
        wl.GET_CONNECTION: 50,
        wl.DAO_ADD_CANDIDATE_PROFILE: 20,
        wl.DAO_ADD_EMPLOYEE_CREDENTIALS: 20,
        wl.DAO_AUTHENTICATE_EMPLOYEE: 10,
        wl.LOGINSERVLET_DOPOST: 10,
    }
    for method, count in expected.items():
        assert rows[method].invocations == count, method
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f} s"
    _pass(capsys, 1, f"5 invocation counts exact, pipeline {elapsed * 1000:.0f} ms")


def test_criterion_2_figure8_timing(fig8_rows, capsys):
    _, _, rows = fig8_rows
    by_method = {r.method: r for r in rows}
    displayed = {
        wl.GET_CONNECTION: "1267 ms",
        wl.DAO_ADD_CANDIDATE_PROFILE: "946 ms",
        wl.DAO_ADD_EMPLOYEE_CREDENTIALS: "624 ms",
        wl.DAO_AUTHENTICATE_EMPLOYEE: "85.8 ms",
    }
    for method, text in displayed.items():
        assert format_ms(by_method[method].self_time) == text, method
    top = rows[0]
    assert top.method == wl.GET_CONNECTION
    assert Fraction(413, 1000) <= top.self_pct <= Fraction(415, 1000)
    assert format_pct(top.self_pct) == "41.4%"
    _pass(capsys, 2, f"four DAO rows at displayed precision, top share {format_pct(top.self_pct)}")


def test_criterion_3_average_arithmetic(capsys):
    cases = [
        (15_200_000, 10, Fraction(1_520_000), "1.52 ms"),
        (946_000_000, 20, Fraction(47_300_000), "47.3 ms"),
        (1_267_000_000, 50, Fraction(25_340_000), "25.34 ms"),
    ]
    for self_ns, inv, exact, shown in cases:
        row = HotSpotRow("m", self_ns, Fraction(1), inv)
        assert Fraction(row.self_time, row.invocations) == exact
        assert format_avg_ms(self_ns, inv) == shown
    # 1267 ms over 50 calls is 25.34 ms; a published 24.92 ms figure does
    # not survive exact division
    assert format_avg_ms(1_267_000_000, 50) != "24.92 ms"
    _pass(capsys, 3, "1.52 / 47.3 / 25.34 ms exact")


def test_criterion_4_oracle_equivalence(capsys):
    rng = random.Random(0xACCE)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        events = random_trace(rng)
        self_ns, total_ns, calls = replay_totals(events)
        merged = merge_ccts(build_forest(events))
        agg = {}
        for node in merged.walk():
            if node is merged:
                continue
            cell = agg.setdefault(node.method, [0, 0, 0])
            cell[0] += node.self_time()
            cell[1] += node.total_time
            cell[2] += node.invocations
        assert set(agg) == set(calls)
        for method, (s, t, i) in agg.items():
            assert s == self_ns[method], method
            assert t == total_ns[method], method
            assert i == calls[method], method
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f} s"
    _pass(capsys, 4, f"{checked} random traces equal the replay oracle, {elapsed:.2f} s")


def test_criterion_5_conservation(fig8_rows, capsys):
    _, fig8_merged, fig8_hot = fig8_rows
    rng = random.Random(5)
    trees = [fig8_merged]
    for _ in range(200):
        events = random_trace(rng)
        if events:
            trees.append(merge_ccts(build_forest(events)))
    for root in trees:
        rows = hotspots(root)
        assert sum(r.self_time for r in rows) == root.total_time
        if any(r.self_time for r in rows):
            pct_sum = sum(r.self_pct for r in rows)
            assert pct_sum == Fraction(1)
            assert abs(float(pct_sum) - 1.0) < 1e-9
        methods = sorted({n.method for n in root.walk()} - {root.method})
        if methods:
            filtered = apply_filter(root, random_filter(rng, methods),
                                    ATTRIBUTE_TO_PARENT)
            assert filtered.total_time == root.total_time
            assert _tree_self_sum(filtered) == _tree_self_sum(root)
    # table-level conservation when no top-level frame is rejected
    dao_free = apply_filter(
        fig8_merged,
        FilterSet.from_patterns(excludes=["com.mycompany.hr.dao.*"]),
        ATTRIBUTE_TO_PARENT,
    )
    assert (sum(r.self_time for r in hotspots(dao_free))
            == sum(r.self_time for r in fig8_hot))
    _pass(capsys, 5, f"{len(trees)} trees: self sums, percent sums, splice conservation")


def _chain_events(*spans) -> list[TraceEvent]:
    """Nested single-thread chain from (method, enter_ts, exit_ts) spans."""
    events = [TraceEvent(enter, 1, "E", m) for m, enter, _ in spans]
    events += [TraceEvent(exit_, 1, "X", m) for m, _, exit_ in reversed(spans)]
    return events


def test_criterion_6_filter_semantics(capsys):
    exclude_b = FilterSet.from_patterns(excludes=["b"])

    spliced = apply_filter(build_forest(_chain_events(("a", 0, 40), ("b", 10, 30)))[1],
                           exclude_b, ATTRIBUTE_TO_PARENT)
    a = spliced.children["a"]
    assert list(spliced.children) == ["a"] and not a.children
    assert a.total_time == 40 and a.self_time() == 40

    promoted = apply_filter(
        build_forest(_chain_events(("a", 0, 40), ("b", 10, 30), ("c", 12, 17)))[1],
        exclude_b, ATTRIBUTE_TO_PARENT)
    a = promoted.children["a"]
    assert list(a.children) == ["c"]
    assert a.total_time == 40 and a.self_time() == 35
    assert a.children["c"].total_time == 5

    dropped = apply_filter(build_forest(_chain_events(("a", 0, 40), ("b", 10, 30)))[1],
                           exclude_b, DROP_SUBTREE)
    a = dropped.children["a"]
    assert not a.children and a.total_time == 20 and a.self_time() == 20
    assert dropped.total_time == 20

    rng = random.Random(6)
    pairs = 0
    while pairs < 100:
        events = random_trace(rng)
        if not events:
            continue
        root = merge_ccts(build_forest(events))
        methods = sorted({n.method for n in root.walk()} - {root.method})
        fs = random_filter(rng, methods)
        for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
            once = apply_filter(root, fs, mode)
            twice = apply_filter(once, fs, mode)
            assert twice == once
        pairs += 1
    _pass(capsys, 6, "three splice/drop examples exact, idempotent on 100 random pairs")


def _load_snapshot(users: int, jitter: float):
    text = wl.simulate(wl.load_preset(users, jitter=jitter))
    return take_snapshot(label=f"{users}-user", user_count=users,
                         trace_bytes=text.encode("utf-8"))


def test_criterion_7_load_level_similarity(capsys):
    for jitter, lo, hi in ((0.0, Fraction(1), Fraction(1)),
                           (0.1, Fraction(9, 10), Fraction(11, 10))):
        rows = diff(_load_snapshot(1, jitter), _load_snapshot(20, jitter))
        shared = [r for r in rows if r.status == SHARED]
        assert shared and all(r.status == SHARED for r in rows)
        assert any(r.method == wl.GET_CONNECTION for r in shared)
        for row in shared:
            assert row.ratio is not None
            assert lo <= row.ratio <= hi, (row.method, jitter, float(row.ratio))
    _pass(capsys, 7, "1-user vs 20-user ratios: exact 1 at jitter 0, within [0.9, 1.1] at 0.1")


def test_criterion_8_determinism(capsys):
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    traces = [wl.simulate(wl.figure8_preset()) for _ in range(2)]
    assert digest(traces[0]) == digest(traces[1])

    reports = []
    for text in traces:
        merged = merge_ccts(ingest(text.splitlines()))
        hot = hotspots(merged)
        tables = AnalysisTables(
            hot_spots=hot,
            total_time=[],
            components=component_utilization(hot, default_hr_catalog()),
        )
        reports.append(render_analysis({"merged": tables}))
    assert digest(reports[0]) == digest(reports[1])
    _pass(capsys, 8, f"trace sha256 {digest(traces[0])[:12]}..., report digests equal")


def test_criterion_9_scale(capsys):
    # 25 000 register executions, 40 events each: exactly one million events
    spec = wl.WorkloadSpec(executions={"register": 25_000}, seed=7,
                           latency=wl.calibrated_latency(0.0), thread_count=4)
    lines = wl.simulate(spec).splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    assert len(data) == 1_000_000

    start = time.perf_counter()
    merged = merge_ccts(ingest(lines))
    hot = hotspots(merged)
    components = component_utilization(hot, default_hr_catalog())
    elapsed = time.perf_counter() - start
    assert components and hot[0].invocations == 50_000
    assert elapsed < 5.0, f"analysis took {elapsed:.2f} s"

    # memory follows distinct contexts, not events: the tree stays tiny
    import tracemalloc

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    forest = ingest(lines)
    node_count = merge_ccts(forest).node_count()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mib = (peak - before) / (1 << 20)
    assert node_count < 200
    assert peak_mib < 64, f"peak {peak_mib:.1f} MiB"
    _pass(capsys, 9, f"10^6 events in {elapsed:.2f} s, {node_count} contexts, "
             f"peak {peak_mib:.1f} MiB")
