"""Labeled analysis snapshots and cross-load diffs."""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from cct_lens import metrics, snapshot
from cct_lens import workload as wl
from cct_lens.cct import ingest, merge_ccts
from cct_lens.cli import main
from cct_lens.snapshot import (
    ADDED,
    REMOVED,
    SHARED,
    Snapshot,
    diff,
    dump_snapshot,
    load_snapshot,
    load_snapshot_file,
    save_snapshot,
    tabulate,
    take_snapshot,
)
from cct_lens.trace import TraceParseError

from conftest import random_trace, trace_lines


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_bytes_for(rng_seed: int, **kwargs) -> bytes:
    events = random_trace(random.Random(rng_seed), **kwargs)
    return ("\n".join(trace_lines(events)) + "\n").encode()


class TestTakeSnapshot:
    def test_full_pipeline_top_row(self):
        trace = wl.simulate(wl.figure8_preset()).encode()
        snap = take_snapshot("20-user", 20, trace)
        top = snap.hotspot_table[0]
        assert top.method == wl.GET_CONNECTION
        assert top.invocations == 50
        assert snap.user_count == 20
        assert snap.source_trace_digest == _sha256(trace)

    def test_empty_trace_empty_tables(self):
        snap = take_snapshot("empty", 0, b"# nothing\n")
        assert snap.hotspot_table == ()
        assert snap.component_table == ()

    def test_same_trace_equal_except_label(self):
        trace = trace_bytes_for(12)
        a = take_snapshot("one", 5, trace)
        b = take_snapshot("two", 5, trace)
        assert a.label != b.label
        assert a.hotspot_table == b.hotspot_table
        assert a.component_table == b.component_table
        assert a.source_trace_digest == b.source_trace_digest

    def test_filter_applied_before_tables(self, tmp_path):
        # a filtered snapshot is written by analyze --snapshot-out
        trace, path = tmp_path / "t.tsv", tmp_path / "s.json"
        trace.write_text(wl.simulate(wl.figure8_preset()), encoding="utf-8")
        assert main(["analyze", str(trace), "--exclude", "com.mycompany.hr.dao.*",
                     "--snapshot-out", str(path), "-o", os.devnull]) == 0
        hot = load_snapshot_file(path).hotspot_table
        assert hot and all(".dao." not in r.method for r in hot)

    def test_parse_errors_propagate(self):
        with pytest.raises(TraceParseError):
            take_snapshot("bad", 1, b"not a trace line\n")

    def test_splits_lines_as_text_files_do(self):
        # str.splitlines() would also cut at the form feed and the \x1e
        data = b"# a\x0cb\r\n# c\x1ed\r0\t1\tE\tm\n5\t1\tX\tm"
        snap = take_snapshot("s", 1, data)
        assert [(r.method, r.self_time) for r in snap.hotspot_table] == [("m", 5)]
        assert snap.source_trace_digest == _sha256(data)
        with pytest.raises(TraceParseError, match="^line 5: "):
            take_snapshot("s", 1, data + b"\r\nbad")


class TestTabulate:
    def test_one_aggregate_walk_per_tabulate(self, monkeypatch):
        trace = wl.simulate(wl.figure8_preset())
        root = merge_ccts(ingest(trace.splitlines()))
        expected = (metrics.hotspots(root), metrics.total_time_table(root))
        calls = []
        aggregate = metrics.aggregate_methods

        def counted(tree):
            calls.append(tree)
            return aggregate(tree)

        monkeypatch.setattr(snapshot, "aggregate_methods", counted)
        monkeypatch.setattr(metrics, "aggregate_methods", counted)
        tables = tabulate(root)
        assert len(calls) == 1
        assert (list(tables.hot_spots), list(tables.total_time)) == expected


class TestDiff:
    def test_identity_diff_all_unit(self):
        snap = take_snapshot("s", 1, trace_bytes_for(21))
        rows = diff(snap, snap)
        assert rows, "nonempty table expected"
        assert all(r.status == SHARED for r in rows)
        assert all(r.ratio == Fraction(1) for r in rows)

    def test_added_and_removed(self):
        a = take_snapshot("a", 1, b"0\t1\tE\tonly_a\n5\t1\tX\tonly_a\n")
        b = take_snapshot("b", 1, b"0\t1\tE\tonly_b\n5\t1\tX\tonly_b\n")
        rows = {r.method: r for r in diff(a, b)}
        assert rows["only_b"].status == ADDED
        assert rows["only_b"].ratio is None
        assert rows["only_b"].avg_a is None
        assert rows["only_a"].status == REMOVED
        assert rows["only_a"].avg_b is None

    def test_added_removed_sort_last(self):
        a = take_snapshot("a", 1, b"0\t1\tE\tshared\n5\t1\tX\tshared\n")
        b = take_snapshot(
            "b", 1, b"0\t1\tE\tshared\n9\t1\tX\tshared\n10\t1\tE\tnew\n11\t1\tX\tnew\n"
        )
        rows = diff(a, b)
        statuses = [r.status for r in rows]
        assert statuses == sorted(statuses, key=lambda s: s != SHARED)

    def test_ratio_is_avg_b_over_avg_a(self):
        a = take_snapshot("a", 1, b"0\t1\tE\tm\n10\t1\tX\tm\n")
        b = take_snapshot("b", 1, b"0\t1\tE\tm\n25\t1\tX\tm\n")
        (row,) = diff(a, b)
        assert row.avg_a == Fraction(10)
        assert row.avg_b == Fraction(25)
        assert row.ratio == Fraction(25, 10)

    def test_zero_over_zero_is_unit(self):
        trace = b"0\t1\tE\tm\n0\t1\tX\tm\n"
        (row,) = diff(take_snapshot("a", 1, trace), take_snapshot("b", 1, trace))
        assert row.avg_a == 0 and row.ratio == Fraction(1)

    def test_one_sided_zero_has_no_ratio(self):
        a = take_snapshot("a", 1, b"0\t1\tE\tm\n0\t1\tX\tm\n")
        b = take_snapshot("b", 1, b"0\t1\tE\tm\n8\t1\tX\tm\n")
        (row,) = diff(a, b)
        assert row.status == SHARED
        assert row.ratio is None
        assert row.deviation is None

    def test_sorted_by_deviation_desc(self):
        a_lines = b"0\t1\tE\tp\n10\t1\tX\tp\n10\t1\tE\tq\n20\t1\tX\tq\n"
        b_lines = b"0\t1\tE\tp\n11\t1\tX\tp\n11\t1\tE\tq\n41\t1\tX\tq\n"
        rows = diff(take_snapshot("a", 1, a_lines), take_snapshot("b", 1, b_lines))
        shared = [r for r in rows if r.status == SHARED]
        devs = [abs(r.ratio - 1) for r in shared]
        assert devs == sorted(devs, reverse=True)
        assert shared[0].method == "q"  # ratio 3.0 beats 1.1

    def test_antisymmetry_of_ratios(self):
        a = take_snapshot("a", 1, trace_bytes_for(31))
        b = take_snapshot("b", 2, trace_bytes_for(32, max_methods=6))
        forward = {r.method: r for r in diff(a, b) if r.status == SHARED}
        backward = {r.method: r for r in diff(b, a) if r.status == SHARED}
        assert set(forward) == set(backward)
        for method, row in forward.items():
            if row.ratio is None:
                assert backward[method].ratio is None
                continue
            assert row.ratio * backward[method].ratio == Fraction(1)

    def test_invocation_counts_carried(self):
        a = take_snapshot("a", 1, b"0\t1\tE\tm\n4\t1\tX\tm\n4\t1\tE\tm\n9\t1\tX\tm\n")
        b = take_snapshot("b", 1, b"0\t1\tE\tm\n4\t1\tX\tm\n")
        (row,) = diff(a, b)
        assert (row.invocations_a, row.invocations_b) == (2, 1)


class TestLoadComparison:
    def test_load_independent_latency_unit_ratios_at_zero_jitter(self):
        a = take_snapshot("1-user", 1, wl.simulate(wl.load_preset(1)).encode())
        b = take_snapshot("20-user", 20, wl.simulate(wl.load_preset(20)).encode())
        rows = diff(a, b)
        shared = [r for r in rows if r.status == SHARED]
        assert shared and all(r.status == SHARED for r in rows)
        assert all(r.ratio == Fraction(1) for r in shared)

    def test_jitter_bounded_ratios(self):
        a = take_snapshot("1-user", 1, wl.simulate(wl.load_preset(1, jitter=0.1)).encode())
        b = take_snapshot("20-user", 20, wl.simulate(wl.load_preset(20, jitter=0.1)).encode())
        for row in diff(a, b):
            assert row.status == SHARED
            assert Fraction(9, 10) <= row.ratio <= Fraction(11, 10)


class TestSerialization:
    def test_round_trip(self):
        snap = take_snapshot("rt", 4, wl.simulate(wl.load_preset(1)).encode())
        again = load_snapshot(dump_snapshot(snap))
        assert again == snap

    def test_round_trip_random_traces(self):
        for seed in range(10):
            snap = take_snapshot(f"s{seed}", seed, trace_bytes_for(seed))
            assert load_snapshot(dump_snapshot(snap)) == snap

    def test_file_round_trip(self, tmp_path):
        snap = take_snapshot("disk", 2, trace_bytes_for(8))
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        assert load_snapshot_file(path) == snap

    def test_diff_runs_on_reloaded_snapshots(self):
        a = take_snapshot("a", 1, trace_bytes_for(41))
        b = load_snapshot(dump_snapshot(take_snapshot("b", 2, trace_bytes_for(41))))
        rows = diff(a, b)
        assert all(r.ratio == Fraction(1) for r in rows if r.status == SHARED)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            load_snapshot("[]")
        with pytest.raises(ValueError):
            load_snapshot('{"format": "other"}')

    def test_digest_is_sha256_hex(self):
        digest = take_snapshot("x", 1, b"# abc\n").source_trace_digest
        assert len(digest) == 64
        assert digest == "c96d70129517a804082ed92c0ff5cc78c880c661376df954acf1d349484a7715"


class TestSnapshotEquality:
    def test_label_participates_in_equality(self):
        trace = trace_bytes_for(2)
        assert take_snapshot("x", 1, trace) != take_snapshot("y", 1, trace)
        assert take_snapshot("x", 1, trace) == take_snapshot("x", 1, trace)

    def test_is_frozen(self):
        snap = take_snapshot("x", 1, trace_bytes_for(2))
        with pytest.raises(AttributeError):
            snap.label = "z"
