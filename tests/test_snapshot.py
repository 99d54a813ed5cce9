"""Labeled analysis snapshots and cross-load diffs."""

import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens import metrics, report, snapshot
from cct_lens import workload as wl
from cct_lens.cct import ingest, merge_ccts
from cct_lens.cli import main
from cct_lens.components import Tier
from cct_lens.metrics import HotSpotRow
from cct_lens.snapshot import (
    ADDED,
    REMOVED,
    SHARED,
    Snapshot,
    diff,
    dump_snapshot,
    ingest_totals,
    load_snapshot,
    load_snapshot_file,
    tabulate,
    take_snapshot,
)
from cct_lens.trace import TraceParseError, join_lines, json_field, write_lines

from conftest import decimal_format_avg_ms, random_trace, trace_lines


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

    def test_a_byte_that_is_not_utf8_names_its_line(self):
        with pytest.raises(ValueError,
                           match=r"^line 2: byte 0xff is not UTF-8 \(invalid start byte\)$"):
            take_snapshot("a", 1, b"0\t1\tE\ta\n\xff")

    # a snapshot that load_snapshot refuses is refused before the trace is read
    def test_refuses_a_negative_user_count(self):
        with pytest.raises(ValueError, match=r"^'user_count' must be a int >= 0, got -1$"):
            take_snapshot("a", -1, b"not a trace line\n")

    def test_refuses_a_user_count_of_96_bits(self):
        with pytest.raises(ValueError, match=r"^'user_count' must be below 2\*\*96$"):
            take_snapshot("a", 2**96, b"not a trace line\n")
        snap = take_snapshot("a", 2**96 - 1, b"")
        assert load_snapshot(dump_snapshot(snap)) == snap

    def test_refuses_a_label_that_is_not_utf8(self):
        with pytest.raises(ValueError, match=r"^'label' must be UTF-8 text, got '\\udcff'$"):
            take_snapshot("\udcff", 1, b"not a trace line\n")


class TestTabulate:
    def test_no_aggregate_walk_per_tabulate(self, monkeypatch):
        # the tables come from the sums of the ingest pass, not from a tree
        trace = wl.simulate(wl.figure8_preset())
        root = merge_ccts(ingest(trace.splitlines()))
        expected = (metrics.hotspots(root), metrics.total_time_table(root))
        calls = []
        aggregate = metrics.aggregate_methods

        def counted(tree):
            calls.append(tree)
            return aggregate(tree)

        monkeypatch.setattr(metrics, "aggregate_methods", counted)
        tables = tabulate(ingest_totals(trace.splitlines()))
        assert calls == []
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
        write_lines(snapshot.snapshot_lines(snap), path)
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

    def test_rejects_a_negative_user_count(self):
        doc = json.loads(dump_snapshot(take_snapshot("x", 0, b"")))
        doc["user_count"] = -1
        with pytest.raises(ValueError, match=r"^'user_count' must be a int >= 0, got -1$"):
            load_snapshot(json.dumps(doc))

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


class ReferenceRow(NamedTuple):
    method: str
    avg_a: Fraction | None
    avg_b: Fraction | None
    invocations_a: int
    invocations_b: int
    ratio: Fraction | None
    status: str


def reference_diff(a: Snapshot, b: Snapshot) -> list[ReferenceRow]:
    """The diff in ``Fraction`` arithmetic: ratios of exact averages, sorted
    on exact deviations."""
    rows_a = {r.method: r for r in a.hotspot_table}
    rows_b = {r.method: r for r in b.hotspot_table}
    shared_rows, added_removed = [], []
    for method in rows_a.keys() | rows_b.keys():
        in_a, in_b = rows_a.get(method), rows_b.get(method)
        if in_a is not None and in_b is not None:
            avg_a = Fraction(in_a.self_time, in_a.invocations)
            avg_b = Fraction(in_b.self_time, in_b.invocations)
            if avg_a == 0 and avg_b == 0:
                ratio = Fraction(1)
            elif avg_a == 0 or avg_b == 0:
                ratio = None
            else:
                ratio = avg_b / avg_a
            shared_rows.append(ReferenceRow(method, avg_a, avg_b, in_a.invocations,
                                            in_b.invocations, ratio, SHARED))
        elif in_b is not None:
            added_removed.append(ReferenceRow(method, None,
                                              Fraction(in_b.self_time, in_b.invocations), 0,
                                              in_b.invocations, None, ADDED))
        else:
            added_removed.append(ReferenceRow(method,
                                              Fraction(in_a.self_time, in_a.invocations), None,
                                              in_a.invocations, 0, None, REMOVED))
    shared_rows.sort(key=lambda r: (0, Fraction(0), r.method) if r.ratio is None
                     else (1, -abs(r.ratio - 1), r.method))
    added_removed.sort(key=lambda r: (r.status, r.method))
    return shared_rows + added_removed


def reference_render(rows: list[ReferenceRow], a: Snapshot, b: Snapshot, fmt: str) -> str:
    """``report.render_diff`` with every float made by ``float`` of a ``Fraction``."""
    def num(value, spec, absent):
        return absent if value is None else format(float(value), spec)

    names = ["method", "avg_a_ns", "avg_b_ns", "ratio", "invocations_a", "invocations_b",
             "status"]
    if fmt == "text":
        head = (f"Snapshot diff: a={a.label} (users={a.user_count})  "
                f"b={b.label} (users={b.user_count})\n\n")
        return head + join_lines(report._text_table(
            ["Method", "Avg a", "Avg b", "Ratio b/a", "Inv a", "Inv b", "Status"],
            [[r.method, "-" if r.avg_a is None else decimal_format_avg_ms(r.avg_a),
              "-" if r.avg_b is None else decimal_format_avg_ms(r.avg_b),
              num(r.ratio, ".3f", "-"),
              str(r.invocations_a), str(r.invocations_b), r.status] for r in rows]))
    if fmt == "csv":
        return join_lines(report._csv_block(
            f"diff {a.label} vs {b.label}", names,
            ([r.method, num(r.avg_a, ".1f", ""), num(r.avg_b, ".1f", ""),
              num(r.ratio, ".6f", ""), r.invocations_a, r.invocations_b, r.status]
             for r in rows)))
    side = lambda s: {"label": s.label, "user_count": s.user_count,
                      "source_trace_digest": s.source_trace_digest}
    return json.dumps({"a": side(a), "b": side(b), "rows": [
        dict(zip(names, (r.method, *(None if v is None else float(v)
                                     for v in (r.avg_a, r.avg_b, r.ratio)),
                         r.invocations_a, r.invocations_b, r.status)))
        for r in rows]}, indent=2) + "\n"


def diff_values(rows) -> list[tuple]:
    return [(r.method, r.avg_a, r.avg_b, r.invocations_a, r.invocations_b, r.ratio, r.status)
            for r in rows]


def hot_snapshot(label: str, rows) -> Snapshot:
    return Snapshot(label, 1, tuple(HotSpotRow(m, s, Fraction(0), n) for m, s, n in rows),
                    (), "")


# zeros, the largest values a snapshot holds, and values near 2**60, where the
# deviations 1/2**60 and 1/(2**60 + 1) have one float
SELF_NS = (st.sampled_from([0, 1, 2, 3, 2**60, 2**60 + 1, 2**60 + 2, 2**96 - 1])
           | st.integers(0, 2**96 - 1))
INVOCATIONS = st.sampled_from([1, 2, 3, 2**60, 2**60 + 1, 2**96 - 1]) | st.integers(1, 2**96 - 1)


@st.composite
def snapshot_pairs(draw):
    """Two snapshots over shared, added and removed methods, with free values,
    identical sides, every ratio equal, or deviations 1/(2**e + d) whose
    floats collide."""
    shape = draw(st.sampled_from(["free", "identical", "scaled", "colliding"]))
    scale_self, scale_invocations = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows_a, rows_b = [], []
    for method in draw(st.lists(st.text("abc", max_size=3), unique=True, max_size=12)):
        sa, ia = draw(SELF_NS), draw(INVOCATIONS)
        if shape == "identical":
            sb, ib = sa, ia
        elif shape == "scaled":
            sb, ib = sa * scale_self, ia * scale_invocations
        elif shape == "colliding":
            sa, ia = 2**draw(st.integers(53, 95)) + draw(st.integers(0, 3)), 1
            sb, ib = sa + draw(st.sampled_from([1, -1])), 1
        else:
            sb, ib = draw(SELF_NS), draw(INVOCATIONS)
        side = draw(st.sampled_from(["both", "both", "a", "b"]))
        if side != "b":
            rows_a.append((method, sa, ia))
        if side != "a":
            rows_b.append((method, sb, ib))
    return (hot_snapshot("a", draw(st.permutations(rows_a))),
            hot_snapshot("b", draw(st.permutations(rows_b))))


class TestDiffMatchesFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(snapshot_pairs())
    # deviations 1/(2**60 + 1) for "a" and 1/2**60 for "b": one float, and
    # the exact order is not the name order
    @example((hot_snapshot("a", [("a", 2**60 + 1, 1), ("b", 2**60, 1), ("c", 5, 1)]),
              hot_snapshot("b", [("a", 2**60 + 2, 1), ("b", 2**60 + 1, 1), ("c", 5, 1)])))
    # the same at 2**95, where the deviations differ by about 2**-190: a sort
    # key narrower than that cannot tell them apart
    @example((hot_snapshot("a", [("a", 2**95 + 1, 1), ("b", 2**95, 1), ("c", 5, 1)]),
              hot_snapshot("b", [("a", 2**95 + 2, 1), ("b", 2**95 + 1, 1), ("c", 5, 1)])))
    @example((hot_snapshot("a", [("x", 0, 1), ("y", 0, 2), ("z", 7, 1)]),
              hot_snapshot("b", [("x", 0, 3), ("y", 4, 2), ("z", 0, 1)])))
    def test_rows_and_reports_equal_the_reference(self, pair):
        a, b = pair
        for first, second in (a, b), (b, a), (a, a):
            expected = reference_diff(first, second)
            rows = diff(first, second)
            assert diff_values(rows) == expected
            assert [r.deviation for r in rows] == [
                None if r.ratio is None else abs(r.ratio - 1) for r in expected]
            for fmt in report.REPORT_FORMATS:
                assert (report.render_diff(rows, first, second, fmt)
                        == reference_render(expected, first, second, fmt))

    def test_makes_no_fraction_comparisons(self, monkeypatch):
        # 2,000 shared rows whose ratios are (1 + i % 7) / (1 + i % 3): many
        # exact ties, no two distinct deviations with one float; zero self
        # times on one side and on both; added and removed methods
        rows_a, rows_b = [], []
        for i in range(2000):
            sa, ia = 100 + i, 1 + i % 5
            sb, ib = sa * (1 + i % 7), ia * (1 + i % 3)
            if i % 97 == 0:
                sa = sb = 0
            elif i % 89 == 0:
                sa = 0
            rows_a.append((f"m{i:04d}", sa, ia))
            rows_b.append((f"m{i:04d}", sb, ib))
        rows_a += [(f"removed{i}", i, 1) for i in range(5)]
        rows_b += [(f"added{i}", i, 1) for i in range(5)]
        a, b = hot_snapshot("a", rows_a), hot_snapshot("b", rows_b)

        def refuse(*_):
            raise AssertionError("diff compared Fractions")

        with monkeypatch.context() as patch:
            for name in ("__eq__", "__lt__", "__gt__"):
                patch.setattr(Fraction, name, refuse)
            rows = diff(a, b)
        assert diff_values(rows) == reference_diff(a, b)


class TestDiffAverages:
    def test_cli_prints_the_exact_average_of_a_huge_row(self, tmp_path, capsys):
        # 10000000000000.004999... ms, which the Decimal formatter printed as
        # 10000000000000.01 ms
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        write_lines(snapshot.snapshot_lines(hot_snapshot(
            "a", [("m", 2_000_000_000_000_000_999_999_999_999, 200_000_000)])), paths[0])
        write_lines(snapshot.snapshot_lines(hot_snapshot("b", [("m", 3_000_000, 2)])), paths[1])
        assert main(["diff", *map(str, paths)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].split() == [
            "m", "10000000000000", "ms", "1.5", "ms", "0.000", "200000000", "2", "shared"]
        assert ".01 ms" not in out


class TestSnapshotText:
    """Labels and names a snapshot holds are written by every diff format."""

    @staticmethod
    def doc(label="a", method="m", component="C", digest="") -> str:
        # json.dumps escapes a lone surrogate, as a hand-written file may
        return json.dumps({"format": snapshot._SNAPSHOT_FORMAT, "label": label, "user_count": 1,
                           "source_trace_digest": digest,
                           "hot_spots": [{"method": method, "self_ns": 5, "invocations": 1}],
                           "components": [{"component": component, "tier": "web",
                                           "self_ns": 5, "invocations": 1}]})

    @pytest.mark.parametrize("field, where", [
        ("label", "'label'"), ("method", "hot_spots[0]: 'method'"),
        ("component", "components[0]: 'component'"), ("digest", "'source_trace_digest'")])
    def test_refuses_text_utf8_cannot_encode(self, tmp_path, capsys, field, where):
        bad, good, out = tmp_path / "bad.json", tmp_path / "good.json", tmp_path / "out.txt"
        bad.write_text(self.doc(**{field: "\ud800bad"}), encoding="utf-8")
        good.write_text(self.doc(), encoding="utf-8")
        for fmt in report.REPORT_FORMATS:
            assert main(["diff", str(good), str(bad), "--format", fmt, "-o", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: {where} must be UTF-8 text, got '\\ud800bad'\n")
            assert not out.exists()

    def test_loads_text_that_is_not_ascii(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(self.doc("lóad", "é.m()", "Ç"), encoding="utf-8")
        snap = load_snapshot_file(path)
        assert (snap.label, snap.hotspot_table[0].method,
                snap.component_table[0].component) == ("lóad", "é.m()", "Ç")
        assert main(["diff", str(path), str(path)]) == 0
        assert capsys.readouterr().out.startswith("Snapshot diff: a=lóad ")

    def test_snapshot_out_replaces_a_label_byte_that_is_not_utf8(self, tmp_path, capsys):
        trace, snap = tmp_path / "t.tsv", tmp_path / "s.json"
        trace.write_text("1\t1\tE\ta.B.m()\n2\t1\tX\ta.B.m()\n", encoding="utf-8")
        # argv gives the byte 0xff as the surrogate U+DCFF
        assert main(["analyze", str(trace), "--snapshot-out", str(snap),
                     "--label", "load\udcff"]) == 0
        capsys.readouterr()
        assert load_snapshot_file(snap).label == "load\ufffd"
        assert main(["diff", str(snap), str(snap), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("# diff load\ufffd vs load\ufffd\n")

    def test_snapshot_out_keeps_an_empty_label(self, tmp_path, capsys):
        trace, snap = tmp_path / "t.tsv", tmp_path / "s.json"
        trace.write_text("1\t1\tE\ta.B.m()\n2\t1\tX\ta.B.m()\n", encoding="utf-8")
        assert main(["analyze", str(trace), "--snapshot-out", str(snap), "--label", ""]) == 0
        capsys.readouterr()
        assert load_snapshot_file(snap).label == ""
        assert main(["diff", str(snap), str(snap), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("# diff  vs \n")
        assert main(["diff", str(snap), str(snap)]) == 0
        assert capsys.readouterr().out.startswith("Snapshot diff: a= (users=0)  b= (users=0)\n")

    def test_label_line_breaks_stay_on_their_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(self.doc("1\ruser"), encoding="utf-8")
        b.write_text(self.doc("20\nusers\r"), encoding="utf-8")
        assert main(["diff", str(a), str(b), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[:2] == [["# diff 1\\ruser vs 20\\nusers\\r"], list(report._DIFF_NAMES)]
        assert len(rows) == 3
        assert main(["diff", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "Snapshot diff: a=1\\ruser (users=1)  b=20\\nusers\\r (users=1)", ""]

    def test_method_line_breaks_stay_in_their_text_diff_row(self, tmp_path, capsys):
        paths = []
        for side, ns in (("a", 5), ("b", 7)):
            doc = json.loads(self.doc(side, "bad\nmethod"))
            doc["hot_spots"].append({"method": "ok\r.m", "self_ns": 3, "invocations": 1})
            paths.append(tmp_path / f"{side}.json")
            doc["hot_spots"][0]["self_ns"] = ns
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        assert main(["diff", *map(str, paths)]) == 0
        # the widths count the escaped text, so the columns line up
        assert capsys.readouterr().out.splitlines()[2:] == [
            "Method             Avg a        Avg b  Ratio b/a  Inv a  Inv b  Status",
            "----------------------------------------------------------------------",
            "bad\\nmethod  0.000005 ms  0.000007 ms      1.400      1      1  shared",
            "ok\\r.m       0.000003 ms  0.000003 ms      1.000      1      1  shared"]


TIER_NAMES = ("web", "business", "dao", "middleware", "other")


def reference_rows(doc: dict, key: str, fields) -> list[tuple]:
    """The loader's rows field by field: each field through ``json_field``,
    then the 2**96 bound or the UTF-8 check and, for a tier, its name, then
    the duplicate check."""
    rows, seen = [], set()
    for i, row in enumerate(json_field(doc, key, list)):
        where = f"{key}[{i}]: "
        values = []
        for name, kind, minimum in fields:
            value = json_field(row, name, str if kind is Tier else kind, minimum, where)
            if kind is int and value >= 2**96:
                raise ValueError(f"{where}{name!r} must be below 2**96")
            if kind is not int:
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{where}{name!r} must be UTF-8 text, got {value!r}")
            if kind is Tier and value not in TIER_NAMES:
                raise ValueError(f"{where}unknown tier {value!r} "
                                 "(expected web, business, dao, middleware, other)")
            values.append(value)
        name = tuple((f, v) for (f, kind, _), v in zip(fields, values) if kind is not int)
        if name in seen:
            raise ValueError(f"{where}duplicate " + ", ".join(f"{f} {v!r}" for f, v in name))
        seen.add(name)
        rows.append(tuple(values))
    return rows


TABLES = {"hot_spots": (snapshot._HOT_FIELDS, snapshot._hot_row_ok),
          "components": (snapshot._COMPONENT_FIELDS, snapshot._component_row_ok)}
MUTATIONS = ("not a dict", "missing", "extra", "bool", "float", "str", "int", "negative",
             "zero", "2**96", "2**96 - 1", "duplicate", "not ascii", "surrogate", "case")


@st.composite
def table_docs(draw):
    """A snapshot's hot-spot or component table, its rows mutated in place."""
    key = draw(st.sampled_from(sorted(TABLES)))
    fields = TABLES[key][0]
    valid_row = st.fixed_dictionaries({
        name: (st.text("ab", max_size=2) if kind is str else st.sampled_from(TIER_NAMES)
               if kind is Tier else st.integers(minimum, 2**96 - 1))
        for name, kind, minimum in fields})
    rows = draw(st.lists(valid_row, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        name = draw(st.sampled_from([name for name, _, _ in fields]))
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation == "not a dict":
            rows[i] = draw(st.sampled_from([[], [rows[i]], "row", 3, None, True]))
            continue
        if not isinstance(rows[i], dict):
            continue
        row = rows[i] = dict(rows[i])
        if mutation == "missing":
            row.pop(name, None)
        elif mutation == "extra":
            row["extra"] = 1
        elif mutation == "duplicate":
            other = rows[draw(st.integers(0, len(rows) - 1))]
            if isinstance(other, dict):
                row.update((f, other[f]) for f, kind, _ in fields
                           if kind is not int and f in other)
        else:
            row[name] = {"bool": draw(st.booleans()), "float": 1.0, "str": "1", "int": 1,
                         "negative": -1, "zero": 0, "2**96": 2**96,
                         "2**96 - 1": 2**96 - 1, "not ascii": "é", "surrogate": "a\udc80",
                         "case": "Web"}[mutation]
    return key, {key: rows}


@settings(max_examples=400, deadline=None)
@given(table_docs())
def test_loader_rows_match_the_field_by_field_reference(table):
    key, doc = table
    fields, row_ok = TABLES[key]
    outcomes = []
    for load in (lambda: reference_rows(doc, key, fields),
                 lambda: snapshot._rows(doc, key, fields, row_ok)):
        try:
            outcomes.append(repr(load()))
        except ValueError as exc:
            outcomes.append(f"ValueError: {exc}")
    assert outcomes[0] == outcomes[1]
