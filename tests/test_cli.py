"""End-to-end command-line behavior over real files."""

import csv
import gc
import gzip
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cct_lens
from cct_lens import cct, cli, filters, snapshot
from cct_lens import workload as wl
from cct_lens.cli import main
from cct_lens.compare import load_snapshot_file
from cct_lens.filters import FilterSet, apply_filter
from cct_lens.snapshot import dump_snapshot, take_snapshot
from cct_lens.trace import WRITE_BATCH, jsonl_lines, text_lines, write_lines

from conftest import decode_cct, decode_forest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def peak_traced_mib(*argv) -> float:
    """Peak Python heap of one successful in-process CLI run, in MiB."""
    tracemalloc.start()
    try:
        assert main(list(argv)) == 0, argv
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class CountingStream:
    """A write-through text stream that keeps each write it is given."""

    def __init__(self, writes: list[str]):
        self.writes = writes

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.fixture(scope="module")
def fig8_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "fig8.tsv"
    path.write_text(wl.simulate(wl.figure8_preset()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def wide_trace(tmp_path_factory):
    """A trace whose tree JSON spans several chunks: 3 * ``cct._CHUNK`` methods,
    each entered and left once, on two threads."""
    path = tmp_path_factory.mktemp("traces") / "wide.tsv"
    write_lines((f"{2 * i + end}\t{i % 2}\t{kind}\tcom.example.C{i}.m()"
                 for i in range(3 * cct._CHUNK) for end, kind in ((0, "E"), (1, "X"))), path)
    with open(path, "rb") as fh:
        roots = cct.ingest(text_lines(fh))
    assert len(list(cct.cct_json(cct.merge_ccts(roots)))) > 2
    assert len(list(cct.forest_json(roots))) > 2
    return path


class TestSimulate:
    def test_preset_to_file(self, capsys, tmp_path):
        out = tmp_path / "t.tsv"
        code, stdout, _ = run(capsys, "simulate", "--preset", "figure8", "-o", str(out))
        assert code == 0
        assert "events=" in stdout and "sha256=" in stdout
        assert out.read_text().startswith("# synthetic enter/exit trace")

    def test_trace_to_stdout_summary_to_stderr(self, capsys):
        code, stdout, stderr = run(capsys, "simulate", "--preset", "figure8")
        assert code == 0
        assert stdout.count("\tE\t") > 0
        assert "sha256=" in stderr and "sha256=" not in stdout

    def test_unknown_preset(self, capsys):
        code, _, stderr = run(capsys, "simulate", "--preset", "nosuch")
        assert code == 1
        assert "unknown preset" in stderr

    def test_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "w.json"
        spec_path.write_text('{"executions": {"login": 2}, "seed": 4}\n')
        out = tmp_path / "t.tsv"
        code, _, _ = run(capsys, "simulate", "--spec", str(spec_path), "-o", str(out))
        assert code == 0
        assert out.read_text().count("\tE\t") == 2 * 12

    def test_empty_spec_gives_comments_only(self, capsys, tmp_path):
        spec_path = tmp_path / "empty.json"
        spec_path.write_text('{"executions": {}}\n')
        out = tmp_path / "t.tsv"
        code, _, _ = run(capsys, "simulate", "--spec", str(spec_path), "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines and all(line.startswith("#") for line in lines)

    def test_seed_override(self, capsys, tmp_path):
        spec_path = tmp_path / "w.json"
        spec_path.write_text('{"executions": {"login": 2}, "jitter": 0.4}\n')
        a, b, c = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
        run(capsys, "simulate", "--spec", str(spec_path), "--seed", "1", "-o", str(a))
        run(capsys, "simulate", "--spec", str(spec_path), "--seed", "2", "-o", str(b))
        run(capsys, "simulate", "--spec", str(spec_path), "--seed", "1", "-o", str(c))
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_preset_and_spec_mutually_exclusive(self, capsys, tmp_path):
        spec_path = tmp_path / "w.json"
        spec_path.write_text('{"executions": {}}\n')
        code, _, stderr = run(
            capsys, "simulate", "--preset", "figure8", "--spec", str(spec_path)
        )
        assert code == 1
        assert "either" in stderr or "one of" in stderr

    def test_neither_preset_nor_spec(self, capsys):
        code, _, stderr = run(capsys, "simulate")
        assert code == 1

    def test_summary_matches_the_written_file(self, capsys, tmp_path):
        out = tmp_path / "t.tsv"
        code, stdout, _ = run(capsys, "simulate", "--preset", "figure8", "-o", str(out))
        assert code == 0
        data = out.read_bytes()
        assert len(data) > 4 * WRITE_BATCH  # the digest is taken a batch at a time
        events = sum(1 for line in data.decode("utf-8").splitlines()
                     if line and not line.startswith("#"))
        assert stdout == f"events={events} sha256={hashlib.sha256(data).hexdigest()}\n"

    def test_bad_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"executions": {"login": 1}, "sede": 2}\n')
        code, _, stderr = run(capsys, "simulate", "--spec", str(spec_path))
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("text, message", [
        ('{"executions": ' + "[" * 10**5 + "]" * 10**5 + "}", "bad workload spec: "),
        ('{"executions": {"login": 1}, "jitter": 0.1, "default_base_ns": %d}' % 10**399,
         "default_base_ns must be below 2**63\n"),
        ('{"executions": {"login": 1}, "jitter": 0.1, "base_ns": {"%s": %d}}'
         % (wl.GET_CONNECTION, 10**399),
         f"base duration for {wl.GET_CONNECTION} must be below 2**63\n"),
        ('{"executions": {"login": 2}, "thread_count": %d}' % 10**20,
         "thread_count must be below 2**63\n"),
        ('{"executions": {"login": 1}, "jitter": %d}' % 10**400,
         "jitter must be in [0, 1), got %d\n" % 10**400),
    ], ids=["nested-1e5-deep", "huge-default_base_ns", "huge-base_ns", "huge-thread_count",
            "huge-jitter"])
    def test_hostile_spec(self, capsys, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        code, stdout, stderr = run(capsys, "simulate", "--spec", str(path))
        assert (code, stdout, stderr.count("\n")) == (1, "", 1)
        assert stderr.startswith(f"error: {path}: {message}")

    def test_spec_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"executions": {"login": %s}}' % ("1" * 4301), encoding="utf-8")
        code, stdout, stderr = run(capsys, "simulate", "--spec", str(path))
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: {path}: bad workload spec: Exceeds the limit (4300 digits) "
                          "for integer string conversion: value has 4301 digits\n")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "-o"])
    def test_timeline_past_64_bits_refused(self, capsys, tmp_path, to_file):
        spec_path = tmp_path / "w.json"
        spec_path.write_text('{"executions": {"login": 2}, "default_base_ns": %d, "jitter": 0.5}'
                             % (2**63 - 1))
        out = tmp_path / "t.tsv"
        code, stdout, stderr = run(capsys, "simulate", "--spec", str(spec_path),
                                   *(["-o", str(out)] if to_file else []))
        assert (code, stderr) == (
            1, f"error: {spec_path}: tid 1: timestamp outside the signed 64-bit range\n")
        written = out.read_text() if to_file else stdout
        # the first execution already passes the limit: only the header is out
        assert [line[:1] for line in written.splitlines()] == ["#"] * 3
        if to_file:
            assert stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--spec"], "workload spec must be a JSON object"),
        (["diff", "/dev/zero"], "not a cct-lens/snapshot@1 document"),
    ], ids=["spec", "snapshot"])
    def test_endless_file_is_refused_after_one_read(self, argv, message):
        import resource

        def cap_memory():
            # a loader that reads the whole file fails here, not the machine
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        env = {**os.environ, "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "cct_lens.cli", *argv, "/dev/zero"],
                              capture_output=True, env=env, text=True, timeout=60,
                              preexec_fn=cap_memory)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: /dev/zero: {message}\n"

    def test_timeline_reaching_64_bits_accepted(self, capsys, tmp_path):
        spec_path = tmp_path / "w.json"
        spec_path.write_text('{"executions": {"login_page": 1}, "default_base_ns": %d}'
                             % (2**63 - 1))
        out = tmp_path / "t.tsv"
        code, _, _ = run(capsys, "simulate", "--spec", str(spec_path), "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].split("\t")[0] == str(2**63 - 1)
        cct.ingest(lines)


class TestAnalyze:
    def test_text_report_layout(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "analyze", str(fig8_trace))
        assert code == 0
        assert "Hot Spots - Method" in stdout
        assert "Self time (%)" in stdout
        first_data_row = next(
            line for line in stdout.splitlines() if line.startswith("com.")
        )
        assert "getConnection" in first_data_row
        assert "41.4%" in first_data_row
        assert "1267 ms" in first_data_row
        assert "50" in first_data_row
        assert "Component" in stdout  # utilization table present
        assert "Total time" in stdout

    def test_exclude_dao_attribute_mode(self, capsys, fig8_trace):
        code, plain, _ = run(capsys, "analyze", str(fig8_trace), "--format", "json")
        code2, filtered, _ = run(
            capsys,
            "analyze",
            str(fig8_trace),
            "--format",
            "json",
            "--exclude",
            "com.mycompany.hr.dao.*",
            "--filter-mode",
            "attribute",
        )
        assert code == 0 and code2 == 0
        doc_plain, doc_filtered = json.loads(plain), json.loads(filtered)
        methods = [r["method"] for r in doc_filtered["hot_spots"]]
        assert all(".dao." not in m for m in methods)
        total = sum(r["self_ns"] for r in doc_plain["hot_spots"])
        total_filtered = sum(r["self_ns"] for r in doc_filtered["hot_spots"])
        assert total_filtered == total  # attribution conserves self time

    def test_missing_trace_exits_nonzero(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "analyze", str(tmp_path / "nope.tsv"))
        assert code == 1
        assert "error:" in stderr

    def test_parse_error_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\tE\ta\nbroken\n", encoding="utf-8")
        code, _, stderr = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 2" in stderr

    def test_csv_format_parses(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "analyze", str(fig8_trace), "--format", "csv")
        assert code == 0
        block = [
            line
            for line in stdout.splitlines()
            if line and not line.startswith("#")
        ]
        rows = list(csv.reader(io.StringIO("\n".join(block))))
        header = rows[0]
        assert header[0] == "method"
        by_method = {r[0]: r for r in rows[1:] if len(r) == len(header)}
        top = by_method[wl.GET_CONNECTION]
        assert top[header.index("invocations")] == "50"

    def test_json_format_structure(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "analyze", str(fig8_trace), "--format", "json")
        doc = json.loads(stdout)
        assert set(doc) == {"hot_spots", "total_time", "components"}
        top = doc["hot_spots"][0]
        assert top["method"] == wl.GET_CONNECTION
        assert top["self_ns"] == 1267_000_000
        assert top["invocations"] == 50
        comp = {c["component"]: c for c in doc["components"]}
        assert comp["BaseDAO"]["tier"] == "dao"

    def test_per_thread_sections(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "analyze", str(fig8_trace), "--per-thread")
        assert code == 0
        assert stdout.count("=== ") == 4  # one section per tid

    def test_snapshot_out(self, capsys, fig8_trace, tmp_path):
        snap_path = tmp_path / "s.json"
        code, _, _ = run(
            capsys,
            "analyze",
            str(fig8_trace),
            "--snapshot-out",
            str(snap_path),
            "--label",
            "20-user",
            "--user-count",
            "20",
        )
        assert code == 0
        snap = load_snapshot_file(snap_path)
        assert snap.label == "20-user"
        assert snap.user_count == 20
        assert snap.hotspot_table[0].method == wl.GET_CONNECTION

    def test_snapshot_out_refuses_a_user_count_no_snapshot_can_hold(self, capsys, tmp_path):
        # refused before the trace is read: this one does not exist
        snap_path = tmp_path / "s.json"
        code, stdout, stderr = run(capsys, "analyze", str(tmp_path / "missing.tsv"),
                                   "--snapshot-out", str(snap_path), "--user-count", str(2**96))
        assert (code, stdout) == (1, "")
        assert stderr == "error: --user-count must be below 2**96\n"
        assert not snap_path.exists()

    def test_snapshot_out_refuses_a_negative_user_count(self, capsys, tmp_path):
        # refused before the trace is read: this one does not exist
        snap_path = tmp_path / "s.json"
        code, stdout, stderr = run(capsys, "analyze", str(tmp_path / "missing.tsv"),
                                   "--snapshot-out", str(snap_path), "--user-count", "-5")
        assert (code, stdout) == (1, "")
        assert stderr == "error: --user-count must be >= 0\n"
        assert not snap_path.exists()

    def test_snapshot_out_splits_lines_as_plain_analyze(self, capsys, tmp_path):
        # a form feed ends a line for str.splitlines(), not for a text file
        trace = tmp_path / "ff.tsv"
        trace.write_bytes(b"# a\x0cb\n0\t1\tE\tm\n5\t1\tX\tm\n")
        code, plain, _ = run(capsys, "analyze", str(trace))
        assert code == 0
        code, stdout, stderr = run(capsys, "analyze", str(trace),
                                   "--snapshot-out", str(tmp_path / "s.json"))
        assert code == 0, stderr
        assert stdout == plain

    def test_snapshot_digest_is_sha256_of_raw_bytes(self, capsys, tmp_path):
        data = b"# crlf\r\n0\t1\tE\tm\r\n5\t1\tX\tm\r\n"
        trace = tmp_path / "crlf.tsv"
        trace.write_bytes(data)
        snap_path = tmp_path / "s.json"
        code, _, _ = run(capsys, "analyze", str(trace), "--snapshot-out", str(snap_path))
        assert code == 0
        digest = load_snapshot_file(snap_path).source_trace_digest
        assert digest == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("flags, tables", [
        ([], 1),
        (["--per-thread"], 4),
        (["--snapshot-out", "SNAP"], 1),
        (["--per-thread", "--snapshot-out", "SNAP"], 5),
    ])
    def test_reads_once_and_builds_only_written_tables(self, capsys, fig8_trace, tmp_path,
                                                       monkeypatch, flags, tables):
        calls = {"ingest": 0, "tabulate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # any reader counts as the one read
        for module, reader in ((cct, "ingest"), (cct, "ingest_merged"),
                               (snapshot, "ingest_totals")):
            monkeypatch.setattr(module, reader, counted("ingest", getattr(module, reader)))
        monkeypatch.setattr(snapshot, "tabulate", counted("tabulate", snapshot.tabulate))
        argv = [str(tmp_path / "s.json") if f == "SNAP" else f for f in flags]
        code, _, _ = run(capsys, "analyze", str(fig8_trace), *argv)
        assert code == 0
        assert calls == {"ingest": 1, "tabulate": tables}

    @pytest.mark.parametrize("flags", [(), ("--lenient",)], ids=["strict", "lenient"])
    def test_a_name_near_the_line_cap_gives_short_messages(self, capsys, tmp_path, flags):
        # an enter, then a mismatched exit whose name is 1,000,000 characters long
        trace = tmp_path / "long.tsv"
        trace.write_text(f"0\t1\tE\tm\n1\t1\tX\t{'a' * 1_000_000}\n", encoding="utf-8")
        code, _, stderr = run(capsys, "analyze", str(trace), *flags)
        lines = stderr.splitlines()
        # lenient: the dropped exit, then the frame left open
        assert (code, len(lines)) == ((0, 2) if flags else (1, 1))
        assert lines[0].startswith("warning: " if flags else "error: ")
        assert "a" * 200 + "... (1000000 characters)" in lines[0]
        assert all(len(line.encode("utf-8")) < 1024 for line in lines)

    def test_output_file_matches_stdout(self, capsys, fig8_trace, tmp_path):
        out = tmp_path / "report.txt"
        _, stdout, _ = run(capsys, "analyze", str(fig8_trace))
        code, stdout2, _ = run(capsys, "analyze", str(fig8_trace), "-o", str(out))
        assert code == 0 and stdout2 == ""
        assert out.read_text() == stdout

    def test_deterministic_output(self, capsys, fig8_trace):
        _, first, _ = run(capsys, "analyze", str(fig8_trace))
        _, second, _ = run(capsys, "analyze", str(fig8_trace))
        assert first == second

    def test_lenient_warnings_on_stderr_not_stdout(self, capsys, tmp_path):
        trace = tmp_path / "trunc.tsv"
        trace.write_text("0\t1\tE\ta\n5\t1\tE\tb\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "analyze", str(trace), "--lenient")
        assert code == 0
        assert "warning" in stderr
        assert "warning" not in stdout

    def test_one_write_per_warning(self, monkeypatch, tmp_path):
        # stderr is unbuffered: each write is a system call
        trace = tmp_path / "trunc.tsv"
        trace.write_text("0\t1\tE\ta\n5\t1\tE\tb\n9\t2\tE\tc\n", encoding="utf-8")
        writes = []
        monkeypatch.setattr(sys, "stderr", CountingStream(writes))
        assert main(["analyze", str(trace), "--lenient", "-o", os.devnull]) == 0
        assert len(writes) == 2  # one per thread left open
        assert all(w.startswith("warning: ") and w.endswith("\n") for w in writes)

    def test_structural_error_names_thread_and_file_line(self, capsys, tmp_path):
        trace = tmp_path / "mismatch.tsv"
        # the exit on file line 4 closes a, but b is the innermost open frame
        trace.write_text("# header\n0\t1\tE\ta\n1\t1\tE\tb\n2\t1\tX\ta\n"
                         "3\t1\tX\tb\n4\t1\tX\ta\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "analyze", str(trace))
        assert code == 1 and stdout == ""
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "tid 1, line 4" in errors[0]
        code, _, stderr = run(capsys, "analyze", str(trace), "--lenient")
        assert code == 0
        warnings = [line for line in stderr.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "line 4" in warnings[0] and "mismatched" in warnings[0]

    def test_strict_rejects_truncated(self, capsys, tmp_path):
        trace = tmp_path / "trunc.tsv"
        trace.write_text("0\t1\tE\ta\n", encoding="utf-8")
        code, _, stderr = run(capsys, "analyze", str(trace))
        assert code == 1

    def test_custom_catalog(self, capsys, fig8_trace, tmp_path):
        cat = tmp_path / "catalog.tsv"
        cat.write_text("dao\tEverything\t*\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, "analyze", str(fig8_trace), "--catalog", str(cat), "--format", "json"
        )
        doc = json.loads(stdout)
        assert [c["component"] for c in doc["components"]] == ["Everything"]


class TestDiff:
    def make_snapshot(self, capsys, tmp_path, name, users, jitter=0.0):
        trace = tmp_path / f"{name}.tsv"
        trace.write_text(
            wl.simulate(wl.load_preset(users, jitter=jitter)), encoding="utf-8"
        )
        snap = tmp_path / f"{name}.snap.json"
        code, _, _ = run(
            capsys,
            "analyze",
            str(trace),
            "--snapshot-out",
            str(snap),
            "--label",
            name,
            "--user-count",
            str(users),
        )
        assert code == 0
        return snap

    def test_self_diff_all_unit(self, capsys, tmp_path):
        snap = self.make_snapshot(capsys, tmp_path, "one", 1)
        code, stdout, _ = run(capsys, "diff", str(snap), str(snap))
        assert code == 0
        shared = [line for line in stdout.splitlines() if line.endswith("shared")]
        assert shared and all("1.000" in line for line in shared)

    def test_load_levels_unit_at_zero_jitter(self, capsys, tmp_path):
        a = self.make_snapshot(capsys, tmp_path, "u1", 1)
        b = self.make_snapshot(capsys, tmp_path, "u20", 20)
        code, stdout, _ = run(capsys, "diff", str(a), str(b), "--format", "json")
        doc = json.loads(stdout)
        assert doc["a"]["label"] == "u1" and doc["b"]["label"] == "u20"
        assert doc["a"]["user_count"] == 1 and doc["b"]["user_count"] == 20
        assert doc["rows"] and all(row["ratio"] == 1.0 for row in doc["rows"])

    def test_added_methods_flagged(self, capsys, tmp_path):
        small = tmp_path / "small.tsv"
        small.write_text(
            wl.simulate(wl.WorkloadSpec(executions={"login": 2})), encoding="utf-8"
        )
        big = tmp_path / "big.tsv"
        big.write_text(
            wl.simulate(wl.WorkloadSpec(executions={"login": 2, "recruit": 1})),
            encoding="utf-8",
        )
        snap_a, snap_b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "analyze", str(small), "--snapshot-out", str(snap_a))
        run(capsys, "analyze", str(big), "--snapshot-out", str(snap_b))
        code, stdout, _ = run(
            capsys, "diff", str(snap_a), str(snap_b), "--format", "json"
        )
        doc = json.loads(stdout)
        added = {r["method"] for r in doc["rows"] if r["status"] == "added"}
        assert wl.BEAN_RECRUIT in added

    def test_missing_snapshot_file(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "diff", str(tmp_path / "no.json"), str(tmp_path / "no2.json")
        )
        assert code == 1

    def test_rejects_non_snapshot_json(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        code, _, stderr = run(capsys, "diff", str(bogus), str(bogus))
        assert code == 1
        assert "error:" in stderr


_DELETE = object()


class TestMalformedSnapshot:
    """``diff`` on a damaged snapshot exits 1 with one error naming the file.

    ``main`` runs in-process, so a traceback would fail the test itself.
    """

    GOOD = dump_snapshot(take_snapshot("good", 1, b"0\t1\tE\tm\n5\t1\tX\tm\n"))

    def check(self, capsys, tmp_path, data: bytes):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(self.GOOD, encoding="utf-8")
        bad.write_bytes(data)
        code, stdout, stderr = run(capsys, "diff", str(good), str(bad))
        assert code == 1 and stdout == ""
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(bad) in errors[0], stderr
        return stderr

    @pytest.mark.parametrize("section, key, value", [
        ("hot_spots", "self_ns", _DELETE),
        ("hot_spots", "method", 7),
        ("hot_spots", "invocations", "1"),
        ("hot_spots", "invocations", 0),
        ("hot_spots", "self_ns", True),
        ("components", "tier", "cloud"),
        ("components", "self_ns", None),
        (None, "hot_spots", 5),
        (None, "hot_spots", ["row"]),
        (None, "components", _DELETE),
        (None, "user_count", "20"),
        (None, "label", _DELETE),
        ("hot_spots", "invocations", 2**96),
        ("components", "self_ns", 2**96),
        (None, "user_count", 2**96),
        (None, "user_count", -1),
    ], ids=["no-self_ns", "int-method", "str-invocations", "zero-invocations",
            "bool-self_ns", "unknown-tier", "null-self_ns", "int-hot_spots",
            "str-row", "no-components", "str-user_count", "no-label",
            "2**96-invocations", "2**96-component-self_ns", "2**96-user_count",
            "negative-user_count"])
    def test_bad_field(self, capsys, tmp_path, section, key, value):
        doc = json.loads(self.GOOD)
        target = doc if section is None else doc[section][0]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
        self.check(capsys, tmp_path, json.dumps(doc).encode())

    # a diff joins rows on these keys, so a repeated key would hide a row
    @pytest.mark.parametrize("section, message", [
        ("hot_spots", "hot_spots[1]: duplicate method 'm'"),
        ("components", "components[1]: duplicate component 'm', tier 'other'"),
    ], ids=["hot_spots", "components"])
    def test_duplicate_row(self, capsys, tmp_path, section, message):
        doc = json.loads(self.GOOD)
        doc[section].append(dict(doc[section][0]))
        stderr = self.check(capsys, tmp_path, json.dumps(doc).encode())
        assert stderr == f"error: {tmp_path / 'bad.json'}: {message}\n"

    def test_unknown_tier_names_the_row_and_the_tiers(self, capsys, tmp_path):
        doc = json.loads(self.GOOD)
        doc["components"][0]["tier"] = "bogus"
        stderr = self.check(capsys, tmp_path, json.dumps(doc).encode())
        assert stderr == (f"error: {tmp_path / 'bad.json'}: components[0]: unknown tier "
                          "'bogus' (expected web, business, dao, middleware, other)\n")

    # a snapshot names a tier in lower case only; the tier is checked with its
    # row, so a later row's defect is not the one reported
    @pytest.mark.parametrize("tier, later_defect", [("Web", False), ("bogus", True)],
                             ids=["case", "later-defect"])
    def test_first_defective_row_is_reported(self, capsys, tmp_path, tier, later_defect):
        doc = json.loads(self.GOOD)
        doc["components"][0]["tier"] = tier
        if later_defect:
            doc["components"].append({**doc["components"][0], "tier": "web", "self_ns": -1})
        stderr = self.check(capsys, tmp_path, json.dumps(doc).encode())
        assert stderr == (f"error: {tmp_path / 'bad.json'}: components[0]: unknown tier "
                          f"{tier!r} (expected web, business, dao, middleware, other)\n")

    @pytest.mark.parametrize("data", [b"{", b"[]", b"\xff{}"],
                             ids=["not-json", "not-an-object", "not-utf8"])
    def test_bad_document(self, capsys, tmp_path, data):
        self.check(capsys, tmp_path, data)

    def test_nested_1e5_deep(self, capsys, tmp_path):
        stderr = self.check(capsys, tmp_path,
                            b'{"hot_spots": ' + b"[" * 10**5 + b"]" * 10**5 + b"}")
        assert stderr.startswith(f"error: {tmp_path / 'bad.json'}: bad snapshot document: ")

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        # json.loads refuses it with a plain ValueError, whose advice is for Python code
        assert self.GOOD.count('"self_ns": 5,') == 2
        data = self.GOOD.replace('"self_ns": 5,', f'"self_ns": 1{"0" * 5000},', 1).encode()
        stderr = self.check(capsys, tmp_path, data)
        assert stderr == (f"error: {tmp_path / 'bad.json'}: bad snapshot document: Exceeds the "
                          "limit (4300 digits) for integer string conversion: value has 5001 "
                          "digits\n")

    def test_integer_of_2_96_names_the_row(self, capsys, tmp_path):
        doc = json.loads(self.GOOD)
        doc["hot_spots"][0]["self_ns"] = 10**400
        stderr = self.check(capsys, tmp_path, json.dumps(doc).encode())
        assert stderr == (f"error: {tmp_path / 'bad.json'}: "
                          "hot_spots[0]: 'self_ns' must be below 2**96\n")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_integers_below_2_96_render(self, capsys, tmp_path, fmt):
        doc = json.loads(self.GOOD)
        doc["hot_spots"][0].update(self_ns=2**96 - 1, invocations=1)
        doc["hot_spots"].append({"method": "n", "self_ns": 1, "invocations": 2**96 - 1})
        doc["components"][0].update(self_ns=2**96 - 1, invocations=2**96 - 1)
        good, big = tmp_path / "good.json", tmp_path / "big.json"
        good.write_text(self.GOOD, encoding="utf-8")
        big.write_text(json.dumps(doc), encoding="utf-8")
        for a, b in ((good, big), (big, good), (big, big)):
            code, stdout, stderr = run(capsys, "diff", str(a), str(b), "--format", fmt)
            assert (code, stderr) == (0, "") and stdout

    def test_snapshot_of_64_bit_times_diffs(self, capsys, tmp_path):
        trace, snap = tmp_path / "t.tsv", tmp_path / "s.json"
        trace.write_text("".join(f"{-2**63}\t{tid}\tE\ta\n{2**63 - 1}\t{tid}\tX\ta\n"
                                 for tid in range(64)), encoding="utf-8")
        assert run(capsys, "analyze", str(trace), "--snapshot-out", str(snap))[0] == 0
        for fmt in ("text", "csv", "json"):
            code, stdout, stderr = run(capsys, "diff", str(snap), str(snap), "--format", fmt)
            assert (code, stderr) == (0, "") and stdout

    def test_non_object_is_refused_before_the_rest_is_read(self, capsys, tmp_path):
        # a full read would fail on the last byte, which is not UTF-8
        good, bad = tmp_path / "good.json", tmp_path / "trace.tsv"
        good.write_text(self.GOOD, encoding="utf-8")
        bad.write_bytes(b"0\t1\tE\tm\n5\t1\tX\tm\n" * 10**4 + b"\xff")
        code, stdout, stderr = run(capsys, "diff", str(good), str(bad))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {bad}: not a cct-lens/snapshot@1 document\n"

    def test_gzip_is_refused_before_it_is_decoded(self, capsys, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "s.json.gz"
        good.write_text(self.GOOD, encoding="utf-8")
        bad.write_bytes(gzip.compress(self.GOOD.encode("utf-8")))
        code, stdout, stderr = run(capsys, "diff", str(good), str(bad))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {bad}: not a cct-lens/snapshot@1 document\n"


class TestCallgraph:
    def test_reference_edge(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "callgraph", str(fig8_trace))
        assert code == 0
        edge_line = next(
            line
            for line in stdout.splitlines()
            if line.startswith(wl.DAO_ADD_CANDIDATE_PROFILE)
            and wl.GET_CONNECTION in line
        )
        fields = edge_line.split("\t")
        assert fields[2] == "20"

    def test_single_call_trace(self, capsys, tmp_path):
        trace = tmp_path / "single.tsv"
        trace.write_text("0\t1\tE\tonly\n7\t1\tX\tonly\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "callgraph", str(trace))
        data = [line for line in stdout.splitlines() if line and not line.startswith("#")]
        assert len(data) == 1
        assert data[0].split("\t")[:2] == ["<root>", "only"]

    def test_folded_line_count(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "callgraph", str(fig8_trace), "--format", "folded")
        assert code == 0
        lines = [line for line in stdout.splitlines() if line]
        # distinct root paths in the merged tree: every line is unique
        assert len(lines) == len(set(line.rsplit(" ", 1)[0] for line in lines))
        assert any(line.startswith("org.apache.jsp.Register_jsp") for line in lines)

    def test_filters_apply(self, capsys, fig8_trace):
        code, stdout, _ = run(
            capsys, "callgraph", str(fig8_trace), "--exclude", "com.mycompany.hr.dao.*"
        )
        assert code == 0
        assert ".dao." not in stdout

    @pytest.mark.parametrize("fmt, excludes, mode, built", [
        ("edges", [], "attribute", {"ingest_call_graph": 1}),
        ("edges", ["com.mycompany.hr.dao.*"], "attribute", {"ingest_call_graph": 1}),
        ("edges", ["com.mycompany.hr.dao.*"], "drop", {"ingest_call_graph": 1}),
        ("folded", ["com.mycompany.hr.dao.*"], "drop", {"ingest_merged": 1, "apply_filter": 1}),
    ], ids=["edges", "edges-attribute", "edges-drop", "folded-drop"])
    def test_reads_once_and_builds_a_tree_only_for_folded(self, capsys, fig8_trace, monkeypatch,
                                                          fmt, excludes, mode, built):
        # the output of the tree path
        with open(fig8_trace, "rb") as fh:
            tree = apply_filter(cct.ingest_merged(text_lines(fh)),
                                FilterSet.from_patterns(excludes=excludes), mode)
        lines = (cct.edge_lines(cct.project_call_graph(tree)) if fmt == "edges"
                 else cct.folded_stacks(tree))
        want = "".join(f"{line}\n" for line in lines)
        flags = [arg for pattern in excludes for arg in ("--exclude", pattern)]
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        # every reader, and each step of the tree path
        for module, name in ((cct, "ingest"), (cct, "ingest_merged"), (cct, "ingest_call_graph"),
                             (snapshot, "ingest_totals"), (filters, "apply_filter"),
                             (cct, "project_call_graph")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, stdout, _ = run(capsys, "callgraph", str(fig8_trace), "--format", fmt, *flags,
                              "--filter-mode", mode)
        assert (code, stdout) == (0, want)
        assert calls == built

    @pytest.mark.parametrize("fmt", ["edges", "folded"])
    def test_bad_pattern_is_found_before_the_trace_is_read(self, capsys, tmp_path, fmt):
        # the trace leaves a frame open, an error of its own once it is read
        trace = tmp_path / "open.tsv"
        trace.write_text("0\t1\tE\ta\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "callgraph", str(trace), "--format", fmt,
                                   "--exclude", "a*b")
        assert (code, stdout) == (1, "")
        assert stderr == "error: '*' only allowed as the final character: 'a*b'\n"


def _spec(doc) -> bytes:
    return json.dumps(doc).encode()


def _snapshot_with(section: str, key: str, value, rows: int = 1) -> bytes:
    # a snapshot of one method, its one row of ``section`` repeated with ``key`` set
    doc = json.loads(dump_snapshot(take_snapshot("a", 1, b"0\t1\tE\tm\n5\t1\tX\tm\n")))
    doc[section] = [{**doc[section][0], key: value}] * rows
    return json.dumps(doc).encode()


LONG = "x" * 500_000
# the command with IN for the file of the given bytes, and the start of its quoted echo
ECHO_RUNS = {
    "spec-string-jitter": (("simulate", "--spec", "IN"),
                           _spec({"executions": {"login": 1}, "jitter": LONG}), "got 'x"),
    "spec-base_ns-key": (("simulate", "--spec", "IN"),
                         _spec({"executions": {"login": 1}, "base_ns": {LONG: "1"}}), "'x"),
    "spec-unknown-use-case": (("simulate", "--spec", "IN"),
                              _spec({"executions": {LONG: 1}}), "unknown use case 'x"),
    "spec-string-count": (("simulate", "--spec", "IN"),
                          _spec({"executions": {LONG: "1"}}), "execution count for 'x"),
    "catalog-unknown-tier": (("analyze", "TRACE", "--catalog", "IN"),
                             f"{LONG}\tC\tcom.*\n".encode(), "unknown tier 'x"),
    "catalog-star": (("analyze", "TRACE", "--catalog", "IN"),
                     f"dao\tC\tcom*{LONG}\n".encode(), "character: 'com*x"),
    "filter-star": (("analyze", "TRACE", "--exclude", f"a*{LONG}"), b"", "character: 'a*x"),
    "snapshot-tier": (("diff", "IN", "IN"), _snapshot_with("components", "tier", LONG),
                      "unknown tier 'x"),
    "snapshot-not-utf8": (("diff", "IN", "IN"),
                          _snapshot_with("hot_spots", "method", "\ud800" + LONG),
                          "got '\\ud800x"),
    "snapshot-duplicate-row": (("diff", "IN", "IN"),
                               _snapshot_with("hot_spots", "method", LONG, rows=2),
                               "duplicate method 'x"),
}


@pytest.mark.parametrize("name", ECHO_RUNS)
def test_quoted_inputs_are_cut(capsys, fig8_trace, tmp_path, name):
    # each error quotes a 500,000-character text of its input
    command, data, echo = ECHO_RUNS[name]
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = [{"IN": str(path), "TRACE": str(fig8_trace)}.get(arg, arg) for arg in command]
    code, _, stderr = run(capsys, *argv, "-o", os.devnull)
    assert code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1, stderr[:300]
    assert echo in stderr and "... (500" in stderr, stderr
    assert len(stderr.encode("utf-8")) < 1024


class TestExport:
    def test_cct_round_trip(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "export", str(fig8_trace), "--format", "cct")
        assert code == 0
        with open(fig8_trace, encoding="utf-8") as fh:
            assert decode_cct(stdout) == cct.merge_ccts(cct.ingest(fh))

    def test_forest_has_all_threads(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "export", str(fig8_trace), "--format", "forest")
        assert code == 0
        roots = decode_forest(stdout)
        assert list(roots) == [1, 2, 3, 4]
        with open(fig8_trace, encoding="utf-8") as fh:
            assert roots == cct.ingest(fh)

    def test_jsonl_preserves_event_count(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "export", str(fig8_trace), "--format", "jsonl")
        assert code == 0
        lines = [line for line in stdout.splitlines() if line]
        events = fig8_trace.read_text().count("\tE\t") + fig8_trace.read_text().count(
            "\tX\t"
        )
        assert len(lines) == events
        first = json.loads(lines[0])
        assert set(first) == {"ts", "tid", "ev", "m"}

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_jsonl_bad_line_keeps_the_lines_before_it(self, capsys, tmp_path, to_file):
        trace = tmp_path / "bad.tsv"
        trace.write_text("# c\n0\t1\tE\ta\n2\t1\tQ\ta\n3\t1\tX\ta\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = ["export", str(trace), "--format", "jsonl"] + (["-o", str(out)] if to_file else [])
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stderr == f"error: {trace}: line 3: bad event kind 'Q' (expected E or X)\n"
        written = out.read_text(encoding="utf-8") if to_file else stdout
        assert written == '{"ts": 0, "tid": 1, "ev": "E", "m": "a"}\n'

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_jsonl_bad_line_after_many_batches(self, capsys, tmp_path, to_file):
        good = [f"{ts}\t{ts % 3}\tE\tcom.example.C{ts % 7}.run()" for ts in range(2000)]
        trace = tmp_path / "bad.tsv"
        trace.write_text("\n".join(good + ["1\t1\tQ\ta"] + good) + "\n", encoding="utf-8")
        expected = "".join(line + "\n" for line in jsonl_lines(good))
        assert len(expected) > 2 * WRITE_BATCH
        out = tmp_path / "out.jsonl"
        argv = ["export", str(trace), "--format", "jsonl"] + (["-o", str(out)] if to_file else [])
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stderr) == (1, f"error: {trace}: line 2001: bad event kind 'Q' "
                                     "(expected E or X)\n")
        assert (out.read_text(encoding="utf-8") if to_file else stdout) == expected

    def test_jsonl_writes_in_batches(self, monkeypatch, fig8_trace):
        writes = []
        monkeypatch.setattr(sys, "stdout", CountingStream(writes))
        assert main(["export", str(fig8_trace), "--format", "jsonl"]) == 0
        with open(fig8_trace, encoding="utf-8") as fh:
            expected = "".join(line + "\n" for line in jsonl_lines(fh))
        assert "".join(writes) == expected
        assert len(writes) <= math.ceil(len(expected.encode()) / WRITE_BATCH) + 2

    def test_jsonl_refuses_to_overwrite_its_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.tsv"
        trace.write_text("0\t1\tE\ta\n1\t1\tX\ta\n", encoding="utf-8")
        code, _, stderr = run(capsys, "export", str(trace), "--format", "jsonl", "-o", str(trace))
        assert (code, stderr) == (1, f"error: {trace}: the output is the trace being read\n")
        assert trace.read_text(encoding="utf-8") == "0\t1\tE\ta\n1\t1\tX\ta\n"

    def test_folded_export(self, capsys, fig8_trace):
        code, stdout, _ = run(capsys, "export", str(fig8_trace), "--format", "folded")
        assert code == 0
        total = sum(int(line.rsplit(" ", 1)[1]) for line in stdout.splitlines() if line)
        assert total == 3_059_975_981


MERGED_VIEW_RUNS = [
    ("analyze",),
    ("analyze", "--format", "json", "--exclude", "com.mycompany.hr.dao.*"),
    ("analyze", "--snapshot-out", "SNAP"),
    ("callgraph",),
    ("callgraph", "--format", "folded"),
    ("export", "--format", "cct"),
    ("export", "--format", "folded"),
]


class TestTraceReader:
    def test_file_digest_and_forest(self, fig8_trace):
        # figure8's trace spans many of text_lines's 8 KiB reads
        sha256 = hashlib.sha256()
        with open(fig8_trace, "rb") as fh:
            roots = cct.ingest(text_lines(fh, sha256))
        assert sha256.hexdigest() == hashlib.sha256(fig8_trace.read_bytes()).hexdigest()
        with open(fig8_trace, encoding="utf-8") as fh:
            assert cct.serialize_forest(roots) == cct.serialize_forest(cct.ingest(fh))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteErrorNamesTheOutput:
    FULL = "[Errno 28] No space left on device"

    @pytest.mark.parametrize("argv", [
        ("analyze", "TRACE", "-o", "/dev/full"),
        ("analyze", "TRACE", "--snapshot-out", "/dev/full", "-o", os.devnull),
        ("simulate", "--preset", "figure8", "-o", "/dev/full"),
        ("export", "TRACE", "--format", "jsonl", "-o", "/dev/full"),
        # the tree JSON is written chunk by chunk
        ("export", "WIDE", "--format", "cct", "-o", "/dev/full"),
        ("export", "WIDE", "--format", "forest", "-o", "/dev/full"),
    ], ids=" ".join)
    def test_output_file(self, capsys, fig8_trace, wide_trace, argv):
        names = {"TRACE": fig8_trace, "WIDE": wide_trace}
        argv = [str(names.get(a, a)) for a in argv]
        code, _, stderr = run(capsys, *argv)
        assert (code, stderr) == (1, f"error: {self.FULL}: '/dev/full'\n")

    # a report shorter than the 8 KiB buffer is written only by the flush;
    # buffered, what the failed flush left would fail again at exit
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("export", "SHORT", "--format", "jsonl"),
        ("export", "TRACE", "--format", "jsonl"),
        ("simulate", "--preset", "figure8", "-o", "OUT"),  # the summary line
        ("export", "WIDE", "--format", "cct"),
        ("export", "WIDE", "--format", "forest"),
    ], ids=" ".join)
    def test_stdout(self, fig8_trace, wide_trace, tmp_path, unbuffered, argv):
        short = tmp_path / "short.tsv"
        short.write_text("0\t1\tE\ta\n5\t1\tX\ta\n", encoding="utf-8")
        names = {"SHORT": short, "TRACE": fig8_trace, "OUT": tmp_path / "out.tsv",
                 "WIDE": wide_trace}
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "cct_lens.cli",
                                   *(str(names.get(a, a)) for a in argv)],
                                  stdout=full, stderr=subprocess.PIPE, env=env, text=True)
        assert (done.returncode, done.stderr) == (1, f"error: {self.FULL}: '<stdout>'\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_stdout_write_leaves_no_descriptor_open(self):
        probe = ("import os, sys\n"
                 "from cct_lens.trace import write_lines\n"
                 "before = len(os.listdir('/proc/self/fd'))\n"
                 "try:\n"
                 "    write_lines(['x'])\n"
                 "except OSError:\n"
                 "    pass\n"
                 "print(len(os.listdir('/proc/self/fd')) - before, file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-c", probe], stdout=full,
                                  stderr=subprocess.PIPE, env=env, text=True)
        assert (done.returncode, done.stderr) == (0, "0\n")

    def test_broken_pipe(self, fig8_trace):
        # the jsonl lines fill more than a pipe's buffer after the first one
        env = {**os.environ, "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "cct_lens.cli", "export",
                                 str(fig8_trace), "--format", "jsonl"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, text=True)
        assert json.loads(proc.stdout.readline())["ts"] == 0
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (
            1, "error: [Errno 32] Broken pipe: '<stdout>'\n")


class TestOutputOverItsTrace:
    """Commands that read the whole trace before they open the output."""

    @pytest.fixture
    def defective(self, wide_trace, tmp_path):
        # an orphan exit on the last line: strict runs fail there, lenient ones warn
        path = tmp_path / "defective.tsv"
        path.write_bytes(wide_trace.read_bytes() + b"999999\t1\tX\tcom.example.C0.m()\n")
        return path

    @pytest.mark.parametrize("argv", [
        ("export", "--format", "cct"), ("export", "--format", "forest"),
        ("export", "--format", "folded"), ("callgraph", "--format", "folded"),
    ], ids=" ".join)
    def test_writes_over_it_what_another_output_gets(self, capsys, defective, tmp_path, argv):
        elsewhere = tmp_path / "elsewhere"
        name, *flags = argv
        code, stdout, stderr = run(capsys, name, str(defective), *flags, "--lenient",
                                   "-o", str(elsewhere))
        assert (code, stdout) == (0, "") and stderr.startswith("warning: tid 1, line ")
        assert run(capsys, name, str(defective), *flags, "--lenient",
                   "-o", str(defective)) == (0, "", stderr)
        assert defective.read_bytes() == elsewhere.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("export", "--format", "cct"), ("export", "--format", "forest"),
        ("export", "--format", "folded"), ("callgraph", "--format", "folded"),
        ("callgraph", "--format", "edges"), ("analyze",),
    ], ids=" ".join)
    def test_a_strict_trace_error_leaves_the_output_alone(self, capsys, defective, tmp_path,
                                                          argv):
        existing, missing = tmp_path / "existing", tmp_path / "missing"
        existing.write_bytes(b"kept\n")
        trace = defective.read_bytes()
        name, *flags = argv
        for out in (existing, missing, defective):
            code, stdout, stderr = run(capsys, name, str(defective), *flags, "-o", str(out))
            assert (code, stdout) == (1, "")
            assert stderr.startswith(f"error: {defective}: tid 1, line {6 * cct._CHUNK + 1}: ")
        assert existing.read_bytes() == b"kept\n" and not missing.exists()
        assert defective.read_bytes() == trace


class TestMergedViewBuildsNoPerThreadTrees:
    """Commands that show the merged view build it in the ingest pass."""

    @pytest.fixture
    def no_merge(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-thread trees built or merged")
        monkeypatch.setattr(cct, "ingest", refuse)
        monkeypatch.setattr(cct, "merge_ccts", refuse)

    @pytest.mark.parametrize("command", MERGED_VIEW_RUNS, ids=" ".join)
    def test_runs_without_merge(self, capsys, fig8_trace, tmp_path, no_merge, command):
        name, *flags = command
        argv = [str(tmp_path / "s.json") if f == "SNAP" else f for f in flags]
        code, stdout, stderr = run(capsys, name, str(fig8_trace), *argv)
        assert (code, stderr.startswith("error")) == (0, False)
        assert stdout

    def test_per_thread_snapshot_holds_the_same_merged_tables(self, capsys, fig8_trace,
                                                              tmp_path):
        plain, per_thread = tmp_path / "plain.json", tmp_path / "per_thread.json"
        common = ["analyze", str(fig8_trace), "--label", "x"]
        assert run(capsys, *common, "--snapshot-out", str(plain))[0] == 0
        code, stdout, _ = run(capsys, *common, "--per-thread", "--snapshot-out", str(per_thread))
        assert code == 0 and stdout.count("=== thread ") == 4
        assert per_thread.read_bytes() == plain.read_bytes()


UNDECODABLE_RUNS = [
    ("analyze",),
    ("analyze", "--snapshot-out", "SNAP"),
    ("callgraph",),
    ("callgraph", "--format", "folded"),
    ("export", "--format", "cct"),
    ("export", "--format", "forest"),
    ("export", "--format", "folded"),
    ("export", "--format", "jsonl"),
]


class TestUndecodableTrace:
    @pytest.mark.parametrize("command", UNDECODABLE_RUNS, ids=" ".join)
    def test_one_line_ending_in_bad_byte(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"0\t1\tE\tm\xff")
        self.check(capsys, tmp_path, command, path, 1)

    @pytest.mark.parametrize("command", UNDECODABLE_RUNS, ids=" ".join)
    def test_bad_byte_on_line_3_after_more_than_8_kib(self, capsys, tmp_path, command):
        # the comment's \r\n straddles a 64 KiB boundary, where reads split the file
        comment = b"#" + b"x" * (2**16 - 2) + b"\r\n"
        path = tmp_path / "bad.tsv"
        path.write_bytes(comment + b"0\t1\tE\ta\n1\t1\tX\ta\xff\n")
        self.check(capsys, tmp_path, command, path, 3)

    def check(self, capsys, tmp_path, command, path, line):
        name, *flags = command
        snap = tmp_path / "s.json"
        argv = [str(snap) if f == "SNAP" else f for f in flags]
        code, stdout, stderr = run(capsys, name, str(path), *argv)
        assert code == 1
        assert stdout == ""
        assert stderr == (f"error: {path}: line {line}: byte 0xff is not UTF-8 "
                          "(invalid start byte)\n")
        assert not snap.exists()


class TestBadTraceNamesTheFile:
    @pytest.mark.parametrize("command", UNDECODABLE_RUNS, ids=" ".join)
    def test_parse_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\tE\ta\n1\t1\tQ\ta\n", encoding="utf-8")
        self.check(capsys, tmp_path, command, path,
                   "line 2: bad event kind 'Q' (expected E or X)")

    # export --format jsonl checks only the line grammar
    @pytest.mark.parametrize("command", UNDECODABLE_RUNS[:-1], ids=" ".join)
    def test_structure_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\tE\ta\n1\t1\tX\tb\n", encoding="utf-8")
        self.check(capsys, tmp_path, command, path,
                   "tid 1, line 2: mismatched exit: got b, innermost open frame is a")

    # timestamps must fit in signed 64 bits: every command, strict or lenient,
    # names the line; jsonl export is checked below
    @pytest.mark.parametrize("command", UNDECODABLE_RUNS[:-1] + [
        ("analyze", "--format", "csv"), ("analyze", "--format", "json")], ids=" ".join)
    def test_timestamp_outside_64_bits(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tsv"
        name, *flags = command
        argv = [str(tmp_path / "s.json") if f == "SNAP" else f for f in flags]
        for first, second, line in [(0, 10**400, 2), (-2**63 - 1, 0, 1), (0, 2**63, 2)]:
            path.write_text(f"{first}\t1\tE\ta.b()\n{second}\t1\tX\ta.b()\n",
                            encoding="utf-8")
            for lenient in [[], ["--lenient"]]:
                code, stdout, stderr = run(capsys, name, str(path), *argv, *lenient)
                assert (code, stdout, stderr) == (1, "", f"error: {path}: tid 1, line {line}: "
                                                         "timestamp outside the signed 64-bit range\n")
                assert not (tmp_path / "s.json").exists()

    # jsonl export writes the events before the bad line
    @pytest.mark.parametrize("first, second, line", [
        (0, 10**400, 2), (-2**63 - 1, 0, 1), (0, 2**63, 2),
    ], ids=["10**400-on-line-2", "-2**63-1-on-line-1", "2**63-on-line-2"])
    def test_jsonl_timestamp_outside_64_bits(self, capsys, tmp_path, first, second, line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{first}\t1\tE\ta.b()\n{second}\t1\tX\ta.b()\n", encoding="utf-8")
        for lenient in [[], ["--lenient"]]:
            code, stdout, stderr = run(capsys, "export", str(path), "--format", "jsonl", *lenient)
            assert (code, stderr) == (
                1, f"error: {path}: tid 1, line {line}: timestamp outside the signed 64-bit range\n")
            assert stdout == ('{"ts": %d, "tid": 1, "ev": "E", "m": "a.b()"}\n' % first
                              if line == 2 else "")

    @pytest.mark.parametrize("command", [
        ("analyze",), ("analyze", "--lenient"), ("callgraph", "--lenient"),
        ("export", "--format", "forest", "--lenient")], ids=" ".join)
    def test_timestamp_outside_64_bits_before_a_defect(self, capsys, tmp_path, command):
        # refused on its line, before the mismatched exit after it: no warning
        path = tmp_path / "bad.tsv"
        path.write_text(f"0\t1\tE\ta\n{2**63}\t1\tE\tb\n{2**63}\t1\tX\ta\n",
                        encoding="utf-8")
        self.check(capsys, tmp_path, command, path,
                   "tid 1, line 2: timestamp outside the signed 64-bit range")

    def test_regression_below_64_bits(self, capsys, tmp_path):
        # strict, lenient and jsonl export refuse it with one message
        path = tmp_path / "bad.tsv"
        path.write_text(f"0\t1\tE\ta\n{-10**23}\t1\tX\ta\n", encoding="utf-8")
        for command in [("analyze",), ("analyze", "--lenient"), ("export", "--format", "jsonl")]:
            self.check(capsys, tmp_path, command, path,
                       "tid 1, line 2: timestamp outside the signed 64-bit range")

    def check(self, capsys, tmp_path, command, path, message):
        name, *flags = command
        argv = [str(tmp_path / "s.json") if f == "SNAP" else f for f in flags]
        code, _, stderr = run(capsys, name, str(path), *argv)
        assert (code, stderr) == (1, f"error: {path}: {message}\n")


class TestUndecodableInputFile:
    """Catalogs, specs and snapshots name the file and the line of a byte that is not UTF-8."""

    def test_catalog(self, capsys, fig8_trace, tmp_path):
        cat = tmp_path / "badcat.tsv"
        cat.write_bytes(b"# tier\tcomponent\tpattern\ndao\tD\xff\t*\n")
        code, stdout, stderr = run(capsys, "analyze", str(fig8_trace), "--catalog", str(cat))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {cat}: line 2: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_bytes(b'{\n"executions": {"login\xff": 1}}\n')
        code, stdout, stderr = run(capsys, "simulate", "--spec", str(spec))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {spec}: line 2: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_snapshot(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(dump_snapshot(take_snapshot("a", 1, b"0\t1\tE\ta\n1\t1\tX\ta\n")),
                        encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_bytes(good.read_bytes().replace(b'"a"', b'"a\xff"', 1))
        line = good.read_text(encoding="utf-8").splitlines().index('  "label": "a",') + 1
        code, stdout, stderr = run(capsys, "diff", str(good), str(bad))
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: {bad}: line {line}: byte 0xff is not UTF-8 "
                          "(invalid start byte)\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
class TestUndecodablePipe:
    """A pipe is read once, so the line of a byte that is not UTF-8 is found
    as it is read: no second read finds the pipe empty."""

    TRACE = b"0\t1\tE\ta\n1\t1\tX\ta\n2\t1\tE\t\xff\n"

    def check(self, capsys, data: bytes, argv):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            code, stdout, stderr = run(capsys, *(path if a == "PIPE" else a for a in argv))
        finally:
            os.close(read_end)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {path}: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("command", [("analyze",), ("export", "--format", "jsonl")],
                             ids=" ".join)
    def test_trace(self, capsys, command):
        self.check(capsys, self.TRACE, [command[0], "PIPE", *command[1:]])

    def test_catalog(self, capsys, fig8_trace):
        data = b"# tier\tcomponent\tpattern\ndao\tD\t*.dao.*\nweb\tW\xff\t*\n"
        self.check(capsys, data, ["analyze", str(fig8_trace), "--catalog", "PIPE"])

    def test_spec(self, capsys):
        self.check(capsys, b'{\n"seed": 0,\n"executions": {"login\xff": 1}}\n',
                   ["simulate", "--spec", "PIPE"])

    def test_snapshot(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(dump_snapshot(take_snapshot("a", 1, b"0\t1\tE\ta\n1\t1\tX\ta\n")),
                        encoding="utf-8")
        # the label is on line 3
        data = good.read_bytes().replace(b'"a"', b'"a\xff"', 1)
        self.check(capsys, data, ["diff", str(good), "PIPE"])


class TestDeepChain:
    # one thread, 10^4 nested calls cycling through m0, m1 and m2, then a leaf
    METHODS = [f"m{i % 3}" for i in range(10**4 - 1)] + ["leaf"]

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        methods = self.METHODS
        lines = [f"{ts}\t1\tE\t{m}" for ts, m in enumerate(methods)]
        lines += [f"{len(methods) + ts}\t1\tX\t{m}" for ts, m in enumerate(reversed(methods))]
        path = tmp_path_factory.mktemp("deep") / "deep.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    # attribute mode splices every third level; drop mode goes down to the leaf
    @pytest.mark.parametrize("excluded, flags", [
        ("m1", ("analyze", "--filter-mode", "attribute")),
        ("leaf", ("analyze", "--filter-mode", "drop")),
        ("m1", ("analyze", "--per-thread")),
        ("leaf", ("analyze", "--per-thread", "--filter-mode", "drop")),
        # merge_ccts over the per-thread trees, then the filter
        ("m1", ("analyze", "--per-thread", "--snapshot-out", os.devnull)),
        ("m1", ("callgraph", "--format", "edges")),
        ("m1", ("callgraph", "--format", "folded")),
    ], ids=lambda p: " ".join(p) if isinstance(p, tuple) else p)
    def test_filtered_runs_succeed(self, capsys, chain, excluded, flags):
        name, *rest = flags
        code, stdout, stderr = run(capsys, name, str(chain), "--exclude", excluded, *rest)
        written = f"snapshot written to {os.devnull}\n" if "--snapshot-out" in rest else ""
        assert (code, stderr) == (0, written)
        assert stdout and excluded not in stdout

    def tree_json(self, root: str) -> str:
        # the call at depth d enters at d and leaves at 19999 - d
        opened = [f'{{"m":"{root}","inv":1,"ns":19999']
        opened += [f',"ch":[{{"m":"{m}","inv":1,"ns":{19999 - 2 * d}'
                   for d, m in enumerate(self.METHODS)]
        return "".join(opened) + "}" + "]}" * len(self.METHODS)

    @pytest.mark.parametrize("fmt", ["cct", "forest"])
    def test_tree_export(self, capsys, chain, fmt):
        code, stdout, stderr = run(capsys, "export", str(chain), "--format", fmt)
        assert (code, stderr) == (0, "")
        if fmt == "cct":
            expected = '{"format":"cct-lens/cct@1","tree":' + self.tree_json("<root>") + "}"
        else:
            expected = ('{"format":"cct-lens/forest@1","threads":{"1":'
                        + self.tree_json("<root:1>") + "}}")
        assert stdout == expected + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unfiltered_analyze(self, capsys, chain, fmt):
        code, stdout, stderr = run(capsys, "analyze", str(chain), "--format", fmt)
        assert (code, stderr) == (0, "")
        if fmt == "json":
            rows = json.loads(stdout)["hot_spots"]
        else:
            # the hot-spot block runs from its header to the next comment line
            block = stdout.split("# hot spots\n", 1)[1].split("\n#", 1)[0]
            rows = list(csv.DictReader(io.StringIO(block)))
        hot = {r["method"]: (int(r["self_ns"]), int(r["invocations"])) for r in rows}
        # each of the 3333 calls of m0, m1 and m2 holds 2 ns itself, the leaf 1 ns
        assert hot == {"m0": (6666, 3333), "m1": (6666, 3333), "m2": (6666, 3333),
                       "leaf": (1, 1)}

    def test_snapshots_and_diff(self, capsys, chain, tmp_path):
        plain, per_thread = tmp_path / "plain.json", tmp_path / "per_thread.json"
        for flags, path in (((), plain), (("--per-thread",), per_thread)):
            code, _, stderr = run(capsys, "analyze", str(chain), *flags, "--snapshot-out",
                                  str(path), "-o", os.devnull)
            assert (code, stderr) == (0, f"snapshot written to {path}\n")
        assert per_thread.read_bytes() == plain.read_bytes()
        code, stdout, stderr = run(capsys, "diff", str(plain), str(per_thread), "--format", "json")
        assert (code, stderr) == (0, "")
        rows = json.loads(stdout)["rows"]
        assert sorted(row["method"] for row in rows) == ["leaf", "m0", "m1", "m2"]
        assert all(row["ratio"] == 1.0 for row in rows)

    def test_jsonl_export(self, capsys, chain):
        code, stdout, stderr = run(capsys, "export", str(chain), "--format", "jsonl")
        assert (code, stderr) == (0, "")
        lines = stdout.splitlines()
        assert len(lines) == 2 * 10**4
        assert json.loads(lines[0]) == {"ts": 0, "tid": 1, "ev": "E", "m": "m0"}
        assert json.loads(lines[-1]) == {"ts": 19999, "tid": 1, "ev": "X", "m": "m0"}

    def test_folded_lines_stream(self, chain):
        # the chain's folded lines hold about 150 MB of text in all
        base = peak_traced_mib("analyze", str(chain), "-o", os.devnull)
        for command in ("export", "callgraph"):
            peak = peak_traced_mib(command, str(chain), "--format", "folded", "-o", os.devnull)
            assert peak < base + 16


class TestManyMethods:
    """Reports of 20k distinct methods, each entered and left once."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        lines = []
        for i in range(20_000):
            method = f"com.example.C{i % 64}.m{i}()"
            lines += [f"{2 * i}\t1\tE\t{method}", f"{2 * i + 1}\t1\tX\t{method}"]
        path = tmp_path_factory.mktemp("many") / "many.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_json_rows_stream(self, trace):
        # the JSON rows are written as they are made, as the text lines are
        text = peak_traced_mib("analyze", str(trace), "-o", os.devnull)
        json_peak = peak_traced_mib("analyze", str(trace), "--format", "json", "-o", os.devnull)
        assert json_peak < 1.25 * text


class TestTopLevel:
    def test_no_args_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_version_like_import(self):
        assert cct_lens.__version__

    @staticmethod
    def loaded(imports: str) -> set[str]:
        """The modules a fresh interpreter has loaded after ``import sys{imports}``."""
        env = {**os.environ, "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
        probe = f"import sys{imports}; print(*sys.modules)"
        return set(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                  capture_output=True, text=True).stdout.split())

    def test_cli_import_loads_no_command_specific_module(self):
        # every run pays for what importing the CLI loads
        extra = self.loaded(", cct_lens.cli") - self.loaded("")
        assert "cct_lens.cli" in extra
        assert extra & {"dataclasses", "inspect", "hashlib", "cct_lens.workload",
                        "cct_lens.cct"} == set()

    @pytest.mark.parametrize("command", [
        ("simulate", "--preset", "figure8"), ("diff", "SNAP", "SNAP"),
        ("export", "TRACE", "--format", "jsonl"),
    ], ids=" ".join)
    def test_commands_without_trees_load_no_tree_module(self, fig8_trace, tmp_path, command):
        snap = tmp_path / "s.json"
        snap.write_text(dump_snapshot(take_snapshot("a", 1, fig8_trace.read_bytes())),
                        encoding="utf-8")
        argv = [{"TRACE": str(fig8_trace), "SNAP": str(snap)}.get(arg, arg) for arg in command]
        modules = self.loaded(f"; from cct_lens.cli import main; "
                              f"assert main({[*argv, '-o', os.devnull]!r}) == 0")
        assert "cct_lens.cli" in modules and "cct_lens.cct" not in modules

    @pytest.mark.parametrize("command", [
        ("analyze",), ("analyze", "--per-thread"), ("callgraph",),
        ("export", "--format", "cct"), ("export", "--format", "forest"),
        ("export", "--format", "folded"), ("export", "--format", "jsonl"),
    ], ids=" ".join)
    def test_trace_commands_load_no_hashlib(self, fig8_trace, command):
        # hashlib costs about 3 MiB of peak memory; only digests need it
        name, *flags = command
        argv = [name, str(fig8_trace), *flags, "-o", os.devnull]
        modules = self.loaded(f"; from cct_lens.cli import main; assert main({argv!r}) == 0")
        assert "cct_lens.cli" in modules and "hashlib" not in modules

    @pytest.mark.parametrize("command", [
        ("simulate", "--preset", "figure8"), ("callgraph", "TRACE"),
        ("callgraph", "TRACE", "--format", "folded"),
        ("export", "TRACE", "--format", "cct"), ("export", "TRACE", "--format", "forest"),
        ("export", "TRACE", "--format", "folded"), ("export", "TRACE", "--format", "jsonl"),
    ], ids=" ".join)
    def test_commands_without_tables_load_no_report_module(self, fig8_trace, command):
        # only analyze and diff tabulate, format numbers or write CSV
        argv = [str(fig8_trace) if arg == "TRACE" else arg for arg in command]
        modules = self.loaded(f"; from cct_lens.cli import main; "
                              f"assert main({[*argv, '-o', os.devnull]!r}) == 0")
        assert "cct_lens.cli" in modules
        assert modules & {"cct_lens.report", "cct_lens.snapshot", "cct_lens.components",
                          "cct_lens.metrics", "fractions", "decimal", "csv"} == set()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_diff_loads_only_the_snapshot_reader(self, fig8_trace, tmp_path, fmt):
        # diff reads checked integers: no trees, filters, typed rows or fractions
        snap = tmp_path / "s.json"
        snap.write_text(dump_snapshot(take_snapshot("a", 1, fig8_trace.read_bytes())),
                        encoding="utf-8")
        argv = ["diff", str(snap), str(snap), "--format", fmt, "-o", os.devnull]
        modules = self.loaded(f"; from cct_lens.cli import main; assert main({argv!r}) == 0")
        assert "cct_lens.compare" in modules
        assert modules & {"cct_lens.cct", "cct_lens.loop", "cct_lens.filters",
                          "cct_lens.components", "cct_lens.report", "cct_lens.snapshot",
                          "cct_lens.metrics", "fractions", "decimal"} == set()
        assert ("csv" in modules) == (fmt == "csv")

    @pytest.mark.parametrize("command", [
        (), ("simulate", "--preset", "figure8"), ("export", "TRACE", "--format", "jsonl"),
    ], ids=lambda command: " ".join(command) or "import")
    def test_commands_without_filters_load_no_filter_module(self, fig8_trace, command):
        # the parser needs only the filter-mode names, which live in trace
        argv = [str(fig8_trace) if arg == "TRACE" else arg for arg in command]
        run = f"; assert main({[*argv, '-o', os.devnull]!r}) == 0" if command else ""
        modules = self.loaded(f"; from cct_lens.cli import main{run}")
        assert "cct_lens.cli" in modules and "cct_lens.filters" not in modules

    def test_analyze_loads_no_tree_module_and_no_csv(self, fig8_trace):
        # analyze runs the ingest loop, which lives apart from the trees
        argv = ["analyze", str(fig8_trace), "-o", os.devnull]
        modules = self.loaded(f"; from cct_lens.cli import main; assert main({argv!r}) == 0")
        assert "cct_lens.loop" in modules
        assert modules & {"cct_lens.cct", "csv"} == set()

    def test_workload_import_loads_no_analysis_module(self):
        # simulate and both scripts load the simulator; none of it analyzes
        ours = {m for m in self.loaded(", cct_lens.workload") if m.startswith("cct_lens")}
        assert ours == {"cct_lens", "cct_lens.trace", "cct_lens.workload"}


class TestCyclicCollector:
    """Each command runs with the cyclic collector off; the caller's setting
    comes back however the command ends."""

    @pytest.fixture(autouse=True)
    def collecting(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    def test_off_while_a_command_runs(self, capsys, monkeypatch, fig8_trace):
        seen = []
        tabulate = snapshot.tabulate
        monkeypatch.setattr(snapshot, "tabulate",
                            lambda *a: seen.append(gc.isenabled()) or tabulate(*a))
        assert run(capsys, "analyze", str(fig8_trace))[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_off_in_the_warn_callback(self, capsys, monkeypatch, tmp_path):
        trace = tmp_path / "trunc.tsv"
        trace.write_text("0\t1\tE\ta\n5\t1\tE\tb\n", encoding="utf-8")
        seen = []
        monkeypatch.setattr(cli, "_warn", lambda message: seen.append(gc.isenabled()))
        assert run(capsys, "callgraph", str(trace), "--lenient")[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_on_after_an_error_exit(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "analyze", str(tmp_path / "missing.tsv"))
        assert code == 1 and stderr.startswith("error: ")
        assert gc.isenabled()

    def test_on_after_an_unexpected_exception(self, capsys, monkeypatch, fig8_trace):
        def boom(*args):
            raise RuntimeError("boom")
        monkeypatch.setattr(snapshot, "tabulate", boom)
        with pytest.raises(RuntimeError):
            main(["analyze", str(fig8_trace)])
        assert gc.isenabled()

    def test_stays_off_when_the_caller_had_it_off(self, capsys, fig8_trace, tmp_path):
        gc.disable()
        assert run(capsys, "analyze", str(fig8_trace))[0] == 0
        assert run(capsys, "analyze", str(tmp_path / "missing.tsv"))[0] == 1
        assert not gc.isenabled()

    @pytest.fixture(scope="class")
    def tenfold_trace(self, fig8_trace, tmp_path_factory):
        """figure8 with distinct one-frame methods on 50 more threads,
        ten times as many lines in all."""
        lines = fig8_trace.read_text(encoding="utf-8").splitlines()
        for i in range(9 * len(lines) // 2):
            tid, method = 1000 + i % 50, f"pkg.C{i}.m()"
            lines += [f"{i}\t{tid}\tE\t{method}", f"{i + 1}\t{tid}\tX\t{method}"]
        path = tmp_path_factory.mktemp("traces") / "tenfold.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", [
        ("analyze",), ("callgraph",), ("export", "--format", "forest"),
    ], ids=" ".join)
    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, fig8_trace,
                                                          tenfold_trace, command):
        # trees, tables and reports make no cycles: what is left is argparse's
        name, *flags = command
        found = []
        for trace in (fig8_trace, tenfold_trace):
            gc.collect()
            assert main([name, str(trace), *flags, "-o", os.devnull]) == 0
            found.append(gc.collect())
        assert found[0] == found[1]
