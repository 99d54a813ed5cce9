"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "record.json"
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "0.3",
                           "--out", str(out), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text())


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_reports_every_metric_and_passes_every_check(tmp_path, trace, section):
    result, records = run_bench(tmp_path, "--workload", "all", "--trace", trace)
    assert result["correct"], [r["problems"] for r in records.values()]
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        record = records[workload["name"]]
        assert record["failed_frac"] == 0
        for metric in SPEC[section]:
            value, unit = record["metrics"][metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert value >= 0, metric["name"]
        if trace == "1":
            assert record["span_tree"] and record["tracing_overhead_s"] is not None


def test_same_seed_gives_same_digests_and_another_seed_other_inputs(tmp_path):
    args = ("--workload", "all", "--trace", "0")
    _, first = run_bench(tmp_path, "--seed", "5", *args)
    _, again = run_bench(tmp_path, "--seed", "5", *args)
    _, other = run_bench(tmp_path, "--seed", "6", *args)
    for name in first:
        assert first[name]["digests"] == again[name]["digests"]
        assert first[name]["digests"] != other[name]["digests"]
        assert first[name]["provenance"]["events"] == other[name]["provenance"]["events"]


def test_generators_are_pure_functions_of_seed_and_size(tmp_path):
    for write, size in ((inputs.write_wide_tree, 640), (inputs.write_lenient_trace, 2000)):
        a, b, c = (tmp_path / f"{write.__name__}{i}" for i in range(3))
        info = write(a, 1, size)
        assert write(b, 1, size) == info
        assert a.read_bytes() == b.read_bytes()
        assert write(c, 2, size)["events"] == info["events"]
        assert a.read_bytes() != c.read_bytes()
    replay = oracle.Replay(tmp_path / "write_wide_tree0")
    assert (replay.contexts, replay.threads) == (640, 4)
    assert replay.max_depth < 100


def test_lenient_replay_applies_each_repair_rule(tmp_path):
    trace = tmp_path / "t.tsv"
    trace.write_text("\n".join([
        "# comment",
        "-10\t1\tX\ta",   # orphan exit
        "-5\t1\tE\ta",
        "-3\t1\tE\tb",
        "-4\t1\tX\tb",    # regression: clamped to -3
        "-2\t1\tX\tc",    # mismatched exit: innermost is a
        "0\t1\tE\tc",     # a and c left open, closed at 0
    ]) + "\n")
    with pytest.raises(oracle.OracleError):
        oracle.Replay(trace)
    replay = oracle.Replay(trace, lenient=True)
    assert replay.repairs == {oracle.ORPHAN: 1, oracle.MISMATCH: 1, oracle.REGRESSION: 1,
                              oracle.OPEN: 1}
    assert replay.methods == {"a": [5, 5, 1], "b": [0, 0, 1], "c": [0, 0, 1]}
    assert sorted(replay.method[c] for c, t in enumerate(replay.truncated) if t) == ["a", "c"]
    assert replay.conservation_problems() == []


def test_checks_report_wrong_outputs(tmp_path):
    trace = tmp_path / "t.tsv"
    trace.write_text("0\t1\tE\tp.a\n1\t1\tE\tq.b\n4\t1\tX\tq.b\n9\t1\tX\tp.a\n")
    replay = oracle.Replay(trace, exclude="q.")
    edges = [("<root>", "p.a", 1, 9), ("p.a", "q.b", 1, 3)]
    assert oracle.check_edges(edges, replay) == []
    assert oracle.check_edges([edges[0], ("p.a", "q.b", 2, 3)], replay)
    assert oracle.check_folded("p.a 6\np.a;q.b 3", replay) == []
    assert oracle.check_folded("p.a 6\np.a;q.b 4", replay)
    assert oracle.check_folded("p.a 6", replay)
    filtered = {"hot_spots": [{"method": "p.a", "self_ns": 9, "invocations": 1}],
                "total_time": [{"method": "p.a", "total_ns": 9, "invocations": 1}],
                "components": [{"self_ns": 9, "invocations": 1}]}
    assert oracle.check_analyze_json(json.dumps(filtered), replay) == []
    filtered["hot_spots"][0]["self_ns"] = 6
    assert oracle.check_analyze_json(json.dumps(filtered), replay)
    jsonl = ['{"ts": 0, "tid": 1, "ev": "E", "m": "p.a"}',
             '{"ts": 1, "tid": 1, "ev": "E", "m": "q.b"}',
             '{"ts": 4, "tid": 1, "ev": "X", "m": "q.b"}',
             '{"ts": 9, "tid": 1, "ev": "X", "m": "p.a"}']
    assert oracle.check_jsonl(jsonl, trace) == []
    assert oracle.check_jsonl(jsonl[:3], trace)
    assert oracle.check_jsonl(jsonl + jsonl[:1], trace)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "portal_ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
