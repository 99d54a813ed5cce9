"""Peak memory depends on the calling contexts, never on the event count,
and that of ``analyze`` not even on the contexts.

Every command that reads a trace runs in its own interpreter on two traces
with the same calling contexts, one with ten times the events of the other;
their peak RSS (``ru_maxrss`` from ``os.wait4``) must agree within 1 MiB.
So must their peaks on two traces of one line each, one ten times as long
as the other and both over ``trace.LINE_CAP``, which every command refuses.
Every ``analyze`` variant adds up per-method sums, and ``callgraph`` (its
``edges``) per-edge sums, as frames close, so their peaks on two traces
with the same method names and events, one with ten times the distinct
contexts of the other, must agree within 1 MiB too.  ``callgraph --format
folded`` and ``export`` still build trees, so they are left out there.  But
``export --format cct`` and ``forest`` write a tree's JSON in chunks as they
walk it, so on one thread's tree of some 20,000 contexts each must peak
within 1 MiB of ``export --format folded``, which streams the same tree's
lines.

A tree, and the call graph's sums, hold one string per method name, so in
process, under ``tracemalloc``, the peaks of ``ingest``, ``ingest_merged`` and
``ingest_call_graph`` on two traces with the same 20,482 contexts over 30
names, one with names of 10 characters and one of 2,000, must agree within
1 MiB too.  When each context copied its name they were some 40 MB apart.

Linux starts a new process's ``ru_maxrss`` from the peak RSS of the process
that spawned it, which for the test process is far above a command's, so a
small launcher interpreter spawns each command and reports its figures.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator

import cct_lens
from cct_lens import cct
from cct_lens import workload as wl
from cct_lens.trace import LINE_CAP, write_lines

COMMANDS = [
    ("analyze",), ("analyze", "--format", "json"), ("analyze", "--per-thread"),
    ("analyze", "--snapshot-out", os.devnull), ("analyze", "--exclude", "com.mycompany.hr.dao.*"),
    ("callgraph",), ("callgraph", "--format", "folded"),
    ("export", "--format", "cct"), ("export", "--format", "forest"),
    ("export", "--format", "folded"), ("export", "--format", "jsonl"),
]
# the slack between two runs of one command on one input is far below this
TOLERANCE_MIB = 1.0
# run each argv of the JSON list argv[1]; print a JSON list of its exit code,
# its ru_maxrss in KiB and the lines of its stderr that start with "error:"
LAUNCHER = """if 1:
    import json, os, subprocess, sys
    for argv in json.loads(sys.argv[1]):
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        errors = [line for line in proc.stderr if line.startswith("error:")]
        _, status, usage = os.wait4(proc.pid, 0)
        print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, errors]))
"""


def write_portal(path: Path, n: int) -> None:
    spec = wl.load_workload_spec(json.dumps(
        {"executions": {"register": n, "login": n}, "thread_count": 4, "jitter": 0.1}))
    write_lines(wl.simulate_lines(spec), path)


def write_defective(path: Path, blocks: int) -> None:
    # each block holds a mismatched exit and an orphan exit, which --lenient drops
    write_lines((line for i in range(0, 4 * blocks, 4) for line in (
        f"{i}\t1\tE\ta.B.m()", f"{i + 1}\t1\tX\ta.B.x()",
        f"{i + 2}\t1\tX\ta.B.m()", f"{i + 3}\t1\tX\ta.B.y()")), path)


def write_contexts(path: Path, contexts: int, threads: int = 4) -> None:
    # 20,000 paths of three calls over the same 30 method names, a third of
    # them DAO methods, on ``threads`` threads: each of the first ``contexts``
    # paths taken 20,000 // contexts times
    names = [f"com.mycompany.hr.{'dao' if i % 3 == 0 else 'svc'}.C{i}.m()" for i in range(30)]
    lines = []
    for k in range(20_000):
        context = k % contexts
        stack = [names[context // 900 % 30], names[context // 30 % 30], names[context % 30]]
        ts, tid = 10 * k, k % threads
        lines += [f"{ts + i}\t{tid}\tE\t{name}" for i, name in enumerate(stack)]
        lines += [f"{ts + 5 + i}\t{tid}\tX\t{name}" for i, name in enumerate(reversed(stack))]
    write_lines(lines, path)


def name_lines(length: int) -> Iterator[str]:
    # 30 names of ``length`` characters; each of the first 22, on thread
    # 1 to 4, calls every name once, which calls every name once: 20,482
    # contexts in 40,964 lines, a third of write_contexts's, since
    # tracemalloc slows every allocation; each line made as it is read
    names = [f"C{i:02d}".ljust(length, "x") for i in range(30)]
    ts = 0
    for i, top in enumerate(names[:22]):
        tid = 1 + i % 4
        yield f"{ts}\t{tid}\tE\t{top}"
        for caller in names:
            yield f"{ts}\t{tid}\tE\t{caller}"
            for name in names:
                ts += 1
                yield f"{ts}\t{tid}\tE\t{name}"
                yield f"{ts}\t{tid}\tX\t{name}"
            yield f"{ts}\t{tid}\tX\t{caller}"
        yield f"{ts}\t{tid}\tX\t{top}"


def peak_rss_mib(argvs: list[list[str]]) -> list[tuple[int, float, list[str]]]:
    """The exit code, the peak RSS in MiB and the ``error:`` lines of one CLI
    run per argv, each with its output discarded."""
    env = {**os.environ, "PYTHONPATH": str(Path(cct_lens.__file__).resolve().parents[1])}
    runs = [[sys.executable, "-m", "cct_lens.cli", *argv, "-o", os.devnull] for argv in argvs]
    out = subprocess.run([sys.executable, "-c", LAUNCHER, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return [(code, kib / 1024, errors) for code, kib, errors in map(json.loads, out.splitlines())]


def test_peak_rss_does_not_grow_with_the_event_count(tmp_path):
    # about 1.2 MB and 12 MB of portal trace; 0.35 MB and 3.7 MB of defects
    pairs = {}
    for name, write, n, flags in (("portal", write_portal, 200, ()),
                                  ("defective", write_defective, 5000, ("--lenient",))):
        paths = tmp_path / f"{name}.tsv", tmp_path / f"{name}_10x.tsv"
        write(paths[0], n)
        write(paths[1], 10 * n)
        pairs[name] = paths, flags
    runs = [(name, command, [[command[0], str(path), *command[1:], *flags] for path in paths])
            for name, (paths, flags) in pairs.items() for command in COMMANDS]

    def measure(run):
        name, command, argvs = run
        return name, command, peak_rss_mib(argvs)

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(measure, runs))
    assert all(code == 0 for _, _, sides in results for code, _, _ in sides), results
    grown = [(name, " ".join(command), small, big)
             for name, command, ((_, small, _), (_, big, _)) in results
             if abs(big - small) > TOLERANCE_MIB]
    assert grown == [], grown


def test_a_line_over_the_cap_is_refused_in_bounded_memory(tmp_path):
    # one enter line whose method name is 4 MiB long, and one of 40 MiB
    paths = tmp_path / "long.tsv", tmp_path / "long_10x.tsv"
    for path, size in zip(paths, (4 << 20, 40 << 20)):
        with open(path, "wb") as fh:
            fh.write(b"0\t1\tE\t" + b"a" * size + b"\n")

    def measure(command):
        return command, peak_rss_mib([[command[0], str(path), *command[1:]] for path in paths])

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(measure, COMMANDS))
    for command, sides in results:
        for path, (code, _, errors) in zip(paths, sides):
            assert (code, errors) == (
                1, [f"error: {path}: line 1: line longer than {LINE_CAP} characters\n"]), command
    grown = [(" ".join(command), small, big) for command, ((_, small, _), (_, big, _)) in results
             if abs(big - small) > TOLERANCE_MIB]
    assert grown == [], grown


def test_analyze_peak_rss_does_not_grow_with_the_contexts(tmp_path):
    # about 2,000 and 20,000 distinct contexts, each trace 120,000 lines (4.7 MB);
    # 30 names give at most 900 edges
    paths = tmp_path / "contexts.tsv", tmp_path / "contexts_10x.tsv"
    write_contexts(paths[0], 2_000)
    write_contexts(paths[1], 20_000)
    commands = [command for command in COMMANDS if command[0] == "analyze"] + [("callgraph",)]

    def measure(command):
        return command, peak_rss_mib([[command[0], str(path), *command[1:]] for path in paths])

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(measure, commands))
    assert all(code == 0 for _, sides in results for code, _, _ in sides), results
    grown = [(" ".join(command), small, big) for command, ((_, small, _), (_, big, _)) in results
             if abs(big - small) > TOLERANCE_MIB]
    assert grown == [], grown


def test_tree_json_peaks_as_the_folded_lines(tmp_path):
    # about 20,900 contexts on one thread: the same tree for all three exports
    path = tmp_path / "contexts.tsv"
    write_contexts(path, 20_000, threads=1)
    formats = ("folded", "cct", "forest")
    runs = peak_rss_mib([["export", str(path), "--format", fmt] for fmt in formats])
    assert all(code == 0 for code, _, _ in runs), runs
    folded, *trees = (peak for _, peak, _ in runs)
    over = [(fmt, folded, peak) for fmt, peak in zip(formats[1:], trees)
            if peak - folded > TOLERANCE_MIB]
    assert over == [], over


def test_a_method_name_is_held_once():
    # a context that copied its name would hold some 40 MB more at 2,000
    peaks = {}
    for length in (10, 2_000):
        for read in (cct.ingest, cct.ingest_merged, cct.ingest_call_graph):
            tracemalloc.start()
            try:
                result = read(name_lines(length))
                peaks[read.__name__, length] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            assert result
            del result
    over = [(name, peaks[name, 10], peaks[name, 2_000])
            for name in ("ingest", "ingest_merged", "ingest_call_graph")
            if abs(peaks[name, 2_000] - peaks[name, 10]) > TOLERANCE_MIB]
    assert over == [], over
