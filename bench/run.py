"""cct-lens benchmark: CLI wall time and peak RSS, per-layer stage times.

Usage, from the repository root::

    python3 bench/run.py --workload portal_ingest --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --seconds 1 --trace 1
    python3 bench/run.py --workload wide_tree --seed 7 --out BENCH_wide.json

With ``--trace 0`` every ``cct-lens`` subcommand runs as a sequential
subprocess, one at a time, in rounds of every command, for ``--seconds``
seconds.  A command's peak RSS is ``ru_maxrss`` from ``os.wait4``, as the
median over the rounds; its time is the mean over the rounds of its
wall-clock time scaled to a nominal machine speed.  Input set-up runs
several times (it also warms the interpreter's caches); the median of
its scaled times is ``setup_s``.

Why scaled: on a shared 2-CPU machine the speed of the whole machine
drifts between levels up to 1.5x apart, for seconds to minutes at a
time.  With raw wall times, ten seeds gave run-to-run spreads (quartile
distance over median) of 15-24% of the median.  So a fixed pure-Python
probe process runs before set-up and before every fourth command, and
each time is multiplied by ``PROBE_NOMINAL_S / (the latest probe time)``:
the probe's time tracks the drift (correlation 0.83 with `analyze`), and
the spreads fell to 3-9%, 15% at worst (`export_jsonl`, whose cost is
partly writing its output).  The raw wall times and probe times are kept
in the ``--out`` record.

With ``--trace 1`` the same inputs go through in-process calls into each
module instead, recorded as spans (``layers.py``); the per-layer numbers,
the span tree, the tracing overhead and the ingest-to-read ratio come
from that run.

Either way every output is checked against the replay oracle
(``oracle.py``) outside the timed region, and equal inputs must give
equal output digests.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary and the provenance of the result.  ``--out``
also writes the whole record (provenance, digests, problems, spans).

``--smoke`` shrinks every workload so all three, with every check, run
in seconds; ``python3 -m pytest bench`` uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

import inputs
import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("portal_ingest", "wide_tree", "lenient_threads")

# Input sizes.  A timed round runs eight commands; each size keeps a round
# near 3 s on a 2-CPU machine, so a 30 s run takes about ten samples of
# every command.  Larger inputs mean fewer samples and noisier runs.
SIZES = {
    "full": {"portal": 1000, "portal_base": 50, "wide": 16_000, "lenient": 32_000,
             "simulate": 100},
    "smoke": {"portal": 40, "portal_base": 10, "wide": 1_280, "lenient": 4_000,
              "simulate": 10},
}
# The reference portal_ingest trace whose sha256 BENCHMARK.json records:
# the workload's spec at seed 0 with this many registers and logins.
REFERENCE_SEED = 0
REFERENCE_EXECUTIONS = 150
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
EXCLUDE_PREFIX = inputs.EXCLUDE_PATTERN.rstrip("*")

# The snapshot labels and load levels the diff compares.
BASE_LABEL, BASE_USERS = "load-a", 1
LOAD_LABEL, LOAD_USERS = "load-b", 20

RSS_METRICS = {"simulate": "simulate_rss_mib", "analyze": "analyze_rss_mib",
               "snapshot": "snapshot_rss_mib", "export_jsonl": "export_jsonl_rss_mib"}

# The machine-speed probe: a fixed pure-Python job in a fresh interpreter,
# run before each set-up and before every PROBE_EVERY commands.  Each time
# is reported at the speed at which the probe takes PROBE_NOMINAL_S (about
# its time on a quiet 2-CPU machine).  See the module docstring for why.
PROBE_CODE = ("d = {}\n"
              "for i in range(200000):\n"
              "    k = str(i)\n"
              "    d[k] = d.get(k[-3:], 0) + len(k.split('1'))\n")
PROBE_NOMINAL_S = 0.2
PROBE_EVERY = 4  # commands between probes

# ROADMAP baseline for ingest on 10^6 events: plain line iteration vs parse + build.
ROADMAP_READ_S, ROADMAP_INGEST_S = 0.19, 2.9


class Workload:
    """One workload: its inputs, its command list and its oracle replays."""

    def __init__(self, name: str, seed: int, scale: str, work: Path):
        self.name = name
        self.seed = seed
        self.sizes = SIZES[scale]
        self.work = work
        self.lenient = name == "lenient_threads"
        self.trace = "trace.tsv"
        # portal_ingest's trace is what the timed `simulate` writes
        self.sim_out = self.trace if name == "portal_ingest" else "simulate.tsv"
        self.sim_events = 0  # events the simulate spec must produce
        self.contexts = 0  # merged contexts of the generated wide tree

    def commands(self) -> list[tuple[str, list[str], list[str]]]:
        """(metric stem, CLI arguments, files written besides stdout), in run order."""
        lenient = ["--lenient"] if self.lenient else []
        graph = "folded" if self.lenient else "edges"
        return [
            ("simulate", ["simulate", "--spec", "simulate.json", "-o", self.sim_out],
             [self.sim_out]),
            ("analyze", ["analyze", self.trace, *lenient], []),
            ("analyze_filtered", ["analyze", self.trace, "--exclude", inputs.EXCLUDE_PATTERN,
                                  "--format", "json", *lenient], []),
            ("snapshot", ["analyze", self.trace, "--snapshot-out", "load.json",
                          "--label", LOAD_LABEL, "--user-count", str(LOAD_USERS), *lenient],
             ["load.json"]),
            ("diff", ["diff", "base.json", "load.json"], []),
            ("callgraph", ["callgraph", self.trace, "--format", graph, *lenient], []),
            ("export_forest", ["export", self.trace, "--format", "forest", *lenient], []),
            ("export_jsonl", ["export", self.trace, "--format", "jsonl"], []),
        ]

    def setup(self, runner: "Runner") -> None:
        """Write every input the timed commands read, and the base-level snapshot.

        The base level is the same kind of trace at a lower load: fewer
        executions for the portal, a smaller tree or trace otherwise.
        """
        s = self.sizes
        if self.name == "portal_ingest":
            self.sim_events = inputs.write_portal_spec(self.work / "simulate.json",
                                                       s["portal"], self.seed)
            inputs.write_portal_spec(self.work / "base_spec.json", s["portal_base"], self.seed)
            runner.run("setup", ["simulate", "--spec", "base_spec.json", "-o", "base.tsv"])
        else:
            self.sim_events = inputs.write_portal_spec(self.work / "simulate.json",
                                                       s["simulate"], self.seed)
            if self.name == "wide_tree":
                info = inputs.write_wide_tree(self.work / self.trace, self.seed, s["wide"])
                self.contexts = info["contexts"]
                inputs.write_wide_tree(self.work / "base.tsv", self.seed, s["wide"] // 4)
            else:
                inputs.write_lenient_trace(self.work / self.trace, self.seed, s["lenient"])
                inputs.write_lenient_trace(self.work / "base.tsv", self.seed, s["lenient"] // 4)
        runner.run("setup", ["analyze", "base.tsv", "--snapshot-out", "base.json",
                             "--label", BASE_LABEL, "--user-count", str(BASE_USERS),
                             *(["--lenient"] if self.lenient else [])])

    def replays(self) -> dict[str, oracle.Replay]:
        """Oracle replays of the workload trace, the base trace and the simulate output."""
        work = self.work
        replays = {
            "trace": oracle.Replay(work / self.trace, self.lenient, EXCLUDE_PREFIX),
            "base": oracle.Replay(work / "base.tsv", self.lenient),
        }
        replays["simulate"] = (replays["trace"] if self.sim_out == self.trace
                               else oracle.Replay(work / self.sim_out))
        return replays

    def input_problems(self, replays: dict[str, oracle.Replay]) -> list[str]:
        """Properties the generated inputs must have for the workload to mean anything."""
        problems = []
        for replay in replays.values():
            problems += replay.conservation_problems()
        sim = replays["simulate"]
        if (sim.events, sim.threads) != (self.sim_events, 4):
            problems.append(f"simulate: {sim.events} events on {sim.threads} threads, "
                            f"expected {self.sim_events} on 4")
        trace = replays["trace"]
        if self.name == "wide_tree" and trace.contexts != self.contexts:
            problems.append(f"wide_tree: {trace.contexts} contexts, expected {self.contexts}")
        if self.lenient and (trace.threads != 256 or not all(trace.repairs.values())):
            problems.append(f"lenient_threads: {trace.threads} threads, repairs {trace.repairs}")
        return problems

    def output_problems(self, command: str, stdout: str, replays) -> list[str]:
        """Check one command's outputs against the oracle."""
        if replays is None:
            return [f"{command}: not checked, the oracle replay failed"]
        trace = replays["trace"]
        if command == "simulate":
            return []  # its trace is checked by input_problems and the replay
        if command == "analyze":
            return oracle.check_analyze_text(stdout, trace)
        if command == "analyze_filtered":
            return oracle.check_analyze_json(stdout, trace)
        if command == "snapshot":
            return (oracle.check_analyze_text(stdout, trace)
                    + oracle.check_snapshot(read_text(self.work / "load.json"), trace,
                                            LOAD_LABEL, LOAD_USERS))
        if command == "diff":
            return oracle.check_diff_text(stdout, replays["base"], trace)
        if command == "callgraph":
            if self.lenient:
                return oracle.check_folded(stdout, trace)
            return oracle.check_edges(oracle.parse_edges(stdout), trace)
        if command == "export_forest":
            return oracle.check_forest(stdout, trace)
        if command == "export_jsonl":
            return oracle.check_jsonl(stdout.splitlines(), self.work / self.trace)
        raise ValueError(command)

    def layer_problems(self, out: dict, replays) -> list[str]:
        """Check the outputs of one in-process round against the oracle."""
        if replays is None:
            return ["in-process outputs: not checked, the oracle replay failed"]
        trace = replays["trace"]
        return (oracle.check_analyze_text(out["text"], trace)
                + oracle.check_edges([(e.caller, e.callee, e.calls, e.callee_total_time)
                                      for e in out["edges"]], trace)
                + oracle.check_folded(out["folded"], trace)
                + oracle.check_forest(out["forest"], trace)
                + oracle.check_snapshot(out["snapshot"], trace, LOAD_LABEL, LOAD_USERS)
                + oracle.check_diff_text(out["diff"], replays["base"], trace)
                + oracle.check_jsonl(out["jsonl"].splitlines(), self.work / self.trace))


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(oracle.file_digest(path).encode())
    return h.hexdigest()


class Runner:
    """Runs `cct-lens` commands one at a time in the work directory.

    Commands start from ``launcher.py``, a separate small process, so that
    their peak RSS does not start from this process's.  Every run is an
    attempt; a run fails if it exits non-zero or prints a Python
    traceback.  Output checks add their failures later.
    """

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, name: str, args: list[str], code: str | None = None):
        """Run one command; returns (wall seconds, peak RSS MiB, ok)."""
        if code is None:
            code = "import sys; from cct_lens.cli import main; sys.exit(main())"
        request = {"argv": [sys.executable, "-c", code, *args], "cwd": str(self.work),
                   "stdout": str(self.work / f"{name}.out"),
                   "stderr": str(self.work / f"{name}.err")}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        self.attempted += 1
        ok = reply["exit"] == 0
        with open(request["stderr"], "rb") as fh:
            if b"Traceback (most recent call last)" in fh.read():
                ok = False
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: exit {reply['exit']} for {' '.join(args)}")
        return reply["wall_s"], reply["maxrss_kib"] / 1024, ok


def load_replays(workload: Workload):
    """(replays, problems): a trace the oracle cannot replay is a wrong output."""
    try:
        replays = workload.replays()
        return replays, workload.input_problems(replays)
    except (oracle.OracleError, ValueError, OSError) as exc:
        return None, [f"oracle replay: {type(exc).__name__}: {exc}"]


def guarded(name: str, check) -> list[str]:
    """Run one output check; an output the check cannot even read is wrong."""
    try:
        return check()
    except Exception as exc:  # malformed output, reported as a wrong output
        return [f"{name}: unreadable output: {type(exc).__name__}: {exc}"]


def reference_digest() -> str:
    """The portal_ingest reference trace sha256 recorded in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        if workload["name"] == "portal_ingest":
            return re.search(r"[0-9a-f]{64}", workload["why"]).group(0)
    raise ValueError("BENCHMARK.json has no portal_ingest workload")


def check_reference(runner: Runner) -> list[str]:
    """Simulate the reference portal spec and compare its sha256."""
    inputs.write_portal_spec(runner.work / "reference.json", REFERENCE_EXECUTIONS,
                             REFERENCE_SEED)
    _, _, ok = runner.run("reference", ["simulate", "--spec", "reference.json",
                                        "-o", "reference.tsv"])
    if not ok:
        return runner.problems[-1:]  # the runner has counted it
    if oracle.file_digest(runner.work / "reference.tsv") != reference_digest():
        runner.failed += 1
        return ["simulate: reference portal trace sha256 differs from BENCHMARK.json"]
    return []


def provenance(workload: Workload, replays) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    trace = replays["trace"] if replays else None
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit(),
        "events": trace.events if trace else None,
        "threads": trace.threads if trace else None,
        "contexts": trace.contexts if trace else None,
        "max_depth": trace.max_depth if trace else None,
        "repairs": trace.repairs if trace else None,
    }


def commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = read_text(git / "HEAD").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return read_text(git / ref).strip()
        for line in read_text(git / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: Workload, runner: Runner, seconds: float) -> dict:
    """Set up, run every command for ``seconds``, check outputs; returns the record."""
    work = workload.work
    setup_times, probe_times = [], []
    for _ in range(SETUP_REPEATS):
        clean(work)
        probe_times.append(runner.run("probe", [], code=PROBE_CODE)[0])
        start = time.perf_counter()
        workload.setup(runner)
        setup_times.append(time.perf_counter() - start)

    commands = workload.commands()
    rounds: list[dict[str, tuple]] = []

    def one_round() -> dict[str, tuple]:
        results = {}
        for i, (name, args, files) in enumerate(commands):
            if i % PROBE_EVERY == 0:
                probe_times.append(runner.run("probe", [], code=PROBE_CODE)[0])
            wall, rss, ok = runner.run(name, args)
            digest = digest_files([work / f"{name}.out", *(work / f for f in files)])
            # wall time scaled by the latest probe: the time at nominal speed
            results[name] = (wall * PROBE_NOMINAL_S / probe_times[-1], rss, ok, digest, wall)
        return results

    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(one_round())

    # checks, outside the timed region, on the outputs of the last round
    replays, problems = load_replays(workload)
    problems = runner.problems + problems
    if replays:
        problems += guarded("base snapshot", lambda: oracle.check_snapshot(
            read_text(work / "base.json"), replays["base"], BASE_LABEL, BASE_USERS))
    digests = {}
    for name, _, _ in commands:
        found = guarded(name, lambda: workload.output_problems(
            name, read_text(work / f"{name}.out"), replays))
        problems += found
        digests[name] = rounds[-1][name][3]
        # a run fails if its output is wrong or differs from the checked one
        bad = sum(1 for r in rounds
                  if r[name][2] and (found or r[name][3] != digests[name]))
        if bad:
            runner.failed += bad
            problems.append(f"{name}: {bad} runs with wrong or differing output")
    problems += check_reference(runner)

    # times at nominal machine speed, as means over the rounds: see the module docstring
    setup_scaled = [t * PROBE_NOMINAL_S / p for t, p in zip(setup_times, probe_times)]
    metrics = {"setup_s": (median(setup_scaled), "s")}
    for name, _, _ in commands:
        metrics[f"{name}_s"] = (fmean(r[name][0] for r in rounds), "s")
    rss = {name: median(r[name][1] for r in rounds) for name, _, _ in commands}
    for name, metric in RSS_METRICS.items():
        metrics[metric] = (rss[name], "MiB")
    metrics["max_rss_mib"] = (max(rss.values()), "MiB")
    return {
        "provenance": provenance(workload, replays),
        "metrics": metrics,
        "failed_frac": runner.failed / runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": len(rounds),
        "probe_s": probe_times,
        "setup_wall_s": setup_times,
        "wall_s": {name: [r[name][4] for r in rounds] for name, _, _ in commands},
        "scaled_s": {name: [r[name][0] for r in rounds] for name, _, _ in commands},
        "digests": digests,
        "problems": problems,
    }


def traced(workload: Workload, runner: Runner, seconds: float) -> dict:
    """Set up, then time each layer in-process; returns the record."""
    sys.path.insert(0, str(SRC))
    import layers

    work = workload.work
    clean(work)
    workload.setup(runner)
    name, args, _ = workload.commands()[0]
    runner.run(name, args)  # portal_ingest's trace is this command's output
    startup, analyze = [], []
    name, args, _ = workload.commands()[1]
    for _ in range(STARTUP_REPEATS):
        startup.append(runner.run("startup", [], code="import cct_lens.cli")[0])
        analyze.append(runner.run(name, args)[0])
    stderr_bytes = (work / f"{name}.err").stat().st_size

    files = {"trace": work / workload.trace, "spec": work / "simulate.json",
             "base_snapshot": work / "base.json"}
    problems = []
    # traced and untraced rounds alternate; their difference is the tracing cost
    traced_rounds: list[layers.Spans] = []
    totals = {True: [], False: []}
    outputs = []

    def one_round(enabled: bool) -> bool:
        spans = layers.Spans(enabled)
        runner.attempted += 1
        start = time.perf_counter()
        try:
            result = layers.run_round(spans, files, workload.lenient, inputs.EXCLUDE_PATTERN)
        except Exception as exc:  # a failing stage is a failed operation, not a crash
            runner.failed += 1
            problems.append(f"in-process round: {type(exc).__name__}: {exc}")
            return False
        totals[enabled].append(time.perf_counter() - start)
        if enabled:
            traced_rounds.append(spans)
        if not outputs:
            outputs.append(result)  # the first round's outputs are checked
        return True

    deadline = time.perf_counter() + seconds
    while one_round(True) and one_round(False) and time.perf_counter() < deadline:
        pass
    out = outputs[0] if outputs else None

    # replayed only now, so the oracle's objects do not slow the timed rounds
    replays, found = load_replays(workload)
    problems = runner.problems + found + problems
    if out is not None:
        found = guarded("in-process outputs", lambda: workload.layer_problems(out, replays))
        runner.failed += bool(found)
        problems += found

    metrics = {}
    if traced_rounds:
        durations = [s.durations() for s in traced_rounds]
        for name in durations[0]:
            if "." in name:
                metrics[f"{name}_s"] = (median(d[name] for d in durations), "s")
    counts = dict(out["counts"]) if out else {}
    if replays:
        trace = replays["trace"]
        counts.update({
            "trace.events": trace.events, "trace.lines": trace.lines,
            "cct.threads": trace.threads, "cct.max_depth": trace.max_depth,
            "cct.repairs": trace.repair_count(), "cct.contexts": trace.contexts,
        })
    for name, value in counts.items():
        metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")
    metrics["cli.startup_s"] = (median(startup), "s")
    metrics["cli.stderr_bytes"] = (stderr_bytes, "bytes")
    if "cct.ingest_s" in metrics:
        metrics["cct.ingest_read_ratio"] = (
            metrics["cct.ingest_s"][0] / metrics["trace.read_lines_s"][0], "ratio")
    overhead = median(totals[True]) - median(totals[False]) if totals[False] else None
    return {
        "provenance": provenance(workload, replays),
        "metrics": metrics,
        "failed_frac": runner.failed / runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": len(traced_rounds),
        "span_tree": traced_rounds[-1].tree_lines() if traced_rounds else [],
        "tracing_overhead_s": overhead,
        "traced_total_s": median(totals[True]) if totals[True] else None,
        "untraced_total_s": median(totals[False]) if totals[False] else None,
        "analyze_cli_s": median(analyze),
        "problems": problems,
    }


def clean(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def summary_lines(name: str, record: dict) -> list[str]:
    lines = [f"# {name}: provenance {json.dumps(record['provenance'], sort_keys=True)}"]
    for metric, (value, unit) in record["metrics"].items():
        lines.append(f"# {name}: {metric:<28} {value:>14.6g} {unit}")
    lines.append(f"# {name}: failed_frac {record['failed_frac']:.6g} "
                 f"({record['failed']} of {record['attempted']} commands)")
    if "span_tree" in record:
        lines.append(f"# {name}: span tree of the last traced round")
        lines += [f"#   {line}" for line in record["span_tree"]]
        m = record["metrics"]
        if record["tracing_overhead_s"] is not None:
            lines.append(f"# {name}: tracing overhead {record['tracing_overhead_s']:+.4f} s "
                         f"(traced {record['traced_total_s']:.4f} s, "
                         f"untraced {record['untraced_total_s']:.4f} s per round)")
        if "cct.ingest_read_ratio" in m:
            lines.append(f"# {name}: ingest/read {m['cct.ingest_read_ratio'][0]:.2f} "
                         f"({m['cct.ingest_s'][0]:.4f} s / {m['trace.read_lines_s'][0]:.4f} s); "
                         f"ROADMAP baseline {ROADMAP_INGEST_S / ROADMAP_READ_S:.2f} "
                         f"({ROADMAP_INGEST_S} s / {ROADMAP_READ_S} s on 10^6 events)")
            share = m["cct.ingest_s"][0] / (record["analyze_cli_s"] - m["cli.startup_s"][0])
            lines.append(f"# {name}: cct.ingest_s is {share:.0%} of analyze wall time "
                         f"minus cli.startup_s")
    for problem in record["problems"]:
        lines.append(f"# {name}: PROBLEM {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cct-lens benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check")
    parser.add_argument("--out", help="write the full record as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "cct_lens" / "cli.py").is_file():
        print(f"error: no cct_lens sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scale = "smoke" if args.smoke else "full"
    records = {}
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        workload = Workload(name, args.seed, scale, work)
        try:
            with Runner(work) as runner:
                measure = traced if args.trace else end_to_end
                records[name] = measure(workload, runner, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        (ROOT / ".bench_work").rmdir()  # only when no other run is using it
    except OSError:
        pass

    for name, record in records.items():
        print("\n".join(summary_lines(name, record)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    prefix = len(records) > 1
    result = {
        "correct": all(not r["problems"] and not r["failed"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in records.items() for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
