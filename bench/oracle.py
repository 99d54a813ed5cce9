"""Reference answers for the benchmark: a plain per-thread stack replay.

``Replay`` reads a trace file line by line, keeps one stack of open
frames per thread, and accumulates everything the CLI reports: per-method
self time, total time and invocations (with and without an attribute
filter), caller/callee edges, and per-context counts for the per-thread
and merged trees.  It uses nothing from ``cct_lens``.

In lenient mode it applies the documented repair rules: orphan and
mismatched exits are dropped, a timestamp below the thread's running
maximum is clamped to it, and frames still open at the end of a thread
are closed at that maximum and marked truncated.  Strict mode raises
``OracleError`` on the first defect instead.

The ``check_*`` functions compare one command's output with a replay and
return a list of problems, empty when the output is right.  None of them
reads stderr: warning wording is free to change.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import zip_longest

ROOT = "<root>"  # caller name of top-level methods in `callgraph` edges

ORPHAN, MISMATCH, REGRESSION, OPEN = "orphan_exit", "mismatched_exit", "ts_regression", "left_open"


class OracleError(ValueError):
    """The replayed trace has a defect and the replay is strict."""


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Replay:
    """Everything the reports derive from one trace, by direct replay.

    ``exclude`` is a method-name prefix; ``filtered`` holds per-method
    totals as if methods with that prefix had never been instrumented,
    their self time landing in the nearest kept caller.
    """

    def __init__(self, path, lenient: bool = False, exclude: str | None = None):
        self.lines = 0
        self.events = 0
        self.max_depth = 0
        self.repairs = {ORPHAN: 0, MISMATCH: 0, REGRESSION: 0, OPEN: 0}
        self.methods: dict[str, list[int]] = {}    # method -> [self, total, invocations]
        self.filtered: dict[str, list[int]] = {}   # same, under the exclude filter
        self.edges: dict[tuple[str, str], list[int]] = {}  # (caller, callee) -> [calls, total]
        # per-thread contexts, as parallel lists indexed by context id;
        # each thread's root is a context with parent -1 and method None
        self.parent: list[int] = []
        self.method: list[str | None] = []
        self.inv: list[int] = []
        self.total: list[int] = []
        self.child_total: list[int] = []
        self.truncated: list[bool] = []
        self.key: dict[tuple[int, str], int] = {}
        self.roots: dict[int, int] = {}            # tid -> root context id
        self._lenient = lenient
        self._exclude = exclude
        self._replay(path)
        self.digest = file_digest(path)
        self.root_total = sum(self.child_total[r] for r in self.roots.values())
        self._merge()

    # -- replay -----------------------------------------------------------

    def _context(self, parent: int, method: str | None) -> int:
        cid = len(self.parent)
        self.parent.append(parent)
        self.method.append(method)
        self.inv.append(0)
        self.total.append(0)
        self.child_total.append(0)
        self.truncated.append(False)
        if method is not None:
            self.key[(parent, method)] = cid
        return cid

    def _defect(self, kind: str, tid: int, lineno: int) -> None:
        if not self._lenient:
            raise OracleError(f"line {lineno}, tid {tid}: {kind}")
        self.repairs[kind] += 1

    def _replay(self, path) -> None:
        # per tid: [stack, running max timestamp or None]; a frame is
        # [context, method, enter ts, child time, kept child time]
        threads: dict[int, list] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                self.lines += 1
                line = line.rstrip()
                if not line or line.startswith("#"):
                    continue
                raw_ts, raw_tid, kind, method = line.split("\t")
                ts, tid = int(raw_ts), int(raw_tid)
                self.events += 1
                state = threads.get(tid)
                if state is None:
                    state = threads[tid] = [[], None]
                    self.roots[tid] = self._context(-1, None)
                stack = state[0]
                if state[1] is not None and ts < state[1]:
                    self._defect(REGRESSION, tid, lineno)
                    ts = state[1]
                else:
                    state[1] = ts
                if kind == "E":
                    self._enter(stack, self.roots[tid], method, ts)
                elif not stack:
                    self._defect(ORPHAN, tid, lineno)
                elif stack[-1][1] != method:
                    self._defect(MISMATCH, tid, lineno)
                else:
                    self._exit(stack, ts)
        for tid, (stack, last_ts) in threads.items():
            if stack:
                self._defect(OPEN, tid, self.lines)
                while stack:
                    self.truncated[stack[-1][0]] = True
                    self._exit(stack, last_ts)

    def _enter(self, stack: list, root: int, method: str, ts: int) -> None:
        parent = stack[-1][0] if stack else root
        cid = self.key.get((parent, method))
        if cid is None:
            cid = self._context(parent, method)
        self.inv[cid] += 1
        cell = self.methods.setdefault(method, [0, 0, 0])
        cell[2] += 1
        if self._kept(method):
            self.filtered.setdefault(method, [0, 0, 0])[2] += 1
        caller = stack[-1][1] if stack else ROOT
        self.edges.setdefault((caller, method), [0, 0])[0] += 1
        stack.append([cid, method, ts, 0, 0])
        self.max_depth = max(self.max_depth, len(stack))

    def _exit(self, stack: list, ts: int) -> None:
        cid, method, enter_ts, child, kept_child = stack.pop()
        duration = ts - enter_ts
        self.total[cid] += duration
        self.child_total[self.parent[cid]] += duration
        cell = self.methods[method]
        cell[0] += duration - child
        cell[1] += duration
        caller = stack[-1][1] if stack else ROOT
        self.edges[(caller, method)][1] += duration
        if self._kept(method):
            cell = self.filtered[method]
            cell[0] += duration - kept_child
            cell[1] += duration
            kept_up = duration
        else:
            # a spliced-out frame hands its kept descendants to its caller
            kept_up = kept_child
        if stack:
            stack[-1][3] += duration
            stack[-1][4] += kept_up

    def _kept(self, method: str) -> bool:
        return self._exclude is None or not method.startswith(self._exclude)

    def _merge(self) -> None:
        """Overlay the per-thread contexts into the merged tree."""
        self.merged_of: list[int] = []
        self.merged_key: dict[tuple[int, str], int] = {}
        self.merged_self: list[int] = [0]
        for cid, parent in enumerate(self.parent):
            if parent < 0:
                self.merged_of.append(0)
                continue
            key = (self.merged_of[parent], self.method[cid])
            mid = self.merged_key.get(key)
            if mid is None:
                mid = self.merged_key[key] = len(self.merged_self)
                self.merged_self.append(0)
            self.merged_of.append(mid)
            self.merged_self[mid] += self.total[cid] - self.child_total[cid]

    # -- summaries --------------------------------------------------------

    @property
    def threads(self) -> int:
        return len(self.roots)

    @property
    def contexts(self) -> int:
        """Distinct calling contexts of the merged tree, root excluded."""
        return len(self.merged_self) - 1

    def repair_count(self) -> int:
        return sum(self.repairs.values())

    def conservation_problems(self) -> list[str]:
        problems = []
        self_sum = sum(cell[0] for cell in self.methods.values())
        if self_sum != self.root_total:
            problems.append(f"oracle: self times sum to {self_sum}, root total {self.root_total}")
        if sum(self.merged_self) != self.root_total:
            problems.append("oracle: context self times do not sum to the root total")
        return problems


# -- output checks ------------------------------------------------------------

def _first(problems: list[str], limit: int = 5) -> list[str]:
    if len(problems) > limit:
        return problems[:limit] + [f"... {len(problems) - limit} more"]
    return problems


def _hot_rows(table: dict[str, list[int]]) -> list[tuple[str, int, int]]:
    """(method, self, invocations), sorted like the hot-spot table."""
    rows = [(m, c[0], c[2]) for m, c in table.items()]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def _total_rows(table: dict[str, list[int]]) -> list[tuple[str, int, int]]:
    rows = [(m, c[1], c[2]) for m, c in table.items()]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def _pct(part: int, whole: int) -> str:
    return f"{(part / whole if whole else 0.0) * 100:.1f}%"


def _compare_rows(label: str, got: list, want: list) -> list[str]:
    problems = []
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} rows, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"{label} row {i}: got {g}, expected {w}")
    return _first(problems)


def check_analyze_text(text: str, replay: Replay) -> list[str]:
    """Hot-spot and total-time rows in order, with shares and counts."""
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if len(blocks) < 3:
        return [f"analyze text: {len(blocks)} tables, expected 3"]
    rows = [[line.split() for line in b.splitlines()[2:]] for b in blocks[:3]]
    hot = _hot_rows(replay.methods)
    denom = sum(r[1] for r in hot)
    problems = _compare_rows(
        "hot spots", [(t[0], t[1], int(t[-1])) for t in rows[0]],
        [(m, _pct(s, denom), inv) for m, s, inv in hot])
    problems += _compare_rows(
        "total time", [(t[0], int(t[-1])) for t in rows[1]],
        [(m, inv) for m, _, inv in _total_rows(replay.methods)])
    component_inv = sum(int(t[-1]) for t in rows[2])
    if component_inv != sum(r[2] for r in hot):
        problems.append(f"components: invocations sum to {component_inv}")
    return problems


def _check_components(rows: list[dict], hot: list[tuple[str, int, int]]) -> list[str]:
    self_sum = sum(int(r["self_ns"]) for r in rows)
    inv_sum = sum(int(r["invocations"]) for r in rows)
    if (self_sum, inv_sum) != (sum(r[1] for r in hot), sum(r[2] for r in hot)):
        return [f"components: self {self_sum} and invocations {inv_sum} do not add up "
                "to the hot-spot table"]
    return []


def check_analyze_json(text: str, replay: Replay) -> list[str]:
    """`analyze --exclude P --format json` against the filtered replay."""
    doc = json.loads(text)
    hot = _hot_rows(replay.filtered)
    problems = _compare_rows(
        "filtered hot spots",
        [(r["method"], r["self_ns"], r["invocations"]) for r in doc["hot_spots"]], hot)
    problems += _compare_rows(
        "filtered total time",
        [(r["method"], r["total_ns"], r["invocations"]) for r in doc["total_time"]],
        _total_rows(replay.filtered))
    return problems + _check_components(doc["components"], hot)


def check_snapshot(text: str, replay: Replay, label: str, user_count: int) -> list[str]:
    """Snapshot rows, conservation, label and provenance digest."""
    doc = json.loads(text)
    hot = _hot_rows(replay.methods)
    got = [(r["method"], r["self_ns"], r["invocations"]) for r in doc["hot_spots"]]
    problems = _compare_rows("snapshot hot spots", got, hot)
    if sum(r[1] for r in got) != replay.root_total:
        problems.append("snapshot: self times do not sum to the root total")
    problems += _check_components(doc["components"], hot)
    if (doc.get("label"), doc.get("user_count")) != (label, user_count):
        problems.append(f"snapshot: label {doc.get('label')!r}, users {doc.get('user_count')!r}")
    if doc.get("source_trace_digest") != replay.digest:
        problems.append("snapshot: source trace digest differs from the trace's sha256")
    return problems


def diff_rows(a: Replay, b: Replay) -> list[tuple[str, str, int, int, str]]:
    """(method, ratio text, invocations a, invocations b, status), in report order."""
    shared, one_sided = [], []
    for method in a.methods.keys() | b.methods.keys():
        ca, cb = a.methods.get(method), b.methods.get(method)
        if ca is not None and cb is not None:
            avg_a, avg_b = Fraction(ca[0], ca[2]), Fraction(cb[0], cb[2])
            if avg_a == 0 and avg_b == 0:
                ratio = Fraction(1)
            elif avg_a == 0 or avg_b == 0:
                ratio = None
            else:
                ratio = avg_b / avg_a
            key = (0, 0, method) if ratio is None else (1, -abs(ratio - 1), method)
            text = "-" if ratio is None else f"{float(ratio):.3f}"
            shared.append((key, (method, text, ca[2], cb[2], "shared")))
        elif cb is not None:
            one_sided.append((("added", method), (method, "-", 0, cb[2], "added")))
        else:
            one_sided.append((("removed", method), (method, "-", ca[2], 0, "removed")))
    shared.sort()
    one_sided.sort()
    return [row for _, row in shared + one_sided]


def check_diff_text(text: str, a: Replay, b: Replay) -> list[str]:
    """Row order, ratio, invocation counts and status of `diff` text output."""
    rows = [line.split() for line in text.splitlines()[4:] if line.strip()]
    got = [(t[0], t[-4], int(t[-3]), int(t[-2]), t[-1]) for t in rows]
    return _compare_rows("diff", got, diff_rows(a, b))


def parse_edges(text: str) -> list[tuple[str, str, int, int]]:
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            caller, callee, calls, total = line.split("\t")
            rows.append((caller, callee, int(calls), int(total)))
    return rows


def check_edges(got: list[tuple[str, str, int, int]], replay: Replay) -> list[str]:
    """Call-graph edges (caller, callee, calls, callee total): exact, in the documented order."""
    want = sorted(((c, e, v[0], v[1]) for (c, e), v in replay.edges.items()),
                  key=lambda r: (-r[2], r[0], r[1]))
    return _compare_rows("edges", got, want)


def check_folded(text: str, replay: Replay) -> list[str]:
    """`callgraph --format folded`: one line per merged context, exact self time."""
    problems = []
    seen = set()
    for line in text.splitlines():
        path, _, self_ns = line.rpartition(" ")
        mid = 0
        for method in path.split(";"):
            mid = replay.merged_key.get((mid, method), -1)
            if mid < 0:
                break
        if mid < 0 or mid in seen:
            problems.append(f"folded: unknown or repeated context {path[:120]!r}")
            continue
        if int(self_ns) != replay.merged_self[mid]:
            problems.append(f"folded: {path[:120]!r} self {self_ns}, "
                            f"expected {replay.merged_self[mid]}")
        seen.add(mid)
    if len(seen) != replay.contexts:
        problems.append(f"folded: {len(seen)} contexts, expected {replay.contexts}")
    return _first(problems)


def check_forest(text: str, replay: Replay) -> list[str]:
    """`export --format forest`: every per-thread node's counts, times and flag."""
    problems = []
    threads = json.loads(text)["threads"]
    if sorted(int(t) for t in threads) != sorted(replay.roots):
        return [f"forest: threads {sorted(threads)[:8]}..., expected {len(replay.roots)}"]
    nodes = 0
    for tid, obj in threads.items():
        root = replay.roots[int(tid)]
        if obj.get("ns") != replay.child_total[root]:
            problems.append(f"forest: thread {tid} busy time {obj.get('ns')}")
        work = [(root, child) for child in obj.get("ch", ())]
        while work:
            parent, node = work.pop()
            nodes += 1
            cid = replay.key.get((parent, node["m"]))
            if cid is None:
                problems.append(f"forest: thread {tid}: unknown context ending in {node['m']}")
                continue
            got = (node.get("inv"), node.get("ns"), node.get("trunc", False))
            want = (replay.inv[cid], replay.total[cid], replay.truncated[cid])
            if got != want:
                problems.append(f"forest: thread {tid} {node['m']}: got {got}, expected {want}")
            work.extend((cid, child) for child in node.get("ch", ()))
    expected = len(replay.parent) - len(replay.roots)
    if nodes != expected:
        problems.append(f"forest: {nodes} nodes, expected {expected}")
    return _first(problems)


def check_jsonl(lines, trace_path) -> list[str]:
    """`export --format jsonl` lines: one object per trace event, same values, same order."""
    problems = []
    with open(trace_path, "r", encoding="utf-8") as trace:
        events = (line.rstrip().split("\t") for line in trace
                  if line.strip() and not line.startswith("#"))
        for count, (fields, line) in enumerate(zip_longest(events, lines), 1):
            if fields is None or line is None:
                problems.append(f"jsonl: event count differs from the trace at {count}")
                break
            want = {"ts": int(fields[0]), "tid": int(fields[1]), "ev": fields[2],
                    "m": fields[3]}
            if json.loads(line) != want:
                problems.append(f"jsonl line {count}: {line.strip()[:120]}")
                if len(problems) > 5:
                    break
    return problems
