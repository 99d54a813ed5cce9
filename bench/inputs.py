"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of (seed, size): the same arguments
write the same bytes.  Nothing imports ``cct_lens``; the program only
ever sees the files written here.

Sizes are fixed per workload and independent of the seed, so timings
from different seeds are comparable: the seed changes names, shapes,
durations and defect positions, never the event count.
"""

from __future__ import annotations

import heapq
import json
import random

# Per-invocation base durations of the calibrated HR-portal preset for the
# methods of the register and login use cases (the reference table's self
# time divided by its invocation count).  Methods not listed here have the
# preset's default of 0 ns.
PORTAL_BASE_NS = {
    "com.mycompany.hr.vo.CandidateProfile.<init>()": 2600,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.addCandidateProfile("
    "com.mycompany.hr.vo.CandidateProfile)": 1540000,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.addCandidateProfile("
    "com.mycompany.hr.vo.CandidateProfile)": 5700,
    "com.mycompany.hr.process.EmployeeBeanBean.addCandidateProfile("
    "com.mycompany.hr.vo.CandidateProfile)": 8750,
    "com.mycompany.hr.dao.EmployeeDAO.<init>()": 3900,
    "com.mycompany.hr.dao.BaseDAO.<init>()": 4700,
    "com.mycompany.hr.dao.EmployeeDAO.addCandidateProfile("
    "com.mycompany.hr.vo.CandidateProfile)": 47300000,
    "com.mycompany.hr.dao.BaseDAO.getConnection()": 25340000,
    "com.mycompany.hr.vo.EmployeeCredentials.<init>()": 1950,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.addEmployeeCredentials("
    "com.mycompany.hr.vo.EmployeeCredentials)": 435000,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.addEmployeeCredentials("
    "com.mycompany.hr.vo.EmployeeCredentials)": 5450,
    "com.mycompany.hr.process.EmployeeBeanBean.addCredentials("
    "com.mycompany.hr.vo.EmployeeCredentials)": 9750,
    "com.mycompany.hr.dao.EmployeeDAO.addEmployeeCredentials("
    "com.mycompany.hr.vo.EmployeeCredentials)": 31200000,
    "org.apache.jsp.Login_jsp._jspService(javax.servlet.http.HttpServletRequest,"
    "javax.servlet.http.HttpServletResponse)": 2730000,
    "com.mycompany.hr.servlet.LoginServlet.doPost(javax.servlet.http.HttpServletRequest,"
    "javax.servlet.http.HttpServletResponse)": 17700,
    "org.apache.jsp.LoginServlet.processRequest(javax.servlet.http.HttpServletRequest,"
    "javax.servlet.http.HttpServletResponse)": 321000,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.authenticate("
    "com.mycompany.hr.vo.EmployeeCredentials)": 1520000,
    "com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.authenticate("
    "com.mycompany.hr.vo.EmployeeCredentials)": 6800,
    "com.mycompany.hr.process.EmployeeBeanBean.authenticate("
    "com.mycompany.hr.vo.EmployeeCredentials)": 117000,
    "com.mycompany.hr.dao.EmployeeDAO.authenticateEmployee("
    "com.mycompany.hr.vo.EmployeeCredentials)": 8580000,
}

# Events one execution of each use case writes (frames x 2).
PORTAL_EVENTS_PER_EXECUTION = {"register": 40, "login": 24}


def portal_spec(executions: int, seed: int) -> dict:
    """Workload spec: ``executions`` registers and logins, jitter 0.1, 4 threads."""
    return {
        "executions": {"register": executions, "login": executions},
        "seed": seed,
        "thread_count": 4,
        "jitter": 0.1,
        "default_base_ns": 0,
        "base_ns": PORTAL_BASE_NS,
    }


def write_portal_spec(path, executions: int, seed: int) -> int:
    """Write the spec; returns the event count its trace must have."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(portal_spec(executions, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return executions * sum(PORTAL_EVENTS_PER_EXECUTION.values())


# Package families of the method-name pool: the first five are matched by
# the built-in component catalog (one per tier), the rest match no rule
# and fall back to the Other tier.
_FAMILIES = (
    ("org.apache.jsp", "Page{}_jsp", "_jspService{}(javax.servlet.http.HttpServletRequest)"),
    ("com.mycompany.hr.servlet", "Servlet{}", "doGet{}()"),
    ("com.mycompany.hr.process", "HRProcessBean{}", "step{}(java.lang.String)"),
    ("com.mycompany.hr.dao", "Table{}DAO", "query{}(int)"),
    ("com.sun.ejb.containers", "Container{}", "invoke{}()"),
    ("org.example.cache", "Region{}", "get{}(java.lang.Object)"),
    ("java.util.concurrent", "Pool{}", "run{}()"),
)

# The filter the benchmark's `analyze --exclude` uses: the DAO family.
EXCLUDE_PATTERN = "com.mycompany.hr.dao.*"


def method_pool(size: int, methods_per_class: int = 10) -> list[str]:
    """``size`` distinct method names spread evenly over the families."""
    names = []
    for i in range(size):
        package, cls, method = _FAMILIES[i % len(_FAMILIES)]
        k = i // len(_FAMILIES)
        names.append(f"{package}.{cls.format(k // methods_per_class)}."
                     f"{method.format(k % methods_per_class)}")
    return names


def _write_merged(path, streams, comment_every: int = 0) -> tuple[int, int]:
    """Interleave per-thread streams by (order key, tid) and write them.

    Each stream yields ``(order_key, tid, line)`` with non-decreasing keys.  A
    ``# ...`` comment line goes in after every ``comment_every`` events
    when that is positive.  Returns (events, lines).
    """
    events = lines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# generated enter/exit trace\n")
        lines += 1
        for _, _, line in heapq.merge(*streams):
            fh.write(line)
            events += 1
            lines += 1
            if comment_every and events % comment_every == 0:
                fh.write(f"# {events} events\n")
                lines += 1
    return events, lines


def _wide_subtree(rng: random.Random, root_method: str, size: int, pool: list[str],
                  max_depth: int) -> list[tuple[str, list[int]]]:
    """A random recursive tree of ``size`` frames: (method, child indices).

    Siblings never share a method, so every node is a distinct context.
    """
    nodes: list[tuple[str, list[int]]] = [(root_method, [])]
    depth = [1]
    sibling_methods: list[set[str]] = [set()]
    while len(nodes) < size:
        parent = rng.randrange(len(nodes))
        if depth[parent] >= max_depth:
            continue
        method = rng.choice(pool)
        if method in sibling_methods[parent]:
            continue
        sibling_methods[parent].add(method)
        nodes[parent][1].append(len(nodes))
        nodes.append((method, []))
        depth.append(depth[parent] + 1)
        sibling_methods.append(set())
    return nodes


def _wide_stream(rng: random.Random, tid: int, subtrees):
    """Depth-first enter/exit events of the given subtrees on one thread."""
    ts = rng.randrange(1_000_000)
    for nodes in subtrees:
        ts += rng.randrange(1_000, 100_000)  # idle gap between requests
        # stack of (node index, next child position)
        stack = [(0, 0)]
        yield ts, tid, f"{ts}\t{tid}\tE\t{nodes[0][0]}\n"
        while stack:
            index, pos = stack[-1]
            children = nodes[index][1]
            ts += rng.randrange(200, 20_000)  # self time between events
            if pos < len(children):
                stack[-1] = (index, pos + 1)
                child = children[pos]
                stack.append((child, 0))
                yield ts, tid, f"{ts}\t{tid}\tE\t{nodes[child][0]}\n"
            else:
                stack.pop()
                yield ts, tid, f"{ts}\t{tid}\tX\t{nodes[index][0]}\n"


def write_wide_tree(path, seed: int, contexts: int, threads: int = 4,
                    subtrees: int = 64, max_depth: int = 48) -> dict:
    """A trace with about ``contexts`` distinct calling contexts over 4 threads.

    The contexts form ``subtrees`` equal-sized random recursive trees under
    distinct top-level methods.  Thread ``t`` runs its quarter of them plus
    the first quarter of the next thread's quarter, so one subtree in four
    runs on two threads: the per-thread trees overlap, every context has
    two or four events, and ingest stays a minority of the work.  Depth
    stays under ``max_depth``, far below Python's recursion limit.
    Returns the exact event, line and merged-context counts.
    """
    rng = random.Random(f"wide_tree/{seed}")
    pool = method_pool(max(contexts // 10, 2 * subtrees))
    tops = rng.sample(pool, subtrees)
    size = contexts // subtrees
    trees = [_wide_subtree(rng, top, size, pool, max_depth) for top in tops]
    quarter = subtrees // threads
    streams = []
    for t in range(threads):
        mine = [trees[(t * quarter + j) % subtrees] for j in range(quarter + quarter // 4)]
        rng_t = random.Random(f"wide_tree/{seed}/{t}")
        rng_t.shuffle(mine)
        streams.append(_wide_stream(rng_t, t + 1, mine))
    events, lines = _write_merged(path, streams)
    return {"events": events, "lines": lines, "contexts": size * subtrees}


def _lenient_stream(rng: random.Random, tid: int, budget: int, pool: list[str],
                    defect_rate: float, max_depth: int = 8):
    """``budget`` events of random call trees on one thread, with defects.

    Timestamps start at a negative origin.  The order key is the nominal
    clock; a timestamp regression writes an earlier time than the
    thread's last one while keeping its place in the file.  The stream
    stops at exactly ``budget`` events, usually inside a call tree, which
    leaves frames open at the end of the thread.
    """
    clock = -rng.randrange(1_000_000, 20_000_000)
    stack: list[str] = []
    for _ in range(budget):
        clock += rng.randrange(100, 10_000)
        ts = clock
        defect = rng.random() < defect_rate
        if defect and not stack:
            kind, method = "X", rng.choice(pool)  # orphan exit
        elif defect and rng.random() < 0.5:
            # mismatched exit: never the innermost open frame
            method = rng.choice(pool)
            while method == stack[-1]:
                method = rng.choice(pool)
            kind = "X"
        else:
            if defect:
                ts = clock - rng.randrange(20_000, 200_000)  # timestamp regression
            opening = not stack or (len(stack) < max_depth and rng.random() < 0.5)
            if opening:
                kind, method = "E", rng.choice(pool)
                stack.append(method)
            else:
                kind, method = "X", stack.pop()
        yield clock, tid, f"{ts}\t{tid}\t{kind}\t{method}\n"


def write_lenient_trace(path, seed: int, events: int, threads: int = 256,
                        defect_rate: float = 0.05) -> dict:
    """A defective trace of ``events`` events over ``threads`` threads.

    Each event is a defect with probability ``defect_rate``: an orphan
    exit when the thread's stack is empty, otherwise a mismatched exit or
    a timestamp regression with equal odds.  Threads end mid call tree, so
    most leave frames open.  A comment line follows every 1000 events.
    """
    pool = method_pool(2000)
    budget = events // threads
    streams = [
        _lenient_stream(random.Random(f"lenient_threads/{seed}/{t}"), 100 + t,
                        budget + (1 if t < events % threads else 0), pool, defect_rate)
        for t in range(threads)
    ]
    written, lines = _write_merged(path, streams, comment_every=1000)
    return {"events": written, "lines": lines}
