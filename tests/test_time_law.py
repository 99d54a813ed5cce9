"""Time grows linearly in each input dimension.

Each law times an in-process call at sizes n and 10n, best of three, and
asserts a ratio under 20: linear work gives about 10 and quadratic work
about 100, so the noise of a shared machine does not decide the result.
The collector is off while a call runs, as ``cli.main`` runs commands.
The dimensions covered so far are those of ``workload.simulate_lines``, a
spec's threads and its executions, a snapshot's rows, which ``diff``
checks and joins, the distinct methods and filter patterns of
``snapshot.ingest_totals``, at few pattern lengths and at one length each,
the stack depth of ``ingest_totals``, and a catalog file's rules, which
``components.load_catalog`` reads and each name is classified against.
"""

import gc
import json
import time

import pytest

from cct_lens import workload as wl
from cct_lens.compare import check_snapshot, diff
from cct_lens.components import load_catalog
from cct_lens.filters import FilterSet
from cct_lens.snapshot import ingest_totals

RATIO = 20


def best_of_three(run) -> float:
    """The best time of three calls of ``run``, each with the collector off."""
    times = []
    for _ in range(3):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
    return min(times)


def best_time(spec: wl.WorkloadSpec) -> float:
    """The best of three runs of ``simulate_lines`` on ``spec``, each checked
    to give every line."""
    def run():
        assert sum(1 for _ in wl.simulate_lines(spec)) == 3 + spec.event_count()

    return best_of_three(run)


def test_simulate_threads():
    # one two-event execution per thread; when each thread walked every
    # execution to find its own, the ratio was about 100
    def spec(n: int) -> wl.WorkloadSpec:
        return wl.WorkloadSpec(executions={"login_page": n}, thread_count=n)

    assert best_time(spec(5000)) < RATIO * best_time(spec(500))


def test_simulate_executions():
    def spec(n: int) -> wl.WorkloadSpec:
        return wl.WorkloadSpec(executions={"register": n, "login": n}, thread_count=4,
                               latency=wl.calibrated_latency(0.1))

    assert best_time(spec(3000)) < RATIO * best_time(spec(300))


def snapshot_text(rows: int, scale: int) -> str:
    """A snapshot document of ``rows`` hot-spot rows and one component row."""
    return json.dumps({
        "format": "cct-lens/snapshot@1", "label": f"x{scale}", "user_count": scale,
        "source_trace_digest": "0" * 64,
        "hot_spots": [{"method": f"com.example.Klass{i}.method{i}", "self_ns": scale * i,
                       "invocations": 1 + i % 7} for i in range(rows)],
        "components": [{"component": "Klass", "tier": "other", "self_ns": 0,
                        "invocations": 0}]})


def test_diff_rows():
    # every row passes the checker, then the join; a list of seen names in
    # place of _rows's set makes the ratio about 100
    def load_and_diff(n: int) -> float:
        a, b = snapshot_text(n, 1), snapshot_text(n, 3)

        def run():
            assert len(diff(check_snapshot(a), check_snapshot(b))) == n

        return best_of_three(run)

    assert load_and_diff(20_000) < RATIO * load_and_diff(2_000)


# exclude patterns that match none of the methods: few distinct lengths, and
# a length of their own each, up to past every method name's end
PATTERNS = {"few lengths": lambda i: f"org.none{i}.*", "a length each": lambda i: "x" * i + "*"}


@pytest.mark.parametrize("pattern", PATTERNS.values(), ids=PATTERNS)
def test_filter_patterns(pattern):
    # n methods, each entered and left once, against n exclude patterns;
    # trying every pattern on every name makes the ratio about 100, and
    # trying every length past a name's end about 50
    def ingest(n: int) -> float:
        lines = [f"{ts}\t1\t{kind}\tcom.example.Klass{i}.method{i}()"
                 for i in range(n) for ts, kind in ((2 * i, "E"), (2 * i + 1, "X"))]
        filter_set = FilterSet.from_patterns(excludes=[pattern(i) for i in range(1, n + 1)])

        def run():
            assert len(ingest_totals(lines, filter_set=filter_set)) == n

        return best_of_three(run)

    assert ingest(3000) < RATIO * ingest(300)


def test_stack_depth():
    # one thread's chain of n nested calls through 3 names, all open at
    # once; a scan of the open frames on each line makes the ratio about 100
    def ingest(n: int) -> float:
        lines = [f"{ts}\t1\tE\tm{ts % 3}" for ts in range(n)]
        lines += [f"{ts}\t1\tX\tm{(2 * n - 1 - ts) % 3}" for ts in range(n, 2 * n)]

        def run():
            assert ingest_totals(lines)["m0"].invocations == (n + 2) // 3

        return best_of_three(run)

    assert ingest(50_000) < RATIO * ingest(5_000)


def test_catalog_rules():
    # n prefix rules that share their first 17 characters, read, then n
    # names classified, each by the rule of its own index; trying the rules
    # one by one for each name makes the ratio about 100
    def load_and_classify(n: int) -> float:
        lines = [f"dao\tC{i}\tcom.mycompany.hr.svc{i}.Klass{i}.*" for i in range(n)]
        names = [f"com.mycompany.hr.svc{i}.Klass{i}.method{i}()" for i in range(n)]

        def run():
            classify = load_catalog(lines).classify
            assert [classify(name)[0] for name in names] == [f"C{i}" for i in range(n)]

        return best_of_three(run)

    assert load_and_classify(10_000) < RATIO * load_and_classify(1_000)
