"""Time grows linearly in each input dimension.

Each law times an in-process call at sizes n and 10n, best of three, and
asserts a ratio under 20: linear work gives about 10 and quadratic work
about 100, so the noise of a shared machine does not decide the result.
The collector is off while a call runs, as ``cli.main`` runs commands.
The dimensions covered so far are those of ``workload.simulate_lines``: a
spec's threads and its executions.
"""

import gc
import time

from cct_lens import workload as wl

RATIO = 20


def best_time(spec: wl.WorkloadSpec) -> float:
    """The best of three runs of ``simulate_lines`` on ``spec``, each checked
    to give every line."""
    times = []
    for _ in range(3):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            lines = sum(1 for _ in wl.simulate_lines(spec))
            times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        assert lines == 3 + spec.event_count()
    return min(times)


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
