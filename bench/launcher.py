"""Run commands one at a time; report each one's wall time and peak RSS.

Linux starts a new process's ``ru_maxrss`` from the peak RSS of the
process that spawned it.  The benchmark's own memory grows with the
oracle replays and the in-process layers, so it spawns every command
through this small, long-lived process instead of directly.

Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": DIR, "stdout": FILE, "stderr": FILE}``, answered
by one JSON line ``{"wall_s": float, "maxrss_kib": int, "exit": int}``.
A command that runs longer than ``TIMEOUT_S`` is killed (exit -9).  The
launcher exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time

# A command still running after this many seconds is killed and fails.
TIMEOUT_S = 60


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                          "exit": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
