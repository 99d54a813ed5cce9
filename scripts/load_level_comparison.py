"""Compare per-method averages across two simulated load levels.

Generates one trace per load level with the load-independent latency
preset, snapshots both, and prints the per-method diff.  At jitter 0
every shared method's average ratio is exactly 1 regardless of user
count; small jitter perturbs the ratios but keeps them near 1, which is
the behavior the diff report is designed to surface.

Usage:
    python scripts/load_level_comparison.py
    python scripts/load_level_comparison.py --users-b 50 --jitter 0.1
"""

from __future__ import annotations

import argparse
import sys

from cct_lens import workload
from cct_lens.compare import diff, diff_lines
from cct_lens.snapshot import take_snapshot
from cct_lens.trace import REPORT_FORMATS, write_lines


def snapshot_for(users: int, jitter: float, seed: int):
    spec = workload.load_preset(users, jitter=jitter, seed=seed)
    text = workload.simulate(spec)
    return take_snapshot(label=f"{users}-user", user_count=users,
                         trace_bytes=text.encode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users-a", type=int, default=1)
    parser.add_argument("--users-b", type=int, default=20)
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="latency noise amplitude, 0 disables")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--format", default="text", choices=REPORT_FORMATS)
    parser.add_argument("-o", "--output", help="report file (default: stdout)")
    args = parser.parse_args(argv)

    try:
        snap_a = snapshot_for(args.users_a, args.jitter, args.seed)
        snap_b = snapshot_for(args.users_b, args.jitter, args.seed)
        write_lines(diff_lines(diff(snap_a, snap_b), snap_a, snap_b, args.format), args.output)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
