"""Regenerate the 20-user HR portal hot-spot snapshot from scratch.

Simulates the calibrated preset, analyzes the resulting trace, and prints
the hot-spot, total-time, and component-utilization tables.  With jitter
at zero the run is byte-reproducible, so the printed numbers (1267 ms /
41.4% for getConnection, 50/20/20/10 invocation counts, ...) come out
identical on every machine.

Usage:
    python scripts/reproduce_hotspot_table.py
    python scripts/reproduce_hotspot_table.py --preset figure8 --format json
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from cct_lens import workload
from cct_lens.report import REPORT_FORMATS, analysis_lines
from cct_lens.snapshot import ingest_totals, tabulate
from cct_lens.trace import join_lines, write_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="figure8",
                        choices=sorted(workload.PRESETS))
    parser.add_argument("--format", default="text", choices=REPORT_FORMATS)
    parser.add_argument("-o", "--output", help="report file (default: stdout)")
    args = parser.parse_args(argv)

    spec = workload.PRESETS[args.preset]()
    lines = list(workload.simulate_lines(spec))
    digest = hashlib.sha256(join_lines(lines).encode("utf-8")).hexdigest()
    print(f"trace: {sum(1 for l in lines if not l.startswith('#'))} "
          f"events, sha256={digest[:16]}...", file=sys.stderr)

    tables = tabulate(ingest_totals(lines))
    try:
        write_lines(analysis_lines([("merged", tables)], args.format), args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
