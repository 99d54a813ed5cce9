"""Command-line surface: simulate, analyze, diff, callgraph, export.

Reports go to standard output (or ``-o``); diagnostics go to standard
error, so pipelines compose.  Exit status 0 means no error; argparse
usage errors exit 2; everything else exits 1 with a message.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .trace import (ATTRIBUTE_TO_PARENT, FILTER_MODES, REPORT_FORMATS, errors_in, jsonl_lines,
                    text_lines, write_lines)


def _warn(message: str) -> None:
    # one write per warning: print writes the newline on its own
    sys.stderr.write(f"warning: {message}\n")


def _filter_set(args) -> FilterSet:
    from .filters import FilterSet

    return FilterSet.from_patterns(args.include or (), args.exclude or ())


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--include", action="append", metavar="PATTERN",
                   help="keep only methods matching PATTERN (repeatable; trailing * = prefix)")
    p.add_argument("--exclude", action="append", metavar="PATTERN",
                   help="reject methods matching PATTERN (repeatable)")
    p.add_argument("--filter-mode", choices=FILTER_MODES, default=ATTRIBUTE_TO_PARENT,
                   help="attribute: splice filtered frames into parents; drop: remove subtrees")


def _ingest_file(ingest, path: str, lenient: bool, sha256=None, **options):
    """``ingest`` (``cct.ingest``, ``cct.ingest_merged``, ``cct.ingest_call_graph`` or
    ``snapshot.ingest_totals``, with ``options``) over the lines ``trace.text_lines``
    reads from a trace file, feeding ``sha256`` if given."""
    with errors_in(path), open(path, "rb") as fh:
        return ingest(text_lines(fh, sha256), lenient=lenient, warn=_warn if lenient else None,
                      **options)


def cmd_simulate(args) -> int:
    # only this command generates traces or takes a digest of its output
    import hashlib

    from . import workload

    if bool(args.preset) == bool(args.spec):
        raise ValueError("exactly one of --preset or --spec is required")
    if args.preset:
        maker = workload.PRESETS.get(args.preset)
        if maker is None:
            known = ", ".join(sorted(workload.PRESETS))
            raise ValueError(f"unknown preset {args.preset!r} (known: {known})")
        spec = maker()
    else:
        spec = workload.load_workload_spec_file(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    sha256 = hashlib.sha256()
    # a timeline past 2**63 - 1 ns is an error of the spec
    with errors_in(args.spec or args.preset):
        write_lines(workload.simulate_lines(spec), args.output, sha256)
    summary = f"events={spec.event_count()} sha256={sha256.hexdigest()}"
    if args.output is None:
        print(summary, file=sys.stderr)
    else:
        write_lines([summary])
    return 0


def cmd_analyze(args) -> int:
    # only analyze tabulates and reports
    from . import metrics, report, snapshot
    from .compare import _INT_LIMIT, Snapshot
    from .components import load_catalog_file

    if args.snapshot_out and not 0 <= args.user_count < _INT_LIMIT:
        raise ValueError(f"--user-count must be {'>= 0' if args.user_count < 0 else 'below 2**96'}")
    catalog = load_catalog_file(args.catalog) if args.catalog else None
    sha256 = None
    if args.snapshot_out:
        # the snapshot records the sha256 of the bytes the tables came from
        import hashlib
        sha256 = hashlib.sha256()
    totals = _ingest_file(snapshot.ingest_totals, args.trace, args.lenient, sha256,
                          filter_set=_filter_set(args), filter_mode=args.filter_mode,
                          per_thread=args.per_thread)
    threads = totals if args.per_thread else {}
    # a snapshot holds the merged view whatever the report shows, and a
    # trace without threads gets the merged view even with --per-thread
    if args.snapshot_out or not threads:
        merged = metrics.add_totals(threads.values()) if args.per_thread else totals
        merged_tables = snapshot.tabulate(merged, catalog)
    if args.snapshot_out:
        # argv holds a byte that is not UTF-8 as a surrogate; a snapshot has U+FFFD
        label = args.trace if args.label is None else args.label
        label = label.encode("utf-8", "surrogateescape")
        snap = Snapshot(label.decode("utf-8", "replace"), args.user_count,
                        merged_tables.hot_spots, merged_tables.components, sha256.hexdigest())
        write_lines(snapshot.snapshot_lines(snap), args.snapshot_out)
        print(f"snapshot written to {args.snapshot_out}", file=sys.stderr)
    # each thread's tables are made as its section is written
    sections = (((f"thread {tid}", snapshot.tabulate(table, catalog))
                 for tid, table in threads.items()) if threads else [("merged", merged_tables)])
    write_lines(report.analysis_lines(sections, args.format, labeled=len(threads) > 1),
                args.output)
    return 0


def cmd_diff(args) -> int:
    # the checked rows are all a diff reads: no typed rows, no analysis modules
    from .compare import check_snapshot, diff, diff_lines, load_snapshot_file

    snap_a = load_snapshot_file(args.snapshot_a, check_snapshot)
    snap_b = load_snapshot_file(args.snapshot_b, check_snapshot)
    write_lines(diff_lines(diff(snap_a, snap_b), snap_a, snap_b, args.format), args.output)
    return 0


def cmd_callgraph(args) -> int:
    from . import cct, filters

    filter_set = _filter_set(args)  # either format checks it before it reads the trace
    if args.format == "edges":
        edges = _ingest_file(cct.ingest_call_graph, args.trace, args.lenient,
                             filter_set=filter_set, filter_mode=args.filter_mode)
        lines = cct.edge_lines(edges)
    else:
        merged = _ingest_file(cct.ingest_merged, args.trace, args.lenient)
        lines = cct.folded_stacks(filters.apply_filter(merged, filter_set, args.filter_mode))
    write_lines(lines, args.output)
    return 0


def cmd_export(args) -> int:
    if args.format == "jsonl":
        # events stream straight through without building a tree, so
        # writing the trace being read would truncate it before it is read
        if (args.output is not None and os.path.exists(args.output)
                and os.path.samefile(args.trace, args.output)):
            raise ValueError(f"{args.output}: the output is the trace being read")
        with errors_in(args.trace), open(args.trace, "rb") as fh:
            write_lines(jsonl_lines(text_lines(fh)), args.output)
        return 0
    from . import cct

    # the trace is read whole before the output is opened, so it may be the output
    if args.format == "forest":
        lines = cct.forest_json(_ingest_file(cct.ingest, args.trace, args.lenient))
    else:
        root = _ingest_file(cct.ingest_merged, args.trace, args.lenient)
        lines = cct.cct_json(root) if args.format == "cct" else cct.folded_stacks(root)
    write_lines(lines, args.output, pieces=args.format != "folded")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cct-lens",
        description="Calling-context-tree toolkit: simulate workloads, analyze "
                    "enter/exit traces, diff load-level snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a deterministic synthetic trace")
    p.add_argument("--preset", help="built-in workload name (e.g. figure8)")
    p.add_argument("--spec", help="workload spec file (JSON)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("-o", "--output", help="trace file (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="hot-spot, total-time, and component tables")
    p.add_argument("trace", help="trace file")
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    _add_filter_flags(p)
    p.add_argument("--catalog", help="component catalog file (default: built-in HR catalog)")
    p.add_argument("--per-thread", action="store_true",
                   help="one report section per thread instead of the merged view")
    p.add_argument("--lenient", action="store_true",
                   help="repair defective traces instead of aborting")
    p.add_argument("--snapshot-out", metavar="FILE", help="persist the analysis as a snapshot")
    p.add_argument("--label", help="snapshot label (default: trace path)")
    p.add_argument("--user-count", type=int, default=0, help="snapshot load-level metadata")
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diff", help="compare two snapshots per method")
    p.add_argument("snapshot_a", help="baseline snapshot file")
    p.add_argument("snapshot_b", help="comparison snapshot file")
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("callgraph", help="project the trace to a call graph")
    p.add_argument("trace", help="trace file")
    p.add_argument("--format", choices=("edges", "folded"), default="edges")
    _add_filter_flags(p)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_callgraph)

    p = sub.add_parser("export", help="convert a trace to other representations")
    p.add_argument("trace", help="trace file")
    p.add_argument("--format", choices=("cct", "forest", "folded", "jsonl"), default="cct")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.output == "-":
        args.output = None  # "-o -" is standard output
    # trees, tables and reports hold no reference cycles, so the cyclic
    # collector would only walk the live tree again and again; an
    # in-process caller gets its own setting back
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
