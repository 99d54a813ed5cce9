"""Per-layer timings: in-process calls into each module, recorded as spans.

One round calls every public stage the CLI is made of, on the same files
the CLI commands read, each inside a span named after its module.  The
spans are recorded by this file, around the calls; nothing inside the
program is instrumented.  Span names follow the ``--stats`` stage
vocabulary: parse, build, merge, filter, aggregate, render.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """Spans kept in memory: [name, start, end, parent index].

    A disabled recorder runs the same code with nothing recorded, so the
    difference between the two is the cost of tracing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self) -> dict[str, float]:
        return {name: end - start for name, start, end, _ in self.records}

    def tree_lines(self) -> list[str]:
        """The span tree, one line per span: duration and self time."""
        child_time = [0.0] * len(self.records)
        depth = [0] * len(self.records)
        for i, (_, start, end, parent) in enumerate(self.records):
            if parent >= 0:
                child_time[parent] += end - start
                depth[i] = depth[parent] + 1
        lines = []
        for i, (name, start, end, _) in enumerate(self.records):
            lines.append(f"{'  ' * depth[i]}{name:<{28 - 2 * depth[i]}} "
                         f"{(end - start) * 1e3:10.2f} ms  self {(end - start - child_time[i]) * 1e3:10.2f} ms")
        return lines


def run_round(spans: Spans, files: dict, lenient: bool, exclude: str) -> dict:
    """One pass over every layer; returns the outputs the oracle checks.

    ``files`` names the workload trace, the workload's simulate spec and
    the base-level snapshot written in set-up.
    """
    from cct_lens import cct, components, metrics, report, snapshot, trace, workload
    from cct_lens.filters import ATTRIBUTE_TO_PARENT, DROP_SUBTREE, FilterSet, apply_filter

    path = files["trace"]
    # the CLI passes a warning callback only in lenient mode
    warn = (lambda message: None) if lenient else None
    out: dict = {}
    with spans.span("round"):
        with spans.span("trace.read_lines"):
            with open(path, "r", encoding="utf-8") as fh:
                for _ in fh:
                    pass
        with spans.span("trace.parse"):
            with open(path, "r", encoding="utf-8") as fh:
                events = list(trace.iter_trace(fh))
        with spans.span("cct.build"):
            cct.build_forest(events, lenient=lenient, warn=warn)
        del events
        with spans.span("trace.jsonl"):
            with open(path, "r", encoding="utf-8") as fh:
                out["jsonl"] = "\n".join(trace.events_to_jsonl(trace.iter_trace(fh)))
        with spans.span("analyze"):
            with spans.span("cct.ingest"):
                with open(path, "r", encoding="utf-8") as fh:
                    forest = cct.build_forest(trace.iter_trace(fh), lenient=lenient, warn=warn)
            with spans.span("cct.merge"):
                merged = cct.merge_ccts(forest)
            with spans.span("metrics.hotspots"):
                hot = metrics.hotspots(merged)
            with spans.span("metrics.total_time"):
                totals = metrics.total_time_table(merged)
            with spans.span("components.utilization"):
                comps = components.component_utilization(hot, components.default_hr_catalog())
            tables = {"merged": report.AnalysisTables(hot, totals, comps)}
            with spans.span("report.render_text"):
                out["text"] = report.render_analysis(tables, "text")
        with spans.span("report.render_json"):
            report.render_analysis(tables, "json")
        filter_set = FilterSet.from_patterns(excludes=[exclude])
        with spans.span("filters.attribute"):
            kept = apply_filter(merged, filter_set, ATTRIBUTE_TO_PARENT)
        with spans.span("filters.drop"):
            apply_filter(merged, filter_set, DROP_SUBTREE)
        with spans.span("cct.callgraph"):
            out["edges"] = cct.project_call_graph(merged)
        with spans.span("cct.folded"):
            out["folded"] = "\n".join(cct.folded_stacks(merged))
        with spans.span("cct.serialize"):
            out["forest"] = cct.serialize_forest(forest)
        with spans.span("snapshot.take"):
            with open(path, "rb") as fh:
                snap_b = snapshot.take_snapshot("load-b", 20, fh.read(), lenient=lenient)
        with spans.span("snapshot.dump"):
            out["snapshot"] = snapshot.dump_snapshot(snap_b)
        with open(files["base_snapshot"], "r", encoding="utf-8") as fh:
            base_text = fh.read()
        with spans.span("snapshot.load"):
            snap_a = snapshot.load_snapshot(base_text)
            snap_b = snapshot.load_snapshot(out["snapshot"])
        with spans.span("snapshot.diff"):
            rows = snapshot.diff(snap_a, snap_b)
        with spans.span("report.render_diff"):
            out["diff"] = report.render_diff(rows, snap_a, snap_b, "text")
        with spans.span("workload.simulate"):
            simulated = workload.simulate(workload.load_workload_spec_file(files["spec"]))
    out["counts"] = {
        "cct.serialize_bytes": len(out["forest"]),
        "filters.nodes_kept": kept.node_count(),
        "metrics.methods": len(hot),
        "components.rows": len(comps),
        "report.bytes": len(out["text"].encode("utf-8")),
        "snapshot.diff_rows": len(rows),
        "workload.frames": sum(1 for line in simulated.splitlines()
                               if line and not line.startswith("#")) // 2,
    }
    return out
