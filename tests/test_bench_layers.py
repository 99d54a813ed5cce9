"""The benchmark's in-process calls still work against this source tree.

``bench/layers.py`` calls the library directly, stage by stage.  One
round on a small trace, spec and base snapshot runs every call it makes,
so a change to any of them fails here and not only in the benchmark's
own, much longer, self-tests.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from cct_lens import snapshot
from cct_lens import workload as wl
from cct_lens.trace import iter_trace, write_lines

BENCH = Path(__file__).resolve().parents[1] / "bench"
EXCLUDE = "com.mycompany.hr.dao.*"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_round_on_figure8(tmp_path):
    layers = _bench_module("layers")
    files = {name: tmp_path / name for name in ("trace", "spec", "base_snapshot")}
    text = wl.simulate(wl.figure8_preset())
    files["trace"].write_text(text, encoding="utf-8")
    spec_text = json.dumps({"executions": {"register": 3, "login_page": 2}, "seed": 4,
                            "thread_count": 2, "jitter": 0.1})
    files["spec"].write_text(spec_text, encoding="utf-8")
    base = wl.simulate(wl.load_preset(1))
    base_snapshot = snapshot.take_snapshot("load-a", 1, base.encode("utf-8"))
    write_lines(snapshot.snapshot_lines(base_snapshot), files["base_snapshot"])

    spans = layers.Spans()
    out = layers.run_round(spans, files, lenient=False, exclude=EXCLUDE)

    assert {"round", "cct.ingest", "workload.simulate"} <= set(spans.durations())
    assert out["jsonl"].splitlines() == [
        json.dumps({"ts": e.ts, "tid": e.tid, "ev": e.kind, "m": e.method})
        for e in iter_trace(text.splitlines())]
    spec = wl.load_workload_spec(spec_text)
    assert out["counts"]["workload.frames"] == spec.event_count() // 2
    assert out["counts"]["snapshot.diff_rows"] > 0


def test_reference_portal_trace_bytes():
    # the sha256 the benchmark's portal_ingest workload records for this spec
    inputs = _bench_module("inputs")
    spec = wl.load_workload_spec(json.dumps(inputs.portal_spec(150, 0)))
    digest = hashlib.sha256(wl.simulate(spec).encode("utf-8")).hexdigest()
    assert digest == "3994d1cf177ab05b74c7ebfb7bfcbbcd787a2fe7e0f95f3fa88ddcc3ef1f9bb6"
