"""cct-lens: calling-context-tree profiling toolkit.

Parse method enter/exit traces, build calling context trees, compute
hot-spot and component-utilization reports under instrumentation
filters, diff load-level snapshots, and generate deterministic synthetic
workload traces.
"""

from .cct import (CctForest, CctNode, build_cct, build_forest, folded_stacks,
                  ingest, merge_ccts, project_call_graph, self_time)
from .components import ComponentCatalog, Tier, component_utilization, default_hr_catalog
from .filters import ATTRIBUTE_TO_PARENT, DROP_SUBTREE, FilterSet, apply_filter
from .metrics import HotSpotRow, avg_per_invocation, hotspots, total_time_table
from .snapshot import Snapshot, diff, take_snapshot
from .trace import TraceEvent, parse_trace_line
from .workload import (FIGURE8_TABLE, CallChain, LatencyModel, WorkloadSpec,
                       figure8_preset, hr_scenarios, load_preset, simulate)

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_TO_PARENT",
    "DROP_SUBTREE",
    "CallChain",
    "CctForest",
    "CctNode",
    "ComponentCatalog",
    "FIGURE8_TABLE",
    "FilterSet",
    "HotSpotRow",
    "LatencyModel",
    "Snapshot",
    "Tier",
    "TraceEvent",
    "WorkloadSpec",
    "apply_filter",
    "avg_per_invocation",
    "build_cct",
    "build_forest",
    "component_utilization",
    "default_hr_catalog",
    "diff",
    "figure8_preset",
    "folded_stacks",
    "hotspots",
    "hr_scenarios",
    "ingest",
    "load_preset",
    "merge_ccts",
    "parse_trace_line",
    "project_call_graph",
    "self_time",
    "simulate",
    "take_snapshot",
    "total_time_table",
]
