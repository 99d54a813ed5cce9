"""cct-lens: calling-context-tree profiling toolkit.

Parse method enter/exit traces, build calling context trees, compute
hot-spot and component-utilization reports under instrumentation
filters, diff load-level snapshots, and generate deterministic synthetic
workload traces.

Importing the package loads no submodule: the API lives in the
submodules (``cct_lens.cct``, ``cct_lens.snapshot``, ...), so each
command loads only what it runs.
"""

__version__ = "0.1.0"
