"""Calling context trees built from enter/exit event streams.

A calling context tree (CCT) keeps one node per method *in its calling
context*: calls to the same method from the same parent context merge
into a single node, while recursion produces a chain of distinct nodes,
one per depth.  Each thread gets its own tree under a synthetic root
labelled ``<root:tid>``; a merged view overlays the per-thread trees
method-by-method under a single ``<root>``.  Trees are plain values:
``ingest`` returns the per-thread roots as a ``{tid: root}`` dict and
``merge_ccts`` overlays such a dict; ``ingest_merged`` builds the merged
view in the same pass, with no per-thread trees, and orders its children
as ``merge_ccts`` does.  ``overlay`` is the one loop that copies nodes,
for the merge and the filters.  The trees and ``ingest_call_graph``'s
per-edge sums come from ``loop._ingest``, the one loop that reads a trace.
``cct_json`` and ``forest_json`` give a tree's JSON in chunks as they walk it.

Node times are inclusive nanoseconds.  Self time is derived, never
stored: ``total_time`` minus the children's ``total_time``.  Root nodes
carry the thread's busy time (the sum of their top-level children), so
time conservation holds exactly on every tree.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Reversible

from .loop import MERGED_ROOT, CctNode, _ingest
from .trace import ATTRIBUTE_TO_PARENT, DROP_SUBTREE, TraceEvent, format_trace_line

# fragments per chunk of tree JSON: some 100 KB of text at Java method names
_CHUNK = 1 << 12


def _set_busy_time(root: CctNode) -> None:
    root.total_time = sum(c.total_time for c in root.children.values())


def ingest(lines: Iterable[str], lenient: bool = False,
           warn: Callable[[str], None] | None = None) -> dict[int, CctNode]:
    """Parse, check and build per-thread CCTs from trace text in one pass:
    ``{tid: root}`` in ascending tid order.

    ``lines`` is canonical trace text, one line per item (an open file
    works).  Memory is proportional to the number of distinct calling
    contexts plus open stack depth, not to the event count.

    Every line passes the grammar of ``parse_trace_line`` and fails with
    its message, on its line: the first line of each thread, the first
    enter of each method name, every exit of a name that never entered,
    and any line the loop's quick checks refuse go through
    ``parse_trace_line`` itself.  So both modes refuse a timestamp outside
    the signed 64-bit range at its line.

    Strict mode raises TraceStructureError on orphan exits, mismatched
    exits, frames left open at end of input, or per-thread timestamp
    regressions.  Lenient mode drops orphan and mismatched exits, clamps
    regressing timestamps to the running maximum, and closes frames left
    open at the thread's last observed timestamp, marking them truncated;
    it passes ``warn`` one ``tid T, line N: <repair>`` per repair.  An
    error and a warning for the same defect name the same thread and
    1-based line; frames left open are reported at the last line.
    """
    roots = {}
    for state in sorted(_ingest(lines, lenient, warn, None), key=lambda state: state.tid):
        _set_busy_time(state.root)
        roots[state.tid] = state.root
    return roots


def ingest_merged(lines: Iterable[str], lenient: bool = False,
                  warn: Callable[[str], None] | None = None) -> CctNode:
    """The merged tree ``merge_ccts(ingest(lines))``, built in the ingest pass.

    Checks, errors and warnings are those of ``ingest``.  Every thread
    enters its frames straight into one tree under ``<root>``, so memory
    follows the merged contexts, not the per-thread ones.  Children come
    out in ``merge_ccts`` order.
    """
    root = CctNode(MERGED_ROOT, invocations=1)
    _ingest(lines, lenient, warn, root)
    # children were made in order of first enter; merge_ccts orders them by
    # the lowest tid that has them, then by that tid's first enter
    stack = [root]
    while stack:
        node = stack.pop()
        kids = node.children
        if len(kids) > 1:
            keys = [kid._order for kid in kids.values()]
            if keys != sorted(keys):
                # keys are distinct: no two children share a first enter line
                node.children = {kid.method: kid for _, kid in sorted(zip(keys, kids.values()))}
        for kid in kids.values():
            del kid._order
            if kid.children:
                stack.append(kid)
    _set_busy_time(root)
    return root


def build_forest(events: Iterable[TraceEvent], lenient: bool = False,
                 warn: Callable[[str], None] | None = None) -> dict[int, CctNode]:
    """Build per-thread CCTs from an interleaved event stream: ``ingest`` on its lines.

    Events must be in file order (per-thread subsequences ordered).  Each
    is rendered with ``format_trace_line``, so it must meet the line
    grammar (kind ``E`` or ``X``, tid >= 0, a non-empty method without
    whitespace, a signed 64-bit timestamp) or its error is raised.
    Messages count the events from 1 as lines.
    """
    return ingest(map(format_trace_line, events), lenient=lenient, warn=warn)


def overlay(dst: CctNode, nodes: Reversible[CctNode],
            keep: Callable[[str], bool] | None = None, splice: bool = True) -> None:
    """Copy ``nodes`` and their callees under ``dst`` in one preorder pass,
    sharing nothing.  A node whose parent copy has a callee of its method
    collapses into it: counts and times add, ``truncated`` is OR-ed.  A
    node ``keep`` refuses is not copied; its callees go under its parent
    with ``splice``.  Without it they are skipped, and each total, ``dst``'s
    too, is the self time it had or was copied with plus its copied callees'
    totals, so a skipped callee's time leaves every total above it."""
    # (parent copy, source node), popped in order
    stack = [(dst, node) for node in reversed(nodes)]
    made = []  # without splice, (parent copy, copy): each caller before its callees
    while stack:
        parent, node = stack.pop()
        method = node.method
        if keep is None or keep(method):
            copy = parent.children.get(method)
            if copy is None:
                copy = parent.children[method] = CctNode(method, node.invocations,
                                                         node.total_time, node.truncated)
                if not splice:
                    made.append((parent, copy))
            else:
                copy.invocations += node.invocations
                copy.total_time += node.total_time
                copy.truncated = copy.truncated or node.truncated
            parent = copy
        elif not splice:
            continue
        for child in reversed(node.children.values()):
            if not splice:
                parent.total_time -= child.total_time
            stack.append((parent, child))
    # callees first, so each copy's total is final when its caller's grows
    for parent, copy in reversed(made):
        parent.total_time += copy.total_time


def merge_ccts(roots: dict[int, CctNode]) -> CctNode:
    """Overlay per-thread trees ``{tid: root}`` into one tree under a ``<root>`` node.

    Threads are overlaid in ascending tid order, so child order in the
    merged tree is deterministic.  The merged root's total is the summed
    busy time of all threads.
    """
    merged = CctNode(MERGED_ROOT, invocations=1)
    for tid in sorted(roots):
        overlay(merged, roots[tid].children.values())
    _set_busy_time(merged)
    return merged


class CallGraphEdge(NamedTuple):
    caller: str
    callee: str
    calls: int
    callee_total_time: int


def project_call_graph(root: CctNode) -> list[CallGraphEdge]:
    """Collapse a CCT to caller->callee edges, summing over contexts.

    The synthetic root appears as caller for top-level methods.  Edges are
    sorted by descending call count, then caller, then callee.
    """
    acc: dict[str, dict[str, list[int]]] = {}
    # any visiting order will do: the sort below is total
    for node in root.walk():
        cells = acc.get(node.method) or acc.setdefault(node.method, {})
        for child in node.children.values():
            cell = cells.get(child.method) or cells.setdefault(child.method, [0, 0])
            cell[0] += child.total_time
            cell[1] += child.invocations
    return _sorted_edges(acc)


def ingest_call_graph(lines: Iterable[str], lenient: bool = False,
                      warn: Callable[[str], None] | None = None,
                      filter_set: FilterSet | None = None,
                      filter_mode: str = ATTRIBUTE_TO_PARENT) -> list[CallGraphEdge]:
    """``project_call_graph(filters.apply_filter(ingest_merged(lines), filter_set,
    filter_mode))``, added up as frames close, with the checks of ``ingest``:
    memory follows the caller/callee pairs, not the contexts.  No
    ``filter_set`` keeps every method."""
    # only callgraph filters here: export loads no filters
    from .filters import FilterSet, keeper

    acc: dict[str, dict[str, list]] = {}
    _ingest(lines, lenient, warn, acc, True, keeper(filter_set or FilterSet(), filter_mode),
            filter_mode == DROP_SUBTREE, True)
    return _sorted_edges(acc)


def _sorted_edges(acc: dict[str, dict[str, list]]) -> list[CallGraphEdge]:
    """The edges ``{caller: {callee: [callee total ns, calls, ...]}}``, sorted."""
    edges = [CallGraphEdge(caller, callee, cell[1], cell[0])
             for caller in sorted(acc) for callee, cell in sorted(acc[caller].items())]
    # stable: edges of equal counts stay in (caller, callee) order
    edges.sort(key=attrgetter("calls"), reverse=True)
    return edges


def folded_stacks(root: CctNode) -> Iterator[str]:
    """Flame-graph style folded lines: ``m1;m2;...;mN <self_ns>``, as they come.

    One line per non-root node, preorder, with the synthetic root omitted
    from the path.  Self time may be zero; lines are still emitted so the
    output enumerates every context.
    """
    # stack of (node, path-prefix)
    stack: list[tuple[CctNode, str]] = [
        (child, child.method) for child in reversed(root.children.values())
    ]
    while stack:
        node, path = stack.pop()
        self_ns = node.total_time
        for child in reversed(node.children.values()):
            self_ns -= child.total_time
            stack.append((child, f"{path};{child.method}"))
        yield f"{path} {self_ns}"


def edge_lines(edges: Iterable[CallGraphEdge]) -> Iterator[str]:
    """Call-graph edges as tab-separated rows under a comment header, as they come."""
    yield "# caller\tcallee\tcalls\tcallee_total_ns"
    for e in edges:
        yield f"{e.caller}\t{e.callee}\t{e.calls}\t{e.callee_total_time}"


def _tree_json(head: str, trees: Iterable[tuple[str, CctNode]], tail: str) -> Iterator[str]:
    """``head``, each ``prefix`` and its tree ``{"m","inv","ns"[,"trunc"][,"ch"]}`` as
    ``json.dumps`` with ``separators=(",", ":")`` writes it, and ``tail``, walked
    iteratively: the text in chunks of about ``_CHUNK`` fragments."""
    out = [head]
    for prefix, root in trees:
        out.append(prefix)
        # nodes still to write, and the text that separates or closes them
        stack: list[CctNode | str] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            if len(out) > _CHUNK:
                yield "".join(out)
                out.clear()
            out.append(f'{{"m":{_json_string(node.method)},"inv":{node.invocations},'
                       f'"ns":{node.total_time}')
            if node.truncated:
                out.append(',"trunc":true')
            if node.children:
                out.append(',"ch":[')
                text = "]}"
                for child in reversed(node.children.values()):
                    stack += (text, child)
                    text = ","
            else:
                out.append("}")
    out.append(tail)
    yield "".join(out)


def cct_json(root: CctNode) -> Iterator[str]:
    """Lossless JSON form of one tree (structure, counts, times, flags), in chunks."""
    return _tree_json('{"format":"cct-lens/cct@1","tree":', [("", root)], "}")


def forest_json(roots: dict[int, CctNode]) -> Iterator[str]:
    """Every thread's tree ``{tid: root}`` under its tid, in ascending tid order, in chunks."""
    return _tree_json('{"format":"cct-lens/forest@1","threads":{', (
        (f'{"," if i else ""}"{tid}":', roots[tid]) for i, tid in enumerate(sorted(roots))), "}}")


def serialize_cct(root: CctNode) -> str:
    """``cct_json(root)`` as one string."""
    return "".join(cct_json(root))


def serialize_forest(roots: dict[int, CctNode]) -> str:
    """``forest_json(roots)`` as one string."""
    return "".join(forest_json(roots))
