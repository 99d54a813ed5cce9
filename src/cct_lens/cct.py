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
for the merge and the filters.  ``_ingest`` is the one loop that reads a
trace, for the trees, for ``snapshot.ingest_totals``'s per-method sums and
for ``ingest_call_graph``'s per-edge sums, which need no tree.
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

from .filters import ATTRIBUTE_TO_PARENT, DROP_SUBTREE, FilterSet, keeper
from .trace import (ENTER, EXIT, TraceEvent, TraceStructureError, clip, format_trace_line,
                    parse_trace_line)

MERGED_ROOT = "<root>"
# fragments per chunk of tree JSON: some 100 KB of text at Java method names
_CHUNK = 1 << 12


def root_label(tid: int) -> str:
    return f"<root:{tid}>"


class CctNode:
    """One method in one calling context.

    ``children`` maps method name to child node in first-encounter order.
    ``truncated`` marks frames that were force-closed by lenient recovery
    rather than by an observed exit.  ``ingest_merged`` keeps each node's
    order key, one int, in ``_order`` while it builds, and deletes it when done.
    """

    __slots__ = ("method", "invocations", "total_time", "truncated", "children", "_order")

    def __init__(self, method: str, invocations: int = 0, total_time: int = 0,
                 truncated: bool = False):
        self.method = method
        self.invocations = invocations
        self.total_time = total_time
        self.truncated = truncated
        self.children: dict[str, CctNode] = {}

    def self_time(self) -> int:
        return self.total_time - sum(c.total_time for c in self.children.values())

    def walk(self) -> Iterator["CctNode"]:
        """Iterative preorder walk over this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            # most nodes are leaves; reversed so children come off the stack
            # in encounter order
            if node.children:
                stack += reversed(node.children.values())

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CctNode):
            return NotImplemented
        work = [(self, other)]
        while work:
            a, b = work.pop()
            if a is b:
                continue
            if ((a.method, a.invocations, a.total_time, a.truncated)
                    != (b.method, b.invocations, b.total_time, b.truncated)
                    or a.children.keys() != b.children.keys()):
                return False
            work.extend((child, b.children[method]) for method, child in a.children.items())
        return True

    def __repr__(self) -> str:
        return (f"CctNode({self.method!r}, inv={self.invocations}, "
                f"total={self.total_time}, children={len(self.children)})")


class _ThreadState:
    __slots__ = ("tid", "key", "top", "root", "stack", "last_ts", "dropped")

    def __init__(self, tid: int, ts: int, root: CctNode | dict, base: tuple):
        self.tid = tid
        # the order keys of the thread's lines, ``key + lineno``, are at most ``top``
        self.key, self.top = tid << 64, ((tid + 1) << 64) - 1
        self.root = root  # a tree, or sums {method: [total, invocations, callee ns]}
        # frames (method, enter_ts, node), or for sums (method, enter_ts, cell,
        # cell of the nearest kept caller), over ``base``, the root's, of no method
        self.stack: list[tuple] = [base]
        # running maximum of the thread's timestamps; origins may be negative
        self.last_ts = ts
        # drop mode: the time of the dropped frames closed, left out of each timestamp
        self.dropped = 0


def _defect(lenient: bool, warn: Callable[[str], None] | None, tid: int, lineno: int,
            error: str, repair: str, *values) -> None:
    """Raise ``error`` as thread ``tid``'s TraceStructureError at line ``lineno``,
    or, lenient, warn ``tid T, line N: <repair>``: ``str.format`` templates
    over ``values``, of which only the one used is built.  Callers cut each
    name it quotes with ``trace.clip``."""
    if not lenient:
        raise TraceStructureError(error.format(*values), lineno, tid)
    if warn is not None:
        warn(f"tid {tid}, line {lineno}: {repair.format(*values)}")


def _set_busy_time(root: CctNode) -> None:
    root.total_time = sum(c.total_time for c in root.children.values())


def _ingest(lines: Iterable[str], lenient: bool, warn: Callable[[str], None] | None,
            shared: CctNode | dict | None, sums: bool = False,
            keep: Callable[[str], bool] | None = None, drop: bool = False, edges: bool = False
            ) -> Iterable[_ThreadState]:
    """The one loop of ``ingest``, ``ingest_merged``, ``ingest_call_graph`` and
    ``snapshot.ingest_totals``: the threads in order of their first line,
    each with its frames closed.

    Each thread builds its tree, or with ``sums`` adds up the sums of its
    frames of methods ``keep`` keeps, into ``shared`` or a root of its own: a
    refused frame's callees are its caller's, or with ``drop`` are dropped
    with its time.  The sums are per method, or with ``edges`` per nearest
    kept caller and method, ``{caller: {method: [total, calls, callee ns,
    the method's own dict of callees]}}``.  A shared tree's nodes keep
    their ``merge_ccts`` order key in ``_order``: ``(tid << 64) + lineno``
    for the lowest tid that entered one and the line of that tid's first
    enter.  Trees, the sums but the shared per-method ones, and their
    frames hold the one string per method name that ``checked`` keeps:
    that of the name's first admitted enter.
    """
    keyed = shared is not None and not sums
    # threads by the canonical text of their id, and method names that
    # passed the grammar check on an enter, each with its shared cell or
    # itself, None if keep refuses it: every such name labels a context or a
    # sum, so both are bounded by the trees or tables made
    threads: dict[str, _ThreadState] = {}
    checked = shared if sums and shared is not None and not edges else {}
    # the caller cell of outermost frames, whose sums no table reads (with
    # edges, it holds the callees of <root>), and the base frame of every
    # thread that builds into a shared root or adds up sums
    outside = [0, 0, 0, shared.setdefault(MERGED_ROOT, {})] if edges else [0, 0, 0]
    base = (None, 0, outside if sums else shared)
    lineno = 0
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip()
        if not line or line[0] == "#":
            continue
        try:
            raw_ts, raw_tid, kind, method = line.split("\t")
            ts = int(raw_ts)
            state = threads[raw_tid]
            kept = checked[method]
            # the range parse_trace_line checks, as two compares
            known = (kind == ENTER or kind == EXIT) and -2**63 <= ts < 2**63
        except (ValueError, KeyError):
            known = False
        if not known:
            # raises the grammar error, or admits a new thread or method name
            ts, tid, kind, method = parse_trace_line(line, lineno)
            if kind == ENTER and method not in checked:
                # an exit whose name never entered cannot match a frame
                checked[method] = (None if keep is not None and not keep(method)
                                   else [0, 0, 0] if checked is shared else method)
            kept = checked.get(method)
            state = threads.get(str(tid))
            if state is None:
                root = (shared if shared is not None else {} if sums
                        else CctNode(root_label(tid), invocations=1))
                state = threads[str(tid)] = _ThreadState(
                    tid, ts, root, base if base[2] is not None else (None, 0, root))
        if ts < state.last_ts:
            _defect(lenient, warn, state.tid, lineno, "timestamp regression {} -> {}",
                    "clamped timestamp regression {} -> {}", state.last_ts, ts)
            ts = state.last_ts
        else:
            state.last_ts = ts
        stack = state.stack
        if kind == ENTER:
            if not sums:
                method = kept
                parent = stack[-1][2]
                node = parent.children.get(method)
                if node is None:
                    node = parent.children[method] = CctNode(method)
                    if keyed:
                        node._order = state.key + lineno
                elif keyed and node._order > state.top:
                    node._order = state.key + lineno
                node.invocations += 1
                stack.append((method, ts, node))
                continue
            top = stack[-1]
            # a refused frame passes its caller on; under a dropped frame, None
            caller = top[2] or top[3]
            if drop:
                ts -= state.dropped
                if caller is None:
                    kept = None
                elif not kept:
                    # the outermost dropped frame, whose time its callers leave out
                    kept, caller = False, None
            if type(kept) is str:
                method = kept
                cells = caller[3] if edges else state.root
                kept = cells.get(method) or cells.setdefault(
                    method, [0, 0, 0, state.root.setdefault(method, {})] if edges else [0, 0, 0])
            stack.append((method, ts, kept, caller))
            continue
        frame = stack[-1]
        if frame[0] != method:
            if frame[0] is None:
                _defect(lenient, warn, state.tid, lineno, "orphan exit for {} (empty stack)",
                        "dropped orphan exit for {}", clip(method))
            else:
                _defect(lenient, warn, state.tid, lineno,
                        "mismatched exit: got {}, innermost open frame is {}",
                        "dropped mismatched exit for {} (innermost open frame: {})",
                        clip(method), clip(frame[0]))
            continue
        stack.pop()
        if not sums:
            frame[2].total_time += ts - frame[1]
            continue
        if drop:
            ts -= state.dropped
        cell, ns = frame[2], ts - frame[1]
        if cell:
            cell[0] += ns
            cell[1] += 1
            frame[3][2] += ns
        elif cell is False:
            state.dropped += ns
    for state in threads.values():
        stack, last_ts = state.stack, state.last_ts
        if len(stack) > 1:
            _defect(lenient, warn, state.tid, lineno,
                    "{0} frame(s) still open at end of trace (innermost: {1})",
                    "closed {0} frame(s) left open at end of trace (ts {2})",
                    len(stack) - 1, clip(stack[-1][0]), last_ts)
        # close open frames at the last observed timestamp, innermost first
        while len(stack) > 1:
            frame = stack.pop()
            ns = last_ts - state.dropped - frame[1]
            if not sums:
                frame[2].total_time += ns
                frame[2].truncated = True
                continue
            cell = frame[2]
            if cell:
                cell[0] += ns
                cell[1] += 1
                frame[3][2] += ns
            elif cell is False:
                state.dropped += ns
    return threads.values()


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
                      filter_set: FilterSet = FilterSet(), filter_mode: str = ATTRIBUTE_TO_PARENT
                      ) -> list[CallGraphEdge]:
    """``project_call_graph(filters.apply_filter(ingest_merged(lines), filter_set,
    filter_mode))``, added up as frames close, with the checks of ``ingest``:
    memory follows the caller/callee pairs, not the contexts."""
    acc: dict[str, dict[str, list]] = {}
    _ingest(lines, lenient, warn, acc, True, keeper(filter_set, filter_mode),
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
