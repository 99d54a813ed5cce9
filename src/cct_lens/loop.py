"""The one loop that reads a trace, ``_ingest``, and the ``CctNode``s it builds.

It makes the trees of ``cct``, and the per-method sums of
``snapshot.ingest_totals`` and per-edge sums of ``cct.ingest_call_graph``,
which need no tree; ``analyze`` loads it without ``cct``.  ``_defect``
decides between a strict error and a lenient repair for every defect.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .trace import ENTER, EXIT, TraceStructureError, clip, parse_trace_line

MERGED_ROOT = "<root>"


def root_label(tid: int) -> str:
    return f"<root:{tid}>"


class CctNode:
    """One method in one calling context.

    ``children`` maps method name to child node in first-encounter order.
    ``truncated`` marks frames that were force-closed by lenient recovery
    rather than by an observed exit.  ``cct.ingest_merged`` keeps each node's
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


def _ingest(lines: Iterable[str], lenient: bool, warn: Callable[[str], None] | None,
            shared: CctNode | dict | None, sums: bool = False,
            keep: Callable[[str], bool] | None = None, drop: bool = False, edges: bool = False
            ) -> Iterable[_ThreadState]:
    """The one loop of ``cct.ingest``, ``cct.ingest_merged``,
    ``cct.ingest_call_graph`` and ``snapshot.ingest_totals``: the threads in
    order of their first line, each with its frames closed.

    Each thread builds its tree, or with ``sums`` adds up the sums of its
    frames of methods ``keep`` keeps, into ``shared`` or a root of its own: a
    refused frame's callees are its caller's, or with ``drop`` are dropped
    with its time.  The sums are per method, or with ``edges`` per nearest
    kept caller and method, ``{caller: {method: [total, calls, callee ns,
    the method's own dict of callees]}}``.  A shared tree's nodes keep
    their ``cct.merge_ccts`` order key in ``_order``: ``(tid << 64) + lineno``
    for the lowest tid that entered one and the line of that tid's first
    enter.  Trees, the sums and their frames hold the one string per method
    name that ``checked`` keeps: that of the name's first admitted enter.
    """
    keyed = shared is not None and not sums
    # threads by the canonical text of their id, and method names that
    # passed the grammar check on an enter, each with itself, None if keep
    # refuses it: every such name labels a context or a sum, so both are
    # bounded by the trees or tables made
    threads: dict[str, _ThreadState] = {}
    checked: dict[str, str | None] = {}
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
                checked[method] = None if keep is not None and not keep(method) else method
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
