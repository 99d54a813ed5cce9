"""Shared helpers: seeded random well-formed traces, a naive replay oracle,
the tree path that ``snapshot.ingest_totals`` replaced in ``analyze``, a reader
for the JSON trees that ``export --format cct|forest`` writes, the
``Decimal`` average formatter that the integer one replaced, the second
read that once found the line of a byte that is not UTF-8, and the
pattern-by-pattern loop that ``filters.PatternMatcher`` replaced, with
Hypothesis strategies for pattern lists.

The oracle deliberately avoids every tree abstraction from the package: it
replays raw events against plain per-thread stacks and accumulates per-method
self time, total time, and invocation counts. Tree-based aggregation must
agree with it exactly.
"""

from __future__ import annotations

import io
import json
import random
from collections import defaultdict
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from hypothesis import strategies as st

from cct_lens.cct import CctNode, ingest, ingest_merged
from cct_lens.compare import TIER_NAMES, format_ms
from cct_lens.components import DERIVE
from cct_lens.filters import ATTRIBUTE_TO_PARENT, FilterSet, apply_filter
from cct_lens.metrics import aggregate_methods
from cct_lens.trace import DROP_SUBTREE, ENTER, EXIT, TraceEvent


def random_balanced_events(
    rng: random.Random,
    tid: int,
    max_events: int = 60,
    methods=("a", "b", "c"),
    max_depth: int = 24,
) -> list[TraceEvent]:
    """Well-formed single-thread event list: balanced, nondecreasing timestamps."""
    events: list[TraceEvent] = []
    ts = rng.randrange(0, 5)
    stack: list[str] = []
    frames_left = rng.randrange(0, max_events // 2 + 1)
    while frames_left > 0 or stack:
        opening = frames_left > 0 and len(stack) < max_depth
        if opening and (not stack or rng.random() < 0.55):
            method = rng.choice(methods)
            events.append(TraceEvent(ts, tid, ENTER, method))
            stack.append(method)
            frames_left -= 1
        else:
            events.append(TraceEvent(ts, tid, EXIT, stack.pop()))
        # zero increments keep timestamp ties in play
        ts += rng.randrange(0, 7)
    return events


def random_trace(
    rng: random.Random,
    max_events: int = 200,
    max_methods: int = 8,
    max_tids: int = 4,
) -> list[TraceEvent]:
    """Multi-thread well-formed trace in a random file-order interleaving."""
    methods = tuple(f"m{i}()" for i in range(rng.randrange(1, max_methods + 1)))
    tid_count = rng.randrange(1, max_tids + 1)
    streams: list[list[TraceEvent]] = []
    remaining = max_events
    for tid in range(1, tid_count + 1):
        share = remaining // (tid_count - tid + 1)
        if share < 2:
            break
        events = random_balanced_events(rng, tid, share, methods)
        remaining -= len(events)
        if events:
            streams.append(events)
    interleaved: list[TraceEvent] = []
    cursors = [iter(s) for s in streams]
    pending = [(next(c), c) for c in cursors]
    while pending:
        idx = rng.randrange(len(pending))
        event, cursor = pending[idx]
        interleaved.append(event)
        nxt = next(cursor, None)
        if nxt is None:
            pending.pop(idx)
        else:
            pending[idx] = (nxt, cursor)
    return interleaved


def trace_lines(events) -> list[str]:
    return [f"{e.ts}\t{e.tid}\t{e.kind}\t{e.method}" for e in events]


def replay_totals(events, keep=None, mode=ATTRIBUTE_TO_PARENT):
    """Stack-replay oracle: method -> self ns / total ns / invocation count.

    With a ``keep`` predicate, only frames of kept methods are recorded,
    as if the rest had never been instrumented.  In ``ATTRIBUTE_TO_PARENT``
    mode a rejected frame's time goes to the innermost kept frame around
    it; in ``DROP_SUBTREE`` mode everything inside a rejected frame is
    discarded and its time is subtracted from the totals of the kept
    frames around it.
    """
    drop = mode == DROP_SUBTREE
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    # frames: [method, enter ts, recorded?, time of recorded frames inside, time removed inside]
    stacks: dict[int, list[list]] = {}
    for event in events:
        stack = stacks.setdefault(event.tid, [])
        if event.kind == ENTER:
            kept = keep is None or keep(event.method)
            if drop and stack and not stack[-1][2]:
                kept = False
            stack.append([event.method, event.ts, kept, 0, 0])
            continue
        method, entered, recorded, inner, removed = stack.pop()
        assert method == event.method, "oracle requires well-formed input"
        duration = event.ts - entered
        if recorded:
            self_ns[method] += duration - inner
            total_ns[method] += duration - removed
            calls[method] += 1
        # the innermost recorded frame around this one, if any
        outer = next((f for f in reversed(stack) if f[2]), None)
        if outer is None:
            continue
        if recorded:
            outer[3] += duration
            outer[4] += removed
        elif drop and stack[-1] is outer:
            outer[3] += duration
            outer[4] += duration
    assert all(not s for s in stacks.values()), "oracle requires balanced input"
    return dict(self_ns), dict(total_ns), dict(calls)


def tree_totals(lines, lenient=False, warn=None, filter_set=FilterSet(),
                filter_mode=ATTRIBUTE_TO_PARENT, per_thread=False):
    """The reference for ``snapshot.ingest_totals``: ``aggregate_methods`` of the
    filtered tree of ``ingest_merged``, or with ``per_thread`` of each tree of
    ``ingest``, as ``analyze`` once made its tables."""
    if per_thread:
        return {tid: aggregate_methods(apply_filter(root, filter_set, filter_mode))
                for tid, root in ingest(lines, lenient, warn).items()}
    return aggregate_methods(apply_filter(ingest_merged(lines, lenient, warn), filter_set,
                                          filter_mode))


def events_1tid(*steps, tid: int = 1) -> list[TraceEvent]:
    """Compact builder: steps are (ts, kind, method) triples on one thread."""
    return [TraceEvent(ts, tid, kind, method) for ts, kind, method in steps]


def decode_tree(obj: dict) -> CctNode:
    """A tree from its ``{"m","inv","ns"[,"trunc"][,"ch"]}`` JSON object, iteratively.

    The package writes these objects but has no reader for them.
    """
    def node(o: dict) -> CctNode:
        # the writer leaves out a false "trunc" and an empty "ch"
        assert set(o) <= {"m", "inv", "ns", "trunc", "ch"}, o
        assert o.get("trunc", True) is True and o.get("ch", [None]), o
        return CctNode(o["m"], o["inv"], o["ns"], o.get("trunc", False))

    root = node(obj)
    work = [(root, obj)]
    while work:
        parent, o = work.pop()
        for child_obj in o.get("ch", ()):
            child = node(child_obj)
            assert child.method not in parent.children, child.method
            parent.children[child.method] = child
            work.append((child, child_obj))
    return root


def decode_cct(text: str) -> CctNode:
    """The tree of an ``export --format cct`` document."""
    doc = json.loads(text)
    assert set(doc) == {"format", "tree"} and doc["format"] == "cct-lens/cct@1"
    return decode_tree(doc["tree"])


def decode_forest(text: str) -> dict[int, CctNode]:
    """The per-thread trees of an ``export --format forest`` document, by tid."""
    doc = json.loads(text)
    assert set(doc) == {"format", "threads"} and doc["format"] == "cct-lens/forest@1"
    return {int(tid): decode_tree(obj) for tid, obj in doc["threads"].items()}


def decimal_format_avg_ms(avg: Fraction) -> str:
    """The average formatter that ``compare.format_avg_ms`` replaced: a
    ``Decimal`` quotient, quantized half up.  It rounds to 28 digits first, so
    it is exact only for self times below 2*10**27 ns."""
    if avg == 0:
        return "0 ms"
    if avg >= 1_000_000:
        ms = Decimal(avg.numerator) / Decimal(avg.denominator) / Decimal(1_000_000)
        text = str(ms.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return f"{text} ms"
    return format_ms(round(avg))


def rescan_bad_byte(data: bytes) -> tuple[int, int]:
    """The line and the value of the first byte of ``data`` that is not UTF-8,
    found as the file readers once found it, by reading the file a second
    time: in text mode with ``surrogateescape``, which turns each such byte
    into a lone surrogate that cannot be encoded, 64 KiB at a time."""
    line = 1
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.read(1 << 16):
            try:
                chunk.encode("utf-8")
            except UnicodeEncodeError as bad:
                return line + chunk.count("\n", 0, bad.start), ord(chunk[bad.start]) - 0xDC00
            line += chunk.count("\n")
    raise AssertionError("every byte is UTF-8")


def pattern_matches(text: str, method: str) -> bool:
    """Whether the pattern ``text`` matches ``method``, as the pattern-by-pattern
    filters once decided it: a trailing ``*`` makes a prefix test, anything else an
    equality test."""
    if text.endswith("*"):
        return method.startswith(text[:-1])
    return method == text


def loop_keeps(filter_set: FilterSet, method: str) -> bool:
    """``FilterSet.keeps`` as it was before ``filters.keeper`` matched through
    one ``PatternMatcher``: each pattern in turn, for each name.  True when
    the method matches an include pattern, or there are none, and matches no
    exclude pattern."""
    if filter_set.includes and not any(pattern_matches(p, method)
                                       for p in filter_set.includes):
        return False
    return not any(pattern_matches(p, method) for p in filter_set.excludes)


# a few letters, so that patterns overlap, and the characters regexes treat specially
TEXT = st.text(st.sampled_from("ab.()$[\\+?|\n"), max_size=4)
KINDS = st.sampled_from(["prefix", "exact", "bare"])
COMPONENTS = st.sampled_from(["C", DERIVE])


@st.composite
def rule_specs(draw):
    """Up to 30 (pattern text without "*", kind, component, tier): short texts,
    and cuts of one spine, so that rules nest at many distinct lengths."""
    spine = draw(st.text(st.sampled_from("ab.$\n"), min_size=20, max_size=40))
    texts = st.one_of(TEXT, st.integers(0, len(spine)).map(lambda n: spine[:n]))
    return draw(st.lists(st.tuples(texts, KINDS, COMPONENTS, st.sampled_from(TIER_NAMES)),
                         max_size=30))


def pattern_text(text: str, kind: str) -> str:
    """The pattern of a spec's text and kind: a prefix pattern, an exact one,
    or a lone ``*`` (for the kind "bare", and for an empty exact text)."""
    if kind == "prefix":
        return text + "*"
    return "*" if kind == "bare" or not text else text


def probe_names(texts, suffixes=(), names=()) -> list[str]:
    """``names``, then each pattern text without its ``*``: itself, one
    character longer and one shorter, with each suffix and past every
    pattern's end."""
    stems = [text.rstrip("*") for text in texts]
    pad = "a" * (1 + max(map(len, stems), default=0))
    probes = list(names)
    for stem in stems:
        probes += [stem, stem + "a", stem + "\n", stem[:-1], stem + pad]
        probes += [stem + suffix for suffix in suffixes]
    return probes
