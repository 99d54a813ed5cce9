"""Calling context tree construction, merging, projections, serialization."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cct_lens import cct
from cct_lens.cct import (
    CctNode,
    MERGED_ROOT,
    build_forest,
    cct_json,
    forest_json,
    folded_stacks,
    ingest,
    ingest_call_graph,
    ingest_merged,
    merge_ccts,
    project_call_graph,
    serialize_cct,
    serialize_forest,
)
from cct_lens.filters import FILTER_MODES, FilterSet, apply_filter
from cct_lens.loop import root_label
from cct_lens.snapshot import ingest_totals
from cct_lens.trace import (ECHO_CAP, ENTER, EXIT, LINE_CAP, TraceEvent, TraceParseError,
                             TraceStructureError)

from conftest import (decode_cct, decode_forest, events_1tid, random_trace, replay_totals,
                      trace_lines, tree_totals)

E, X = ENTER, EXIT


def child(node: CctNode, method: str) -> CctNode:
    assert method in node.children, f"no child {method!r} under {node.method!r}"
    return node.children[method]


class TestBuildCct:
    def test_nested_calls(self):
        events = events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
        root = build_forest(events)[1]
        assert root.method == root_label(1)
        a = child(root, "a")
        assert (a.invocations, a.total_time) == (1, 40)
        b = child(a, "b")
        assert (b.invocations, b.total_time) == (1, 20)
        assert not b.children

    def test_same_parent_contexts_merge(self):
        events = events_1tid((0, E, "a"), (5, X, "a"), (5, E, "a"), (9, X, "a"))
        root = build_forest(events)[1]
        assert len(root.children) == 1
        a = child(root, "a")
        assert (a.invocations, a.total_time) == (2, 9)

    def test_recursion_builds_chain_not_merge(self):
        events = events_1tid((0, E, "a"), (3, E, "a"), (7, X, "a"), (10, X, "a"))
        root = build_forest(events)[1]
        outer = child(root, "a")
        assert (outer.invocations, outer.total_time) == (1, 10)
        inner = child(outer, "a")
        assert (inner.invocations, inner.total_time) == (1, 4)
        assert not inner.children

    def test_children_in_first_encounter_order(self):
        root = build_forest(
            events_1tid(
                (0, E, "z"), (1, X, "z"), (2, E, "a"), (3, X, "a"), (4, E, "z"), (5, X, "z")
            )
        )[1]
        assert list(root.children) == ["z", "a"]

    def test_root_total_is_busy_time_not_span(self):
        # idle gap between top-level calls does not count
        events = events_1tid((0, E, "a"), (10, X, "a"), (50, E, "b"), (60, X, "b"))
        root = build_forest(events)[1]
        assert root.total_time == 20  # not the 60 ns span
        assert root.invocations == 1
        assert root.self_time() == 0

    def test_empty_input_gives_bare_root(self):
        forest = ingest(["# comments and blank lines only", ""])
        assert forest == {}
        root = merge_ccts(forest)
        assert root.method == MERGED_ROOT
        assert root.total_time == 0 and not root.children

    def test_zero_duration_calls(self):
        root = build_forest(events_1tid((5, E, "a"), (5, X, "a")))[1]
        a = child(root, "a")
        assert (a.invocations, a.total_time) == (1, 0)


class TestStrictErrors:
    def test_orphan_exit_names_position(self):
        with pytest.raises(TraceStructureError, match="tid 1"):
            build_forest(events_1tid((0, X, "a")))

    def test_mismatched_exit(self):
        with pytest.raises(TraceStructureError, match="mismatched exit"):
            build_forest(events_1tid((0, E, "a"), (1, E, "b"), (2, X, "a")))

    def test_unmatched_enter_at_end(self):
        with pytest.raises(TraceStructureError, match="still open"):
            build_forest(events_1tid((0, E, "a")))

    def test_timestamp_regression(self):
        with pytest.raises(TraceStructureError, match="regression"):
            build_forest(events_1tid((5, E, "a"), (3, X, "a")))

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("first, last, where", [
        (-2**63 - 1, 0, "tid 1, line 1"),
        (2**63, 2**63, "tid 1, line 1"),
        # a regression below the range is refused, not clamped, on its line
        (0, -2**63 - 1, "tid 1, line 2"),
        # past the running maximum, on its line; the id names the case as it always has
        pytest.param(0, 2**63, "tid 1, line 2", id="0-9223372036854775808-tid 1"),
    ])
    def test_timestamp_outside_64_bits(self, lenient, first, last, where):
        with pytest.raises(TraceStructureError,
                           match=f"^{where}: timestamp outside the signed 64-bit range$"):
            ingest([f"{first}\t1\tE\ta", f"{last}\t1\tX\ta"], lenient=lenient)

    def test_clamped_timestamps_stay_in_range(self):
        # in lenient mode a regression is clamped up to the running maximum
        lines = ["0\t1\tE\ta", f"{2**63 - 1}\t1\tE\tb", "-5\t1\tX\tb", "3\t1\tX\ta"]
        forest = ingest(lines, lenient=True)
        assert forest[1].total_time == 2**63 - 1

    def test_timestamp_extremes_accepted(self):
        forest = ingest([f"{-2**63}\t1\tE\ta", f"{2**63 - 1}\t1\tX\ta"])
        assert forest[1].total_time == 2**64 - 1

    def test_events_are_numbered_as_lines(self):
        # events have no file, so the n-th event is reported as line n
        with pytest.raises(TraceStructureError, match="tid 1, line 2: timestamp regression"):
            build_forest(events_1tid((5, E, "a"), (3, X, "a")))

    def test_events_must_meet_the_line_grammar(self):
        with pytest.raises(TraceParseError, match="line 2: bad event kind"):
            build_forest(events_1tid((0, E, "a"), (1, "e", "a")))
        with pytest.raises(TraceParseError, match="line 1: method name contains whitespace"):
            build_forest([TraceEvent(0, 1, E, "a b")])

    def test_open_frames_reported_at_last_line(self):
        with pytest.raises(TraceStructureError, match="tid 1, line 3: 2 frame"):
            ingest(["0\t1\tE\ta", "1\t1\tE\tb", "# end"])


class TestLenientRecovery:
    def test_orphan_exit_dropped(self):
        warnings: list[str] = []
        forest = build_forest(
            events_1tid((0, X, "ghost"), (1, E, "a"), (2, X, "a")),
            lenient=True,
            warn=warnings.append,
        )
        root = forest[1]
        assert list(root.children) == ["a"]
        assert any("orphan" in w for w in warnings)

    def test_mismatched_exit_dropped(self):
        forest = build_forest(
            events_1tid((0, E, "a"), (1, X, "b"), (2, X, "a")), lenient=True
        )
        a = child(forest[1], "a")
        assert a.total_time == 2 and not a.truncated

    def test_open_frames_closed_at_last_ts_and_flagged(self):
        warnings: list[str] = []
        forest = build_forest(
            events_1tid((0, E, "a"), (10, E, "b")), lenient=True, warn=warnings.append
        )
        a = child(forest[1], "a")
        b = child(a, "b")
        assert a.truncated and b.truncated
        assert a.total_time == 10 and b.total_time == 0
        assert forest[1].total_time == 10
        assert any("left open" in w for w in warnings)

    def test_timestamp_regression_clamped(self):
        forest = build_forest(events_1tid((5, E, "a"), (3, X, "a")), lenient=True)
        a = child(forest[1], "a")
        # exit clamped up to the enter ts
        assert a.total_time == 0

    def test_warnings_name_thread_and_line(self):
        warnings: list[str] = []
        ingest(["0\t2\tX\tghost", "1\t2\tE\ta", "0\t2\tX\tb", "2\t2\tE\tc"],
               lenient=True, warn=warnings.append)
        assert [w.split(":")[0] for w in warnings] == [
            "tid 2, line 1", "tid 2, line 3", "tid 2, line 3", "tid 2, line 4"]
        assert "orphan" in warnings[0] and "regression" in warnings[1]
        assert "mismatched" in warnings[2] and "left open" in warnings[3]

    def test_closed_frames_not_flagged(self):
        forest = build_forest(events_1tid((0, E, "a"), (4, X, "a"), (5, E, "b")), lenient=True)
        root = forest[1]
        assert not child(root, "a").truncated
        assert child(root, "b").truncated


READERS = pytest.mark.parametrize("read", [ingest, ingest_merged, ingest_totals],
                                  ids=["ingest", "ingest_merged", "ingest_totals"])


@READERS
def test_defect_wording(read):
    # each defect, word for word: a strict error and a lenient warning for
    # the same defect name the same thread and line
    strict = [
        (["0\t1\tX\ta"], "tid 1, line 1: orphan exit for a (empty stack)"),
        (["2\t7\tE\ta", "1\t7\tX\ta"], "tid 7, line 2: timestamp regression 2 -> 1"),
        (["0\t1\tE\ta", "1\t1\tE\tb", "2\t1\tX\tb", "# c", "3\t1\tX\tc"],
         "tid 1, line 5: mismatched exit: got c, innermost open frame is a"),
        (["0\t1\tE\ta", "1\t1\tE\tb", "2\t2\tE\td", ""],
         "tid 1, line 4: 2 frame(s) still open at end of trace (innermost: b)"),
    ]
    for lines, message in strict:
        with pytest.raises(TraceStructureError) as info:
            read(lines)
        assert str(info.value) == message
    warnings: list[str] = []
    read(["0\t1\tX\ta", "1\t1\tE\ta", "2\t1\tE\tb", "1\t1\tX\tb", "3\t1\tX\tc", "4\t2\tE\td"],
         lenient=True, warn=warnings.append)
    assert warnings == [
        "tid 1, line 1: dropped orphan exit for a",
        "tid 1, line 4: clamped timestamp regression 2 -> 1",
        "tid 1, line 5: dropped mismatched exit for c (innermost open frame: a)",
        "tid 1, line 6: closed 1 frame(s) left open at end of trace (ts 3)",
        "tid 2, line 6: closed 1 frame(s) left open at end of trace (ts 4)",
    ]


@READERS
def test_defect_echoes_are_cut(read):
    # a name of ECHO_CAP characters is quoted whole, a longer one cut
    whole, long = "w" * ECHO_CAP, "n" * (LINE_CAP - 10)
    cut = f"{long[:ECHO_CAP]}... ({len(long)} characters)"
    with pytest.raises(TraceStructureError) as info:
        read([f"0\t1\tE\t{whole}", f"1\t1\tX\t{long}"])
    assert str(info.value) == (f"tid 1, line 2: mismatched exit: got {cut}, "
                               f"innermost open frame is {whole}")
    with pytest.raises(TraceStructureError) as info:
        read([f"0\t1\tE\t{long}"])
    assert str(info.value) == (f"tid 1, line 1: 1 frame(s) still open at end of trace "
                               f"(innermost: {cut})")
    warnings: list[str] = []
    read([f"0\t1\tX\t{long}", f"1\t1\tE\ta", f"2\t1\tX\t{whole}"],
         lenient=True, warn=warnings.append)
    assert warnings == [
        f"tid 1, line 1: dropped orphan exit for {cut}",
        f"tid 1, line 3: dropped mismatched exit for {whole} (innermost open frame: a)",
        "tid 1, line 3: closed 1 frame(s) left open at end of trace (ts 2)",
    ]


class TestForest:
    def test_one_root_per_tid(self):
        events = [
            TraceEvent(0, 2, E, "b"),
            TraceEvent(0, 1, E, "a"),
            TraceEvent(3, 1, X, "a"),
            TraceEvent(9, 2, X, "b"),
        ]
        forest = build_forest(events)
        assert list(forest) == [1, 2]  # ascending tid order, not first-line order
        assert forest[1].method == root_label(1)
        assert forest[2].total_time == 9

    def test_roots_have_invocations_one(self):
        forest = build_forest(events_1tid((0, E, "a"), (1, X, "a")))
        assert all(r.invocations == 1 for r in forest.values())

    def test_empty_forest(self):
        forest = build_forest([])
        assert forest == {}
        assert merge_ccts(forest).method == MERGED_ROOT
        assert merge_ccts(forest).total_time == 0


class TestMergeCcts:
    def test_symmetric_sum(self):
        events = [
            TraceEvent(0, 1, E, "a"),
            TraceEvent(10, 1, X, "a"),
            TraceEvent(0, 2, E, "a"),
            TraceEvent(10, 2, X, "a"),
        ]
        merged = merge_ccts(build_forest(events))
        assert merged.method == MERGED_ROOT
        a = child(merged, "a")
        assert (a.invocations, a.total_time) == (2, 20)

    def test_disjoint_union(self):
        events = [
            TraceEvent(0, 1, E, "a"),
            TraceEvent(5, 1, X, "a"),
            TraceEvent(0, 2, E, "b"),
            TraceEvent(7, 2, X, "b"),
        ]
        merged = merge_ccts(build_forest(events))
        assert set(merged.children) == {"a", "b"}
        assert child(merged, "a").total_time == 5
        assert child(merged, "b").total_time == 7

    def test_single_thread_identity_modulo_label(self):
        events = events_1tid((0, E, "a"), (2, E, "b"), (3, X, "b"), (8, X, "a"))
        forest = build_forest(events)
        merged = merge_ccts(forest)
        single = forest[1]
        assert merged.method == MERGED_ROOT and single.method == root_label(1)
        assert merged.total_time == single.total_time
        assert merged.children == single.children

    def test_same_path_coalesces_deep(self):
        events = [
            TraceEvent(0, 1, E, "a"), TraceEvent(1, 1, E, "b"),
            TraceEvent(2, 1, X, "b"), TraceEvent(3, 1, X, "a"),
            TraceEvent(0, 2, E, "a"), TraceEvent(1, 2, E, "b"),
            TraceEvent(4, 2, X, "b"), TraceEvent(6, 2, X, "a"),
        ]
        merged = merge_ccts(build_forest(events))
        a = child(merged, "a")
        b = child(a, "b")
        assert (a.invocations, a.total_time) == (2, 9)
        assert (b.invocations, b.total_time) == (2, 4)

    def test_truncated_flags_or_together(self):
        events = [
            TraceEvent(0, 1, E, "a"), TraceEvent(2, 1, X, "a"),
            TraceEvent(0, 2, E, "a"),  # left open on tid 2
        ]
        merged = merge_ccts(build_forest(events, lenient=True))
        assert child(merged, "a").truncated


# tids of 2**64 and above, some of them alike in their low 64 bits
_WIDE_TIDS = [low + (high << 64) for low in range(8) for high in range(5)]


def _random_lines(rng: random.Random, defects: bool, pool=range(40)) -> list[str]:
    """A random interleaved trace on up to five distinct tids from ``pool``, so
    a higher tid often enters a shared context first.  With ``defects``, some
    events are dropped (leaving frames open or exits unmatched), and orphan
    exits, mismatched exits and timestamp regressions are put in."""
    events = random_trace(rng, max_events=160, max_methods=4, max_tids=5)
    old = sorted({e.tid for e in events})
    tids = dict(zip(old, rng.sample(pool, len(old))))
    events = [TraceEvent(e.ts, tids[e.tid], e.kind, e.method) for e in events]
    if defects:
        mutated = []
        for e in events:
            roll = rng.random()
            if roll < 0.04:
                continue
            if roll < 0.07:
                mutated.append(TraceEvent(e.ts, e.tid, X, "ghost"))
            elif roll < 0.10 and e.kind == X:
                e = TraceEvent(e.ts, e.tid, X, "m0()")
            elif roll < 0.12:
                e = TraceEvent(e.ts - rng.randrange(1, 9), e.tid, e.kind, e.method)
            mutated.append(e)
        events = mutated
    return trace_lines(events)


def _merged_view(read, lines: list[str], lenient: bool):
    """The serialized tree and folded lines ``read`` gives, or its error, and its warnings."""
    warnings: list[str] = []
    try:
        root = read(lines, lenient=lenient, warn=warnings.append)
    except TraceStructureError as exc:
        return ("error", str(exc)), warnings
    return (serialize_cct(root), list(folded_stacks(root))), warnings


def _ingest_then_merge(lines, lenient=False, warn=None):
    return merge_ccts(ingest(lines, lenient=lenient, warn=warn))


class TestIngestMerged:
    """``ingest_merged`` must give ``merge_ccts(ingest(...))`` exactly.  Trees are
    compared as serialized text: ``CctNode.__eq__`` ignores child order."""

    @given(st.integers(min_value=0, max_value=10**9), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_as_ingest_then_merge(self, seed, lenient, defects):
        lines = _random_lines(random.Random(seed), defects, _WIDE_TIDS)
        want = _merged_view(_ingest_then_merge, lines, lenient)
        assert _merged_view(ingest_merged, lines, lenient) == want
        if not defects:
            assert want[0][0] != "error"

    def test_higher_tid_first_is_reordered(self):
        # tid 2 makes b, then a, then a's child y; tid 1 enters a and a.x;
        # merge_ccts puts tid 1's contexts first
        lines = ["0\t2\tE\tb", "1\t2\tX\tb", "2\t2\tE\ta", "3\t2\tE\ty",
                 "4\t2\tX\ty", "5\t2\tX\ta", "6\t1\tE\ta", "7\t1\tE\tx",
                 "8\t1\tX\tx", "9\t1\tE\ty", "10\t1\tX\ty", "11\t1\tX\ta"]
        root = ingest_merged(lines)
        assert list(root.children) == ["a", "b"]
        assert list(root.children["a"].children) == ["x", "y"]
        assert serialize_cct(root) == serialize_cct(merge_ccts(ingest(lines)))
        assert not any(hasattr(node, "_order") for node in root.walk())

    def test_tids_order_as_numbers(self):
        lines = ["0\t10\tE\tb", "1\t10\tX\tb", "2\t9\tE\ta", "3\t9\tX\ta"]
        assert list(ingest_merged(lines).children) == ["a", "b"]

    @pytest.mark.parametrize("low, high", [
        (2**64, 2**64 + 1), (2**64 - 1, 2**64), (1, 1 + 2**64), (5, 5 + 2**65), (3, 2**70),
        (2**64, 2**64 + 2**65), (7 + 2**66, 7 + 2**66 + 2**67)])
    def test_wide_tids_keep_the_merge_order(self, low, high):
        # as test_higher_tid_first_is_reordered, with tids of 2**64 and above
        # or alike in their low 64 bits: the higher tid makes b, a and a.y first
        lines = [f"{i}\t{tid}\t{kind}\t{m}" for i, (tid, kind, m) in enumerate([
            (high, E, "b"), (high, X, "b"), (high, E, "a"), (high, E, "y"), (high, X, "y"),
            (high, X, "a"), (low, E, "a"), (low, E, "x"), (low, X, "x"), (low, E, "y"),
            (low, X, "y"), (low, X, "a")])]
        root = ingest_merged(lines)
        assert list(root.children) == ["a", "b"]
        assert list(root.children["a"].children) == ["x", "y"]
        assert serialize_cct(root) == serialize_cct(merge_ccts(ingest(lines)))

    def test_root_counts(self):
        lines = ["0\t1\tE\ta", "4\t1\tX\ta", "0\t2\tE\ta", "3\t2\tX\ta",
                 "5\t2\tE\tb", "6\t2\tX\tb"]
        root = ingest_merged(lines)
        assert (root.method, root.invocations, root.total_time) == (MERGED_ROOT, 1, 8)
        assert not root.truncated

    def test_empty_trace(self):
        root = ingest_merged(["# comments and blank lines only", ""])
        assert (root.method, root.invocations, root.total_time) == (MERGED_ROOT, 1, 0)
        assert not root.children
        assert serialize_cct(root) == serialize_cct(merge_ccts({}))


class TestOneStringPerName:
    """Every node, child key and call-graph edge of one read holds the one
    string of its method name; only the ``<root...>`` labels differ."""

    @given(st.integers(min_value=0, max_value=10**9), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_names_are_shared(self, seed, defects):
        lines = _random_lines(random.Random(seed), defects)
        for roots in (ingest(lines, lenient=True).values(), [ingest_merged(lines, lenient=True)]):
            names: dict[str, str] = {}
            for root in roots:
                for node in root.walk():
                    for key, kid in node.children.items():
                        assert key is kid.method
                        assert names.setdefault(key, key) is key
        names = {MERGED_ROOT: MERGED_ROOT}
        for edge in ingest_call_graph(lines, lenient=True):
            assert names.setdefault(edge.caller, edge.caller) is edge.caller
            assert names.setdefault(edge.callee, edge.callee) is edge.callee

    def test_a_recursive_name(self):
        # each line's split makes a string of its own
        lines = [f"{ts}\t1\t{kind}\tab" for ts, kind in enumerate("EEXX")]
        for root in (ingest(lines)[1], ingest_merged(lines)):
            outer = root.children["ab"]
            assert outer.children["ab"].method is outer.method


# patterns over the names of _random_lines: m0() to m3() and the ghost of an orphan exit
_PATTERNS = ("m0()", "m1()", "m2*", "m*", "ghost", "x*")


def _totals_view(read, lines: list[str], lenient: bool, filter_set: FilterSet, mode: str,
                 per_thread: bool):
    """The per-method sums ``read`` gives, in tid order per thread, or its
    error, and its warnings."""
    warnings: list[str] = []
    try:
        totals = read(lines, lenient, warnings.append, filter_set, mode, per_thread)
    except TraceStructureError as exc:
        return ("error", str(exc)), warnings
    if per_thread:
        return [(tid, sorted(table.items())) for tid, table in totals.items()], warnings
    return sorted(totals.items()), warnings


class TestIngestTotals:
    """``ingest_totals`` must give the sums of the filtered trees exactly, with
    the same error or the same warnings, in order."""

    @given(st.integers(min_value=0, max_value=10**9), st.booleans(), st.booleans(),
           st.lists(st.sampled_from(_PATTERNS), max_size=2),
           st.lists(st.sampled_from(_PATTERNS), max_size=2),
           st.sampled_from(FILTER_MODES), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_same_as_the_filtered_trees(self, seed, lenient, defects, includes, excludes,
                                        mode, per_thread):
        lines = _random_lines(random.Random(seed), defects)
        filter_set = FilterSet.from_patterns(includes, excludes)
        want = _totals_view(tree_totals, lines, lenient, filter_set, mode, per_thread)
        assert _totals_view(ingest_totals, lines, lenient, filter_set, mode, per_thread) == want

    @pytest.mark.parametrize("mode, expected", [
        # the refused b's 25 ns of self time are a's, and c under it is a's callee
        ("attribute", {"a": (35, 40, 1), "c": (5, 5, 1)}),
        # b's 30 ns leave a's total, and c under b has no row
        ("drop", {"a": (10, 10, 1)}),
    ])
    def test_a_refused_frame(self, mode, expected):
        lines = ["0\t1\tE\ta", "5\t1\tE\tb", "10\t1\tE\tc", "15\t1\tX\tc",
                 "35\t1\tX\tb", "40\t1\tX\ta"]
        filter_set = FilterSet.from_patterns(excludes=["b"])
        totals = ingest_totals(lines, filter_set=filter_set, filter_mode=mode)
        assert {method: tuple(row) for method, row in totals.items()} == expected
        assert totals == tree_totals(lines, filter_set=filter_set, filter_mode=mode)

    def test_per_thread_in_tid_order(self):
        lines = ["0\t7\tE\ta", "0\t2\tE\tb", "3\t2\tX\tb", "4\t7\tX\ta"]
        totals = ingest_totals(lines, per_thread=True)
        assert list(totals) == [2, 7]
        assert totals == {2: {"b": (3, 3, 1)}, 7: {"a": (4, 4, 1)}}


def _tree_edges(lines, lenient=False, warn=None, filter_set=FilterSet(), mode="attribute"):
    """The reference for ``ingest_call_graph``: the edges of the filtered tree."""
    return project_call_graph(apply_filter(ingest_merged(lines, lenient, warn), filter_set, mode))


def _edges_view(read, lines: list[str], lenient: bool, filter_set: FilterSet, mode: str):
    """The edges ``read`` gives, or its error, and its warnings."""
    warnings: list[str] = []
    try:
        return read(lines, lenient, warnings.append, filter_set, mode), warnings
    except TraceStructureError as exc:
        return ("error", str(exc)), warnings


class TestIngestCallGraph:
    """``ingest_call_graph`` must give the edges of the filtered tree exactly,
    with the same error or the same warnings, in order."""

    @given(st.integers(min_value=0, max_value=10**9), st.booleans(), st.booleans(),
           st.lists(st.sampled_from(_PATTERNS), max_size=2),
           st.lists(st.sampled_from(_PATTERNS), max_size=2),
           st.sampled_from(FILTER_MODES))
    @settings(max_examples=500, deadline=None)
    def test_same_as_the_filtered_tree(self, seed, lenient, defects, includes, excludes, mode):
        lines = _random_lines(random.Random(seed), defects)
        filter_set = FilterSet.from_patterns(includes, excludes)
        want = _edges_view(_tree_edges, lines, lenient, filter_set, mode)
        assert _edges_view(ingest_call_graph, lines, lenient, filter_set, mode) == want

    @pytest.mark.parametrize("mode, expected", [
        # c under the refused b is a's callee; a calls itself
        ("attribute", [(MERGED_ROOT, "a", 1, 40), ("a", "a", 1, 2), ("a", "c", 1, 5)]),
        # b's 30 ns leave a's total, and c under b has no edge
        ("drop", [(MERGED_ROOT, "a", 1, 10), ("a", "a", 1, 2)]),
    ])
    def test_a_refused_frame_and_recursion(self, mode, expected):
        lines = ["0\t1\tE\ta", "5\t1\tE\tb", "10\t1\tE\tc", "15\t1\tX\tc",
                 "35\t1\tX\tb", "36\t1\tE\ta", "38\t1\tX\ta", "40\t1\tX\ta"]
        filter_set = FilterSet.from_patterns(excludes=["b"])
        edges = ingest_call_graph(lines, filter_set=filter_set, filter_mode=mode)
        assert [tuple(edge) for edge in edges] == expected
        assert edges == _tree_edges(lines, filter_set=filter_set, mode=mode)

    def test_threads_share_edges(self):
        # both threads call b from a; thread 2's a and c close at its last line
        lines = ["0\t2\tE\ta", "0\t1\tE\ta", "1\t1\tE\tb", "2\t2\tE\tb", "4\t1\tX\tb",
                 "5\t2\tX\tb", "6\t1\tX\ta", "9\t2\tE\tc"]
        warnings: list[str] = []
        edges = ingest_call_graph(lines, lenient=True, warn=warnings.append)
        assert [tuple(edge) for edge in edges] == [
            (MERGED_ROOT, "a", 2, 15), ("a", "b", 2, 6), ("a", "c", 1, 0)]
        assert warnings == ["tid 2, line 8: closed 2 frame(s) left open at end of trace (ts 9)"]
        assert edges == _tree_edges(lines, lenient=True)


class TestSelfTime:
    def test_parent_minus_children(self):
        events = events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
        root = build_forest(events)[1]
        assert child(root, "a").self_time() == 20

    def test_leaf_is_own_total(self):
        root = build_forest(events_1tid((0, E, "a"), (40, X, "a")))[1]
        assert child(root, "a").self_time() == 40

    def test_children_summing_to_total_gives_zero(self):
        events = events_1tid((0, E, "a"), (0, E, "b"), (40, X, "b"), (40, X, "a"))
        root = build_forest(events)[1]
        assert child(root, "a").self_time() == 0


class TestCallGraph:
    def test_context_collapse(self):
        # a calls b twice, c calls b three times
        root = build_forest(
            events_1tid(
                (0, E, "a"), (1, E, "b"), (2, X, "b"), (3, E, "b"), (4, X, "b"), (5, X, "a"),
                (6, E, "c"), (7, E, "b"), (8, X, "b"), (9, E, "b"), (10, X, "b"),
                (11, E, "b"), (12, X, "b"), (13, X, "c"),
            )
        )[1]
        edges = {(e.caller, e.callee): e for e in project_call_graph(root)}
        assert edges[("a", "b")].calls == 2
        assert edges[("c", "b")].calls == 3
        assert edges[(root_label(1), "a")].calls == 1

    def test_recursion_self_edge(self):
        events = events_1tid((0, E, "a"), (1, E, "a"), (2, X, "a"), (3, X, "a"))
        root = build_forest(events)[1]
        edges = {(e.caller, e.callee) for e in project_call_graph(root)}
        assert ("a", "a") in edges

    def test_calls_conservation(self):
        rng = random.Random(42)
        for _ in range(25):
            events = random_trace(rng, max_events=120)
            merged = merge_ccts(build_forest(events))
            edges = project_call_graph(merged)
            total_calls = sum(e.calls for e in edges)
            total_inv = sum(n.invocations for n in merged.walk() if n is not merged)
            assert total_calls == total_inv

    def test_callee_total_conservation(self):
        rng = random.Random(43)
        for _ in range(25):
            events = random_trace(rng, max_events=120)
            merged = merge_ccts(build_forest(events))
            per_method_edges: dict[str, int] = {}
            for e in project_call_graph(merged):
                per_method_edges[e.callee] = per_method_edges.get(e.callee, 0) + e.callee_total_time
            per_method_nodes: dict[str, int] = {}
            for n in merged.walk():
                if n is merged:
                    continue
                per_method_nodes[n.method] = per_method_nodes.get(n.method, 0) + n.total_time
            assert per_method_edges == per_method_nodes

    def test_edge_ordering(self):
        root = build_forest(
            events_1tid((0, E, "a"), (1, E, "b"), (2, X, "b"), (3, X, "a"), (4, E, "b"), (9, X, "b"))
        )[1]
        edges = project_call_graph(root)
        assert edges == sorted(edges, key=lambda e: (-e.calls, e.caller, e.callee))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_edges_equal_the_key_function_sort(self, seed):
        merged = merge_ccts(build_forest(random_trace(random.Random(seed), max_events=80)))
        edges = project_call_graph(merged)
        assert edges == sorted(set(edges), key=lambda e: (-e.calls, e.caller, e.callee))


class TestSerialization:
    """The JSON trees are lossless: a reader in the test gets every tree back."""

    def test_single_node_document(self):
        text = serialize_cct(CctNode("a", invocations=1, total_time=5))
        root = decode_cct(text)
        assert root == CctNode("a", invocations=1, total_time=5)

    def test_round_trip_100_random_trees(self):
        rng = random.Random(7)
        for _ in range(100):
            merged = merge_ccts(build_forest(random_trace(rng, max_events=100)))
            assert decode_cct(serialize_cct(merged)) == merged

    def test_round_trip_preserves_truncated(self):
        forest = build_forest(events_1tid((0, E, "a")), lenient=True)
        root = forest[1]
        again = decode_cct(serialize_cct(root))
        assert child(again, "a").truncated

    def test_empty_forest_document_is_not_missing(self):
        text = serialize_forest({})
        assert text  # a real document
        assert decode_forest(text) == {}

    def test_forest_round_trip(self):
        events = [
            TraceEvent(0, 3, E, "a"), TraceEvent(4, 3, X, "a"),
            TraceEvent(0, 1, E, "b"), TraceEvent(2, 1, X, "b"),
        ]
        forest = build_forest(events)
        again = decode_forest(serialize_forest(forest))
        assert list(again) == [1, 3]
        assert again == forest


def _node_to_obj(node: CctNode) -> dict:
    """A tree as the JSON object the serializers write, built recursively."""
    obj: dict = {"m": node.method, "inv": node.invocations, "ns": node.total_time}
    if node.truncated:
        obj["trunc"] = True
    if node.children:
        obj["ch"] = [_node_to_obj(c) for c in node.children.values()]
    return obj


def _random_tree(rng: random.Random, method: str, depth: int) -> CctNode:
    node = CctNode(method, rng.randrange(0, 5), rng.randrange(-3, 10**12), rng.random() < 0.2)
    if depth:
        # quotes, backslashes, controls and non-ASCII need escaping
        for name in rng.sample(["a", "b()", 'q"t', "b\\s", "t\tab", "é", "日本", "\u2028"],
                               rng.randrange(0, 4)):
            node.children[name] = _random_tree(rng, name, depth - 1)
    return node


def _chain(depth: int, leaf_ns: int = 1) -> CctNode:
    """A root over ``depth`` nested calls of 1 ns each, but ``leaf_ns`` at the bottom."""
    root = node = CctNode("<root>", 1, 1)
    for i in range(depth):
        node.children[f"m{i % 3}"] = node = CctNode(f"m{i % 3}", 1, 1)
    node.total_time = leaf_ns
    return root


class TestSerializedText:
    def test_same_text_as_json_dumps_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            root = _random_tree(rng, "<root>", rng.randrange(0, 5))
            assert serialize_cct(root) == json.dumps(
                {"format": "cct-lens/cct@1", "tree": _node_to_obj(root)}, separators=(",", ":"))
            forest = {tid: _random_tree(rng, f"<root:{tid}>", 3)
                      for tid in rng.sample([0, 2, 10, 11, 300], rng.randrange(0, 4))}
            threads = {str(tid): _node_to_obj(forest[tid]) for tid in sorted(forest)}
            assert serialize_forest(forest) == json.dumps(
                {"format": "cct-lens/forest@1", "threads": threads}, separators=(",", ":"))

    def test_deep_trees_compare(self):
        assert _chain(10**4) == _chain(10**4)
        assert _chain(10**4) != _chain(10**4, leaf_ns=2)
        assert _chain(10**4) != _chain(10**4 - 1)


def _reference_tree(root: CctNode, out: list[str]) -> None:
    """The tree JSON the serializers wrote as one list of fragments, kept as the
    reference for the chunked text."""
    stack: list = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        out.append(f'{{"m":{json.dumps(node.method)},"inv":{node.invocations},'
                   f'"ns":{node.total_time}')
        if node.truncated:
            out.append(',"trunc":true')
        if node.children:
            out.append(',"ch":[')
            text = "]}"
            for kid in reversed(node.children.values()):
                stack += (text, kid)
                text = ","
        else:
            out.append("}")


def _reference_cct(root: CctNode) -> str:
    out = ['{"format":"cct-lens/cct@1","tree":']
    _reference_tree(root, out)
    return "".join(out) + "}"


def _reference_forest(roots: dict[int, CctNode]) -> str:
    out = ['{"format":"cct-lens/forest@1","threads":{']
    for i, tid in enumerate(sorted(roots)):
        out.append(f'{"," if i else ""}"{tid}":')
        _reference_tree(roots[tid], out)
    return "".join(out) + "}}"


def _wide(n: int, method=lambda i: f"m{i}", truncated=False) -> CctNode:
    """A root over ``n`` leaves, each a fragment of its own and a separator."""
    root = CctNode("<root>", 1, n)
    for i in range(n):
        root.children[method(i)] = CctNode(method(i), 1, 1, truncated and i % 2 == 0)
    return root


class TestChunkedText:
    """The chunks of ``cct_json`` and ``forest_json`` join to the text of one
    list of fragments, wherever a chunk ends."""

    def check(self, root: CctNode, forest: dict[int, CctNode]) -> list[list[str]]:
        chunks = [list(cct_json(root)), list(forest_json(forest))]
        assert "".join(chunks[0]) == serialize_cct(root) == _reference_cct(root)
        assert "".join(chunks[1]) == serialize_forest(forest) == _reference_forest(forest)
        return chunks

    def test_no_threads_and_a_root_without_children(self):
        root = CctNode("<root>", 1)
        assert self.check(root, {}) == [
            ['{"format":"cct-lens/cct@1","tree":{"m":"<root>","inv":1,"ns":0}}'],
            ['{"format":"cct-lens/forest@1","threads":{}}']]
        self.check(root, {0: CctNode("<root:0>", 1)})

    @pytest.mark.parametrize("n", [cct._CHUNK // 2 - 1, cct._CHUNK // 2, cct._CHUNK // 2 + 1,
                                   3 * cct._CHUNK])
    def test_truncated_frames_at_chunk_ends(self, n):
        # a truncated leaf is three fragments, the others two, each with its separator
        root = _wide(n, truncated=True)
        self.check(root, {1: root, 7: _wide(n // 3)})

    def test_names_that_need_escapes(self):
        names = ['q"t', "b\\s", "t\tab", "\x00", "é", "日本", "\u2028", "\U0001f600"]
        root = _wide(2 * cct._CHUNK, lambda i: f"{names[i % len(names)]}{i}")
        chunks = self.check(root, {3: root})
        assert len(chunks[0]) > 2
        assert json.loads("".join(chunks[0]))["tree"]["ch"][1]["m"] == "b\\s1"

    def test_a_tree_of_many_chunks(self):
        # 3 * _CHUNK nodes, each under a random one made before it
        rng = random.Random(5)
        forest = {tid: CctNode(f"<root:{tid}>", 1) for tid in (0, 2, 10)}
        nodes = list(forest.values())
        for i in range(3 * cct._CHUNK):
            parent = rng.choice(nodes)
            node = parent.children[f"m{i}"] = CctNode(f"m{i}", 1, i, rng.random() < 0.2)
            nodes.append(node)
        merged = merge_ccts(forest)
        fragments = []
        _reference_tree(merged, fragments)
        chunks = self.check(merged, forest)
        # a chunk is made once the fragments pass the count
        count = len(fragments) // cct._CHUNK
        assert count // 2 < len(chunks[0]) <= count + 1
        assert len(chunks[0]) > 3 and len(chunks[1]) > 3

    def test_a_chain_1e5_deep(self):
        root = _chain(10**5)
        chunks = self.check(root, {1: root, 2: _chain(10)})
        assert len(chunks[0]) > 10


class TestFoldedStacks:
    def test_lines_and_self_times(self):
        events = events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
        root = build_forest(events)[1]
        lines = list(folded_stacks(root))
        assert "a 20" in lines
        assert "a;b 20" in lines
        assert len(lines) == 2

    def test_root_not_included(self):
        root = build_forest(events_1tid((0, E, "a"), (1, X, "a")))[1]
        assert all(not line.startswith("<root") for line in folded_stacks(root))

    def test_folded_self_sums_to_root_total(self):
        rng = random.Random(3)
        for _ in range(20):
            merged = merge_ccts(build_forest(random_trace(rng)))
            total = sum(int(line.rsplit(" ", 1)[1]) for line in folded_stacks(merged))
            assert total == merged.total_time


class TestInvariantsAndProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_conservation_self_equals_root_total(self, seed):
        events = random_trace(random.Random(seed))
        forest = build_forest(events)
        for root in forest.values():
            assert sum(n.self_time() for n in root.walk()) == root.total_time
        merged = merge_ccts(forest)
        assert sum(n.self_time() for n in merged.walk()) == merged.total_time

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence(self, seed):
        events = random_trace(random.Random(seed))
        self_ns, total_ns, calls = replay_totals(events)
        merged = merge_ccts(build_forest(events))
        got_self: dict[str, int] = {}
        got_calls: dict[str, int] = {}
        for node in merged.walk():
            if node is merged:
                continue
            got_self[node.method] = got_self.get(node.method, 0) + node.self_time()
            got_calls[node.method] = got_calls.get(node.method, 0) + node.invocations
        assert got_self == self_ns
        assert got_calls == calls

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_total_bounds_children(self, seed):
        events = random_trace(random.Random(seed))
        for root in build_forest(events).values():
            for node in root.walk():
                assert node.total_time >= sum(c.total_time for c in node.children.values())
                assert all(key == c.method for key, c in node.children.items())
                if node is not root:
                    assert node.invocations >= 1

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_well_formed_traces_accepted_strict(self, seed):
        events = random_trace(random.Random(seed))
        build_forest(events)  # must not raise

    def test_determinism_serialize_identical(self):
        rng = random.Random(99)
        events = random_trace(rng, max_events=150)
        a = serialize_forest(build_forest(events))
        b = serialize_forest(build_forest(list(events)))
        assert a == b

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotonic_insertion(self, seed, pick, extra):
        rng = random.Random(seed)
        events = [e for e in random_trace(rng, max_events=80) if e.tid == 1]
        enters = [i for i, e in enumerate(events) if e.kind == ENTER]
        if not enters:
            return
        idx = enters[pick % len(enters)]
        anchor = events[idx]
        # path of methods open just after the anchor enter
        stack: list[str] = []
        for e in events[: idx + 1]:
            if e.kind == ENTER:
                stack.append(e.method)
            else:
                stack.pop()
        inserted = [
            TraceEvent(anchor.ts, 1, ENTER, "zz_new"),
            TraceEvent(anchor.ts + extra, 1, EXIT, "zz_new"),
        ]
        shifted = [
            TraceEvent(e.ts + extra, e.tid, e.kind, e.method) for e in events[idx + 1 :]
        ]
        before = build_forest(events)[1]
        after = build_forest(events[: idx + 1] + inserted + shifted)[1]

        def walk_path(old: CctNode, new: CctNode, path: list[str]) -> None:
            assert new.total_time >= old.total_time
            if not path:
                return
            head, rest = path[0], path[1:]
            # siblings off the insertion path are untouched
            for m, c in old.children.items():
                if m != head:
                    assert new.children[m] == c
            walk_path(old.children[head], new.children[head], rest)

        walk_path(before, after, stack)
