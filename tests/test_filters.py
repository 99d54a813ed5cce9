"""Prefix filter patterns and the two tree-rewrite modes."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens.cct import (MERGED_ROOT, CctNode, build_forest, ingest, merge_ccts, overlay,
                          serialize_cct)
from cct_lens.filters import (
    ATTRIBUTE_TO_PARENT,
    FILTER_MODES,
    FilterSet,
    apply_filter,
    check_pattern,
    keeper,
)
from cct_lens.metrics import MethodTotals, aggregate_methods
from cct_lens.trace import DROP_SUBTREE, ENTER as E, EXIT as X, TraceEvent

from conftest import (TEXT, decode_tree, events_1tid, loop_keeps, pattern_text,
                      probe_names, random_trace, replay_totals, rule_specs)


def keeps(filter_set: FilterSet, method: str) -> bool:
    """Whether ``keeper``'s predicate keeps ``method`` (None keeps every method),
    checked to agree with the pattern-by-pattern reference."""
    keep = keeper(filter_set, ATTRIBUTE_TO_PARENT)
    kept = keep is None or keep(method)
    assert kept == loop_keeps(filter_set, method)
    return kept


def matches(text: str, method: str) -> bool:
    """Whether an include list of the one pattern ``text`` keeps ``method``."""
    return keeps(FilterSet.from_patterns(includes=[text]), method)


class TestPatterns:
    def test_prefix_match(self):
        assert matches("com.sun.ejb.*", "com.sun.ejb.Container.invoke()")

    def test_prefix_non_match(self):
        assert not matches("com.sun.ejb.*", "com.mycompany.hr.dao.BaseDAO.getConnection()")

    def test_exact_match(self):
        assert matches("a.B.m()", "a.B.m()")
        assert not matches("a.B.m()", "a.B.m()x")

    def test_lone_star_matches_everything(self):
        assert matches("*", "anything.at.all()")

    def test_star_only_final(self):
        with pytest.raises(ValueError, match="final"):
            check_pattern("a*b")
        with pytest.raises(ValueError, match="final"):
            check_pattern("*a*")
        with pytest.raises(ValueError, match="empty filter pattern"):
            check_pattern("")
        with pytest.raises(ValueError, match="final"):
            FilterSet.from_patterns(excludes=["a", "a*b"])

    def test_empty_prefix_from_lone_star(self):
        assert matches("*", "x")


class TestFilterSet:
    def test_default_include_keeps_all(self):
        fs = FilterSet.from_patterns()
        assert keeper(fs, ATTRIBUTE_TO_PARENT) is None
        assert keeps(fs, "whatever()")

    def test_includes_restrict(self):
        fs = FilterSet.from_patterns(includes=["com.mycompany.*"])
        assert keeps(fs, "com.mycompany.hr.X.y()")
        assert not keeps(fs, "org.apache.Z.q()")

    def test_excludes_win_over_includes(self):
        fs = FilterSet.from_patterns(includes=["com.*"], excludes=["com.sun.*"])
        assert keeps(fs, "com.mycompany.A.b()")
        assert not keeps(fs, "com.sun.ejb.C.d()")

    @settings(max_examples=300, deadline=None)
    @given(rule_specs(), rule_specs(), st.lists(TEXT, max_size=4), st.lists(TEXT, max_size=4))
    @example([], [("", "bare", "C", "web")], [], ["a", ""])  # exclude everything
    @example([("", "bare", "C", "web")], [], [], ["a", ""])  # include everything
    # one text as an exact and a prefix pattern, in either list, and twice
    @example([("a", "exact", "C", "web"), ("a", "prefix", "C", "web")],
             [("ab", "exact", "C", "web"), ("ab", "exact", "C", "web")], ["b", ""], [])
    @example([("a.", "prefix", "C", "web")] * 2, [("a", "prefix", "C", "web"),
                                                  ("a.b", "exact", "C", "web")],
             ["", "b", "a"], ["a"])
    def test_keeper_is_the_pattern_loop(self, include_spec, exclude_spec, suffixes, names):
        includes = [pattern_text(text, kind) for text, kind, _, _ in include_spec]
        excludes = [pattern_text(text, kind) for text, kind, _, _ in exclude_spec]
        fs = FilterSet.from_patterns(includes, excludes)
        for method in probe_names(includes + excludes, suffixes, names):
            keeps(fs, method)


def tree_a40_b20():
    # root -> a{total 40} -> b{total 20}
    events = events_1tid((0, E, "a"), (10, E, "b"), (30, X, "b"), (40, X, "a"))
    return build_forest(events)[1]


def tree_a40_b20_c5():
    # root -> a{40} -> b{20} -> c{5}
    return build_forest(
        events_1tid(
            (0, E, "a"), (10, E, "b"), (12, E, "c"), (17, X, "c"), (30, X, "b"), (40, X, "a")
        )
    )[1]


class TestAttributeToParent:
    def test_splice_leaf(self):
        out = apply_filter(tree_a40_b20(), FilterSet.from_patterns(excludes=["b"]))
        a = out.children["a"]
        assert a.total_time == 40
        assert a.self_time() == 40
        assert not a.children

    def test_grandchild_promotion(self):
        out = apply_filter(tree_a40_b20_c5(), FilterSet.from_patterns(excludes=["b"]))
        a = out.children["a"]
        assert a.total_time == 40
        assert list(a.children) == ["c"]
        assert a.children["c"].total_time == 5
        assert a.self_time() == 35

    def test_root_total_unchanged(self):
        tree = tree_a40_b20_c5()
        out = apply_filter(tree, FilterSet.from_patterns(excludes=["a"]))
        assert out.total_time == tree.total_time

    def test_rejected_top_level_children_become_top_level(self):
        out = apply_filter(tree_a40_b20(), FilterSet.from_patterns(excludes=["a"]))
        assert list(out.children) == ["b"]
        assert out.children["b"].total_time == 20
        # a's 20 ns of self time now sits unattributed under the root
        assert out.self_time() == 20

    def test_splice_collision_merges_same_method_siblings(self):
        # a has child b and rejected child r whose own child is b
        events = events_1tid(
            (0, E, "a"), (1, E, "b"), (3, X, "b"),
            (4, E, "r"), (5, E, "b"), (8, X, "b"), (9, X, "r"), (20, X, "a")
        )
        out = apply_filter(build_forest(events)[1], FilterSet.from_patterns(excludes=["r"]))
        a = out.children["a"]
        assert list(a.children) == ["b"]
        b = a.children["b"]
        assert b.invocations == 2
        assert b.total_time == 2 + 3
        assert a.self_time() == 20 - 5

    def test_nested_rejections_promote_through(self):
        # both intermediate levels rejected: c hops up to a
        events = events_1tid(
            (0, E, "a"), (1, E, "x"), (2, E, "y"), (3, E, "c"), (4, X, "c"),
            (5, X, "y"), (6, X, "x"), (9, X, "a")
        )
        out = apply_filter(build_forest(events)[1],
                           FilterSet.from_patterns(excludes=["x", "y"]))
        a = out.children["a"]
        assert list(a.children) == ["c"]
        assert a.children["c"].total_time == 1

    def test_synthetic_root_never_filtered(self):
        tree = tree_a40_b20()
        out = apply_filter(tree, FilterSet.from_patterns(excludes=["<root*"]))
        assert out == tree

    def test_input_tree_not_mutated(self):
        tree = tree_a40_b20()
        before = tree.children["a"].total_time, len(tree.children["a"].children)
        apply_filter(tree, FilterSet.from_patterns(excludes=["b"]))
        after = tree.children["a"].total_time, len(tree.children["a"].children)
        assert before == after

    def test_identity_filter_returns_equal_fresh_tree(self):
        # patterns that happen to keep every method still rewrite the tree
        tree = tree_a40_b20_c5()
        for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
            out = apply_filter(tree, FilterSet.from_patterns(includes=["*"]), mode)
            assert out == tree
            assert out is not tree

    def test_filter_without_patterns_returns_input(self):
        tree = tree_a40_b20_c5()
        for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
            assert apply_filter(tree, FilterSet.from_patterns(), mode) is tree


class TestDropSubtree:
    def test_drop_leaf_subtracts_from_ancestors(self):
        out = apply_filter(
            tree_a40_b20(), FilterSet.from_patterns(excludes=["b"]), mode=DROP_SUBTREE
        )
        a = out.children["a"]
        assert a.total_time == 20
        assert a.self_time() == 20
        assert out.total_time == 20

    def test_drop_removes_whole_subtree(self):
        out = apply_filter(
            tree_a40_b20_c5(), FilterSet.from_patterns(excludes=["b"]), mode=DROP_SUBTREE
        )
        a = out.children["a"]
        assert not a.children
        assert a.total_time == 20
        assert out.total_time == 20

    def test_drop_never_increases_totals(self):
        rng = random.Random(5)
        for _ in range(30):
            merged = merge_ccts(build_forest(random_trace(rng)))
            methods = sorted({n.method for n in merged.walk() if n is not merged})
            if not methods:
                continue
            fs = FilterSet.from_patterns(excludes=[rng.choice(methods)])
            out = apply_filter(merged, fs, mode=DROP_SUBTREE)
            assert out.total_time <= merged.total_time

    def test_surviving_self_times_unchanged(self):
        # no splicing in drop mode: survivors keep their own self time
        events = events_1tid(
            (0, E, "a"), (1, E, "b"), (2, E, "c"), (6, X, "c"), (8, X, "b"), (20, X, "a")
        )
        tree = build_forest(events)[1]
        out = apply_filter(tree, FilterSet.from_patterns(excludes=["c"]), mode=DROP_SUBTREE)
        a, b = out.children["a"], out.children["a"].children["b"]
        assert a.self_time() == 13  # unchanged: 20 - 7
        assert b.self_time() == 3  # unchanged: 7 - 4
        assert (a.total_time, b.total_time) == (16, 3)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            apply_filter(tree_a40_b20(), FilterSet.from_patterns(), mode="vanish")


def tree(method: str, invocations: int, total: int, *callees: dict) -> dict:
    """A node's ``decode_tree`` object."""
    obj = {"m": method, "inv": invocations, "ns": total}
    if callees:
        obj["ch"] = list(callees)
    return obj


class TestOverlayWithoutSplice:
    """Without splice, ``overlay`` sets every total as it copies: a copy's
    kept sources' self times plus its copied callees' totals."""

    # two sources of ``a`` collapse into one copy; ``x`` is dropped, and
    # under the second source it has a ``b`` of its own that goes with it
    SOURCES = [
        tree("a", 1, 10, tree("b", 1, 4, tree("c", 1, 1)), tree("x", 1, 3)),
        tree("a", 2, 7, tree("b", 1, 2), tree("x", 1, 1, tree("b", 1, 1))),
    ]

    def test_collapsed_sources_keep_their_self_times(self):
        sources = [decode_tree(obj) for obj in self.SOURCES]
        before = [serialize_cct(node) for node in sources]
        dst = CctNode("r", 1, 5)
        overlay(dst, sources, lambda method: method != "x", splice=False)
        # a: self 3 + 4, b: self 3 + 2, c: 1; the root starts at its self time 5
        expected = tree("r", 1, 18, tree("a", 3, 13, tree("b", 2, 6, tree("c", 1, 1))))
        assert serialize_cct(dst) == serialize_cct(decode_tree(expected))
        for copy in dst.walk():
            callees = sum(callee.total_time for callee in copy.children.values())
            assert copy.total_time == {"r": 5, "a": 7, "b": 5, "c": 1}[copy.method] + callees
        assert [serialize_cct(node) for node in sources] == before

    def test_drop_from_a_root_with_self_time(self):
        # the root's own 13 ns stay; x goes, and the b under it too
        root = decode_tree(tree("r", 1, 20, self.SOURCES[1]))
        fs = FilterSet.from_patterns(excludes=["x"])
        out = serialize_cct(apply_filter(root, fs, DROP_SUBTREE))
        expected = tree("r", 1, 19, tree("a", 2, 6, tree("b", 1, 2)))
        assert out == serialize_cct(decode_tree(expected))
        assert out == serialize_cct(ref_apply_filter(root, fs, DROP_SUBTREE))


def random_filter(rng: random.Random, methods: list[str]) -> FilterSet:
    def some_patterns() -> list[str]:
        out = []
        for m in methods:
            roll = rng.random()
            if roll < 0.2:
                out.append(m)  # exact
            elif roll < 0.35:
                out.append(m[: rng.randrange(1, len(m) + 1)] + "*")  # prefix
        return out

    includes = some_patterns() if rng.random() < 0.4 else []
    excludes = some_patterns() if rng.random() < 0.7 else []
    return FilterSet.from_patterns(includes=includes, excludes=excludes)


class TestFilterProperties:
    def test_per_method_totals_match_filtered_replay(self):
        rng = random.Random(41)
        for _ in range(500):
            events = random_trace(rng)
            merged = merge_ccts(build_forest(events))
            methods = sorted({n.method for n in merged.walk() if n is not merged})
            fs = random_filter(rng, methods or ["m0()"])
            for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
                keep = functools.partial(loop_keeps, fs)
                self_ns, total_ns, calls = replay_totals(events, keep, mode)
                expected = {m: MethodTotals(self_ns[m], total_ns[m], calls[m]) for m in calls}
                assert aggregate_methods(apply_filter(merged, fs, mode)) == expected

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_attribute_conserves_root_total_and_self_sum(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        methods = sorted({n.method for n in merged.walk() if n is not merged})
        fs = random_filter(rng, methods or ["m0()"])
        out = apply_filter(merged, fs, mode=ATTRIBUTE_TO_PARENT)
        assert out.total_time == merged.total_time
        assert sum(n.self_time() for n in out.walk()) == sum(
            n.self_time() for n in merged.walk()
        )

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_idempotence_both_modes(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        methods = sorted({n.method for n in merged.walk() if n is not merged})
        fs = random_filter(rng, methods or ["m0()"])
        for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
            once = apply_filter(merged, fs, mode=mode)
            twice = apply_filter(once, fs, mode=mode)
            assert once == twice

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_survivors_all_kept_rejected_all_gone(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        methods = sorted({n.method for n in merged.walk() if n is not merged})
        fs = random_filter(rng, methods or ["m0()"])
        for mode in (ATTRIBUTE_TO_PARENT, DROP_SUBTREE):
            out = apply_filter(merged, fs, mode=mode)
            for node in out.walk():
                if node is not out:
                    assert loop_keeps(fs, node.method)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_drop_total_bounds_hold_after_filter(self, seed):
        rng = random.Random(seed)
        merged = merge_ccts(build_forest(random_trace(rng)))
        methods = sorted({n.method for n in merged.walk() if n is not merged})
        fs = random_filter(rng, methods or ["m0()"])
        out = apply_filter(merged, fs, mode=DROP_SUBTREE)
        for node in out.walk():
            assert node.total_time >= sum(c.total_time for c in node.children.values())


class TestForestFiltering:
    def test_applies_per_thread(self):
        events = [
            TraceEvent(0, 1, E, "a"), TraceEvent(1, 1, E, "b"),
            TraceEvent(2, 1, X, "b"), TraceEvent(3, 1, X, "a"),
            TraceEvent(0, 2, E, "b"), TraceEvent(4, 2, X, "b"),
        ]
        forest = build_forest(events)
        fs = FilterSet.from_patterns(excludes=["b"])
        out = {tid: apply_filter(root, fs) for tid, root in forest.items()}
        assert sorted(out) == [1, 2]
        assert list(out[1].children) == ["a"]
        assert not out[2].children
        # dropped top-level method's time surfaces as root self time
        assert out[2].total_time == 4


# The overlay as it was before it became one preorder loop: ``merge_into``
# copies a subtree and unites it node by node, and the filter rewrites
# each node from its children's rewrites in a two-phase walk.  These are
# the reference for every byte of ``merge_ccts`` and ``apply_filter``.

def ref_merge_into(dst: CctNode, src: CctNode) -> None:
    work = [(dst, src)]
    while work:
        d, s = work.pop()
        d.invocations += s.invocations
        d.total_time += s.total_time
        d.truncated = d.truncated or s.truncated
        for method, child in s.children.items():
            target = d.children.get(method)
            if target is None:
                target = d.children[method] = CctNode(method)
            work.append((target, child))


def ref_merge_ccts(roots: dict[int, CctNode]) -> CctNode:
    merged = CctNode(MERGED_ROOT)
    for tid in sorted(roots):
        ref_merge_into(merged, roots[tid])
    merged.invocations, merged.truncated = 1, False
    merged.total_time = sum(c.total_time for c in merged.children.values())
    return merged


def ref_apply_filter(root: CctNode, filter_set: FilterSet, mode: str) -> CctNode:
    if not filter_set.includes and not filter_set.excludes:
        return root
    keep = functools.partial(loop_keeps, filter_set)
    splice = mode == ATTRIBUTE_TO_PARENT
    order = []
    stack = [(root, True)]
    while stack:
        item = stack.pop()
        order.append(item)
        node, kept = item
        if kept or splice:
            for child in node.children.values():
                stack.append((child, keep(child.method)))
    handed: list[tuple[int, list[CctNode]]] = []
    for node, kept in reversed(order):
        children: dict[str, CctNode] = {}
        removed = 0
        if kept or splice:
            cut = len(handed) - len(node.children)
            for lost, part in handed[cut:]:
                removed += lost
                for fresh in part:
                    existing = children.setdefault(fresh.method, fresh)
                    if existing is not fresh:
                        ref_merge_into(existing, fresh)
            del handed[cut:]
        if kept:
            fresh = CctNode(node.method, node.invocations, node.total_time - removed,
                            node.truncated)
            fresh.children = children
            handed.append((removed, [fresh]))
        elif splice:
            handed.append((0, list(children.values())))
        else:
            handed.append((node.total_time, []))
    return handed[0][1][0]


# few method names, each at any depth, so that spliced callees collide
# with their new siblings; ``None`` exits the innermost open frame
METHODS = ["a.x", "a.y", "b.x", "b.y", "c"]
PATTERNS = st.lists(st.sampled_from(["a.*", "b.*", "a.x", "b.y", "c", "*", "d"]), max_size=2)
THREAD = st.lists(st.tuples(st.sampled_from([*METHODS, None, None]), st.integers(0, 3)),
                  max_size=40)


def thread_lines(tid: int, steps) -> list[str]:
    """A thread's trace lines; frames left open are closed by lenient
    ingest, which marks them truncated."""
    lines, stack, ts = [], [], 0
    for method, step in steps:
        ts += step
        if method is None:
            if stack:
                lines.append(f"{ts}\t{tid}\tX\t{stack.pop()}")
        else:
            stack.append(method)
            lines.append(f"{ts}\t{tid}\tE\t{method}")
    return lines


class TestOverlayMatchesReference:
    @given(st.dictionaries(st.integers(0, 9), THREAD, max_size=4), PATTERNS, PATTERNS)
    @settings(max_examples=300, deadline=None)
    def test_merge_and_filters_match_the_two_walk_rewrite(self, threads, includes, excludes):
        lines = [line for tid, steps in threads.items() for line in thread_lines(tid, steps)]
        roots = ingest(lines, lenient=True)
        fs = FilterSet.from_patterns(includes=includes, excludes=excludes)
        before = {tid: serialize_cct(root) for tid, root in roots.items()}
        # child order counts, which CctNode.__eq__ does not see
        merged = merge_ccts(roots)
        seen = serialize_cct(merged)
        assert seen == serialize_cct(ref_merge_ccts(roots))
        for tree in [merged, *roots.values()]:
            for mode in FILTER_MODES:
                expected = serialize_cct(ref_apply_filter(tree, fs, mode))
                assert serialize_cct(apply_filter(tree, fs, mode)) == expected
        # neither the merge nor the filters touch their input
        assert {tid: serialize_cct(root) for tid, root in roots.items()} == before
        assert serialize_cct(merged) == seen
