"""Instrumentation filters: decide which methods a profiler would record.

Patterns are method-name prefixes with an optional single trailing ``*``
wildcard; no other wildcard position is allowed.  A pattern without ``*``
matches exactly.  A FilterSet combines include and exclude pattern lists:
a method is kept when it matches an include pattern, or the include list
is empty, and it matches no exclude pattern.

Applying a filter to a CCT models what the profiler would have produced
had the rejected methods never been instrumented:

- ``attribute`` (``ATTRIBUTE_TO_PARENT``): rejected frames vanish and
  their children are spliced into the rejected frame's parent; the
  rejected frame's self time surfaces as parent self time, as an
  uninstrumented callee's cost would.
- ``drop`` (``DROP_SUBTREE``): rejected frames disappear along with
  their whole subtree, and the removed time is subtracted from every
  ancestor.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

from .cct import CctNode, merge_into

# the values of the CLI's --filter-mode
ATTRIBUTE_TO_PARENT = "attribute"
DROP_SUBTREE = "drop"
FILTER_MODES = (ATTRIBUTE_TO_PARENT, DROP_SUBTREE)


class _Pattern(NamedTuple):
    text: str


class FilterPattern(_Pattern):
    """A method-name prefix pattern, e.g. ``com.sun.ejb.*`` or an exact name."""

    __slots__ = ()

    def __new__(cls, text: str):
        star = text.find("*")
        if star != -1 and star != len(text) - 1:
            raise ValueError(f"'*' only allowed as the final character: {text!r}")
        if not text:
            raise ValueError("empty filter pattern")
        return super().__new__(cls, text)

    def matches(self, method: str) -> bool:
        if self.text.endswith("*"):
            return method.startswith(self.text[:-1])
        return method == self.text


class FilterSet(NamedTuple):
    """Include and exclude pattern lists; see ``keeps``."""

    includes: tuple[FilterPattern, ...] = ()
    excludes: tuple[FilterPattern, ...] = ()

    @classmethod
    def from_patterns(cls, includes: Iterable[str] = (),
                      excludes: Iterable[str] = ()) -> "FilterSet":
        return cls(
            includes=tuple(FilterPattern(p) for p in includes),
            excludes=tuple(FilterPattern(p) for p in excludes),
        )

    def keeps(self, method: str) -> bool:
        """True when the method matches an include pattern, or there are
        none, and matches no exclude pattern."""
        if self.includes and not any(p.matches(method) for p in self.includes):
            return False
        return not any(p.matches(method) for p in self.excludes)


def apply_filter(root: CctNode, filter_set: FilterSet,
                 mode: str = ATTRIBUTE_TO_PARENT) -> CctNode:
    """Rewrite a tree as if filtered methods had never been instrumented.

    The input tree is never mutated; a filter without patterns keeps
    every method and returns the input itself, any other filter a fresh
    tree.  The synthetic root always survives.  In ``ATTRIBUTE_TO_PARENT``
    mode the root's total time is preserved; in ``DROP_SUBTREE`` mode it
    shrinks by exactly the removed time.  Applying the same filter twice
    gives the same tree as applying it once.  Works at any tree depth.
    """
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r} (expected one of {FILTER_MODES})")
    if not filter_set.includes and not filter_set.excludes:
        return root
    # a verdict depends only on the method name: match each name once
    keep = functools.cache(filter_set.keeps)
    splice = mode == ATTRIBUTE_TO_PARENT
    # preorder with each node's verdict; drop mode never goes below a
    # rejected node.  The stack hands out a node's last child first, so
    # the reversed order visits children before parents, in child order.
    order = []
    stack = [(root, True)]
    while stack:
        item = stack.pop()
        order.append(item)
        node, kept = item
        if kept or splice:
            for child in node.children.values():
                stack.append((child, keep(child.method)))
    # per visited node, children first: the time drop mode removed below
    # it and the nodes it hands its parent, its own rewrite or, rejected
    # in attribute mode, its spliced children
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
                        # same-method siblings produced by splicing collapse into one node
                        merge_into(existing, fresh)
            del handed[cut:]
        if kept:
            fresh = CctNode(node.method, node.invocations, node.total_time - removed,
                            node.truncated)
            fresh.children = children
            handed.append((removed, [fresh]))
        elif splice:
            # the rejected node's time stays inside the parent's total and
            # therefore lands in the parent's self time
            handed.append((0, list(children.values())))
        else:
            handed.append((node.total_time, []))
    return handed[0][1][0]
