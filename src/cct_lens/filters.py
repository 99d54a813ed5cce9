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

``apply_filter`` copies the tree with one call of ``cct.overlay``, the
one loop that copies tree nodes: spliced callees collapse into
same-method siblings as they are copied, and in drop mode each copy's
total leaves out the dropped time when the call returns.  It serves
``callgraph --format folded``: ``snapshot.ingest_totals`` and
``cct.ingest_call_graph`` filter as frames close, with no tree.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

from .trace import ATTRIBUTE_TO_PARENT, FILTER_MODES, clip
from .trace import DROP_SUBTREE  # bench/layers.py imports it here, where it was


class _Pattern(NamedTuple):
    text: str


class FilterPattern(_Pattern):
    """A method-name prefix pattern, e.g. ``com.sun.ejb.*`` or an exact name."""

    __slots__ = ()

    def __new__(cls, text: str):
        star = text.find("*")
        if star != -1 and star != len(text) - 1:
            raise ValueError(f"'*' only allowed as the final character: {clip(text, repr)}")
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


def keeper(filter_set: FilterSet, mode: str):
    """``filter_set.keeps``, None if it keeps all; ValueError for an unknown ``mode``."""
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r} (expected one of {FILTER_MODES})")
    return filter_set.keeps if filter_set.includes or filter_set.excludes else None


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
    keep = keeper(filter_set, mode)
    if keep is None:
        return root
    from .cct import overlay
    from .loop import CctNode

    # a verdict depends only on the method name: match each name once
    keep = functools.cache(keep)
    splice = mode == ATTRIBUTE_TO_PARENT
    # without splice, overlay adds the kept callees' totals to the root's self time
    fresh = CctNode(root.method, root.invocations,
                    root.total_time if splice else root.self_time(), root.truncated)
    overlay(fresh, root.children.values(), keep, splice)
    return fresh
