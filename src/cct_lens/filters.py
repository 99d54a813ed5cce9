"""Instrumentation filters: decide which methods a profiler would record.

A pattern is a plain string: a method-name prefix with an optional single
trailing ``*`` wildcard; no other wildcard position is allowed.  A pattern
without ``*`` matches exactly.  ``check_pattern`` checks a pattern's text
where it comes in, from argv or a catalog file.  A FilterSet combines
include and exclude pattern lists: a method is kept when it matches an
include pattern, or the include list is empty, and it matches no exclude
pattern.  Filters and component catalogs match through one ``PatternMatcher``.

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


def check_pattern(text: str) -> str:
    """``text`` if it is a pattern: a method-name prefix such as ``com.sun.ejb.*``,
    or an exact name; ValueError otherwise."""
    if "*" in text[:-1]:
        raise ValueError(f"'*' only allowed as the final character: {clip(text, repr)}")
    if not text:
        raise ValueError("empty filter pattern")
    return text


class PatternMatcher:
    """Dicts from pattern text to its first pattern's index: ``prefix`` for prefix
    patterns (text without the ``*``, so a lone ``*`` is ``""``), ``exact`` for the
    others.  ``first`` looks a name up whole and once per distinct prefix length up to
    its own, as the per-length hash tables of Waldvogel et al. (SIGCOMM 1997) do."""

    __slots__ = ("prefix", "exact", "lengths", "count")

    def __init__(self, texts: Iterable[str]):
        self.prefix, self.exact, i = {}, {}, -1
        for i, text in enumerate(texts):
            if text.endswith("*"):
                self.prefix.setdefault(text[:-1], i)
            else:
                self.exact.setdefault(text, i)
        self.count = i + 1
        self.lengths = sorted({len(text) for text in self.prefix})

    def first(self, name: str) -> int | None:
        """The lowest index of a pattern that matches ``name``, or None."""
        prefix, first = self.prefix, self.exact.get(name, self.count)
        for n in self.lengths:
            if n > len(name):
                break
            if (i := prefix.get(name[:n], first)) < first:
                first = i
        return None if first == self.count else first


class FilterSet(NamedTuple):
    """Include and exclude pattern lists; see ``keeper``."""

    includes: tuple[str, ...] = ()
    excludes: tuple[str, ...] = ()

    @classmethod
    def from_patterns(cls, includes: Iterable[str] = (),
                      excludes: Iterable[str] = ()) -> "FilterSet":
        return cls(tuple(map(check_pattern, includes)), tuple(map(check_pattern, excludes)))


def keeper(filter_set: FilterSet, mode: str):
    """The predicate ``filter_set`` keeps a method by, None if it keeps all;
    ValueError for an unknown ``mode``."""
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r} (expected one of {FILTER_MODES})")
    if not filter_set.includes and not filter_set.excludes:
        return None
    # no include pattern keeps every method, as a lone "*" does
    includes = PatternMatcher(filter_set.includes or ["*"])
    excludes = PatternMatcher(filter_set.excludes)
    return lambda method: includes.first(method) is not None and excludes.first(method) is None


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
