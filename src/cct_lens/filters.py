"""Instrumentation filters: decide which methods a profiler would record.

Patterns are method-name prefixes with an optional single trailing ``*``
wildcard; no other wildcard position is allowed.  A pattern without ``*``
matches exactly.  A FilterSet combines include and exclude pattern lists:
excludes always win, and an empty include list falls back to the set's
default verdict.

Applying a filter to a CCT models what the profiler would have produced
had the rejected methods never been instrumented:

- ``attribute_to_parent``: rejected frames vanish and their children are
  spliced into the rejected frame's parent; the rejected frame's self
  time surfaces as parent self time, as an uninstrumented callee's cost
  would.
- ``drop_subtree``: rejected frames disappear along with their whole
  subtree, and the removed time is subtracted from every ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cct import merge_into

ATTRIBUTE_TO_PARENT = "attribute_to_parent"
DROP_SUBTREE = "drop_subtree"
FILTER_MODES = (ATTRIBUTE_TO_PARENT, DROP_SUBTREE)

INCLUDE = "include"
EXCLUDE = "exclude"


@dataclass(frozen=True)
class FilterPattern:
    """A method-name prefix pattern, e.g. ``com.sun.ejb.*`` or an exact name."""

    text: str

    def __post_init__(self):
        star = self.text.find("*")
        if star != -1 and star != len(self.text) - 1:
            raise ValueError(f"'*' only allowed as the final character: {self.text!r}")
        if not self.text:
            raise ValueError("empty filter pattern")

    def matches(self, method: str) -> bool:
        if self.text.endswith("*"):
            return method.startswith(self.text[:-1])
        return method == self.text


@dataclass(frozen=True)
class FilterSet:
    """Include/exclude pattern lists with a default verdict.

    A method is kept when it matches an include pattern (or the include
    list is empty and the default verdict is ``include``) and matches no
    exclude pattern.
    """

    includes: tuple[FilterPattern, ...] = ()
    excludes: tuple[FilterPattern, ...] = ()
    default_verdict: str = INCLUDE

    def __post_init__(self):
        if self.default_verdict not in (INCLUDE, EXCLUDE):
            raise ValueError(f"bad default verdict {self.default_verdict!r}")

    @classmethod
    def from_patterns(cls, includes: Iterable[str] = (), excludes: Iterable[str] = (),
                      default_verdict: str = INCLUDE) -> "FilterSet":
        return cls(
            includes=tuple(FilterPattern(p) for p in includes),
            excludes=tuple(FilterPattern(p) for p in excludes),
            default_verdict=default_verdict,
        )

    def keeps(self, method: str) -> bool:
        if self.includes:
            kept = any(p.matches(method) for p in self.includes)
        else:
            kept = self.default_verdict == INCLUDE
        if kept and any(p.matches(method) for p in self.excludes):
            kept = False
        return kept

    def is_identity(self) -> bool:
        return not self.excludes and (
            not self.includes and self.default_verdict == INCLUDE
        )


def matches(pattern: str, method: str) -> bool:
    """Convenience: does a single pattern string match a method name?"""
    return FilterPattern(pattern).matches(method)


def _clone(node):
    fresh = node.__class__(node.method, node.invocations, node.total_time, node.truncated)
    return fresh


def _attribute(node, keep, is_root: bool):
    """Return the replacement list for this node: itself, or its spliced children."""
    replacements = []
    index = {}

    def add(child):
        existing = index.get(child.method)
        if existing is None:
            index[child.method] = child
            replacements.append(child)
        else:
            # same-method siblings produced by splicing collapse into one node
            merge_into(existing, child)

    for child in node.children.values():
        for repl in _attribute(child, keep, False):
            add(repl)
    if is_root or keep(node.method):
        fresh = _clone(node)
        fresh.children = {c.method: c for c in replacements}
        return [fresh]
    # rejected: children bubble up; this node's time stays inside the
    # parent's total and therefore lands in the parent's self time
    return replacements


def _drop(node, keep, is_root: bool):
    """Return (surviving clone or None, total time removed from this subtree)."""
    if not is_root and not keep(node.method):
        return None, node.total_time
    removed = 0
    fresh = _clone(node)
    for child in node.children.values():
        kept_child, sub = _drop(child, keep, False)
        removed += sub
        if kept_child is not None:
            fresh.children[kept_child.method] = kept_child
    fresh.total_time -= removed
    return fresh, removed


def apply_filter(root, filter_set: FilterSet, mode: str = ATTRIBUTE_TO_PARENT):
    """Rewrite a tree as if filtered methods had never been instrumented.

    The input tree is never mutated; the synthetic root always survives.
    In ``attribute_to_parent`` mode the root's total time is preserved;
    in ``drop_subtree`` mode it shrinks by exactly the removed time.
    Applying the same filter twice gives the same tree as applying it
    once.
    """
    keep = filter_set.keeps
    if mode == ATTRIBUTE_TO_PARENT:
        return _attribute(root, keep, True)[0]
    if mode == DROP_SUBTREE:
        fresh, _ = _drop(root, keep, True)
        return fresh
    raise ValueError(f"unknown filter mode {mode!r} (expected one of {FILTER_MODES})")
