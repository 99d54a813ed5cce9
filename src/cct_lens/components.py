"""Map method names to architectural components and tiers.

A catalog is an ordered rule list; the first matching rule wins, found
by the ``PatternMatcher`` that instrumentation filters use.  A rule is
three plain strings: a method-name pattern, a component name and a tier,
one of ``compare.TIER_NAMES``.  A component of ``*`` means "derive from
the method": use the simple name of the declaring class.  Methods no rule
matches fall back to their declaring class in the Other tier, so
classification is total.  ``load_catalog`` checks the patterns and tiers
of a catalog file; a catalog built in code is taken as it is.

The built-in catalog describes a three-tier HR web application fronted
by JSP pages and servlets, with stateless session beans in the middle
and DAO classes on JDBC at the bottom; EJB container plumbing (dynamic
stubs, remote wrappers, ``com.sun.ejb``/``javax.ejb`` internals) is
grouped under a Middleware pseudo-component.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple

from .compare import TIER_NAMES
from .filters import PatternMatcher, check_pattern
from .metrics import HotSpotRow
from .trace import clip, errors_in, text_lines

DERIVE = "*"
WEB, BUSINESS, DAO, MIDDLEWARE, OTHER = TIER_NAMES


def declaring_class(method: str) -> str:
    """Simple name of the class declaring a fully qualified method.

    ``com.example.Foo.bar(int)`` -> ``Foo``; a bare name maps to itself.
    """
    head = method.split("(", 1)[0]
    parts = head.split(".")
    if len(parts) < 2:
        return head
    return parts[-2]


class ComponentRule(NamedTuple):
    pattern: str
    component: str  # DERIVE means: use the declaring class simple name
    tier: str


class ComponentCatalog:
    """An ordered rule list, with a ``filters.PatternMatcher`` of the rules'
    patterns: a classification costs the same at any rule count."""

    __slots__ = ("rules", "_matcher")

    def __init__(self, rules: Iterable[ComponentRule]):
        self.rules = tuple(rules)
        self._matcher = PatternMatcher(rule.pattern for rule in self.rules)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentCatalog):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"ComponentCatalog(rules={self.rules!r})"

    def classify(self, method: str) -> tuple[str, str]:
        """Component and tier for a method; first matching rule wins.

        Unmatched methods map to (declaring class, Other).
        """
        first = self._matcher.first(method)
        if first is None:
            return declaring_class(method), OTHER
        _, component, tier = self.rules[first]
        return (declaring_class(method) if component == DERIVE else component), tier


class ComponentUtilizationRow(NamedTuple):
    component: str
    tier: str
    self_time: int
    utilization_pct: Fraction
    invocations: int


def component_utilization(rows: Iterable[HotSpotRow],
                          catalog: ComponentCatalog) -> list[ComponentUtilizationRow]:
    """Group a hot-spot table by component.

    Self time and invocations add up; the percentage denominator is the
    same total self time the hot-spot rows used, so component rows sum to
    100% exactly.  Sorted by descending self time, then component name.
    """
    acc: dict[tuple[str, str], list[int]] = {}
    denom = 0
    for row in rows:
        denom += row.self_time
        key = catalog.classify(row.method)
        cell = acc.get(key)
        if cell is None:
            cell = acc[key] = [0, 0]
        cell[0] += row.self_time
        cell[1] += row.invocations
    # a component in two tiers with one self time keeps its first-seen
    # order: the index decides, and the sort compares no further
    order = sorted((-self_ns, component, i, tier, inv)
                   for i, ((component, tier), (self_ns, inv)) in enumerate(acc.items()))
    return [ComponentUtilizationRow(component, tier, -neg,
                                    Fraction(-neg, denom) if denom else Fraction(0), inv)
            for neg, component, _, tier, inv in order]


@functools.cache
def default_hr_catalog() -> ComponentCatalog:
    """Catalog for the sample HR portal's package layout, built once.

    Container plumbing is matched first so stub/wrapper classes do not
    leak into the Business tier; value-object constructors deliberately
    have no rule and fall through to Other.
    """
    rules = (
        # middleware first: stub/wrapper classes share the beans' package
        ComponentRule("com.sun.ejb.*", "EJBContainer", MIDDLEWARE),
        ComponentRule("javax.ejb.*", "EJBContainer", MIDDLEWARE),
        ComponentRule("com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.*",
                      "EJBContainer", MIDDLEWARE),
        ComponentRule("com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.*",
                      "EJBContainer", MIDDLEWARE),
        # data access classes, one component per DAO class
        ComponentRule("com.mycompany.hr.dao.*", DERIVE, DAO),
        # stateless session beans; Bean* also covers generated *BeanBean impls
        ComponentRule("com.mycompany.hr.process.EmployeeBeanBean*", "EmployeeBean", BUSINESS),
        ComponentRule("com.mycompany.hr.process.InterviewResultsBean*",
                      "InterviewResultsBean", BUSINESS),
        ComponentRule("com.mycompany.hr.process.HRProcessBean*", "HRProcessBean", BUSINESS),
        # web tier: compiled JSP pages and the servlet package
        ComponentRule("org.apache.jsp.*", DERIVE, WEB),
        ComponentRule("com.mycompany.hr.servlet.*", DERIVE, WEB),
        # one servlet class is deployed under the process package
        ComponentRule("com.mycompany.hr.process.HRProcessServlet.*", "HRProcessServlet", WEB),
    )
    return ComponentCatalog(rules)


def load_catalog(lines: Iterable[str]) -> ComponentCatalog:
    """Parse a catalog file: ``tier TAB component TAB pattern`` per line.

    ``#`` comments and blank lines are ignored; rule order is file order.
    """
    rules = []
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 3:
                raise ValueError("expected 3 tab-separated fields")
            tier_text, component, pattern = parts
            tier = tier_text.lower()
            if tier not in TIER_NAMES:
                raise ValueError(f"unknown tier {clip(tier_text, repr)} "
                                 f"(expected {', '.join(TIER_NAMES)})")
            if not component:
                raise ValueError("empty component")
            # every rule of a tier shares one string
            rules.append(ComponentRule(check_pattern(pattern), component, sys.intern(tier)))
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from None
    return ComponentCatalog(tuple(rules))


def load_catalog_file(path) -> ComponentCatalog:
    """Load a catalog file; errors name the file (``trace.errors_in``)."""
    with errors_in(path), open(path, "rb") as fh:
        return load_catalog(text_lines(fh))

