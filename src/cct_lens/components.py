"""Map method names to architectural components and tiers.

A catalog is an ordered rule list; the first matching rule wins.  Rules
pair a method-name pattern (same prefix grammar as instrumentation
filters) with a component name and a tier.  A component of ``*`` means
"derive from the method": use the simple name of the declaring class.
Methods no rule matches fall back to their declaring class in the Other
tier, so classification is total.

The built-in catalog describes a three-tier HR web application fronted
by JSP pages and servlets, with stateless session beans in the middle
and DAO classes on JDBC at the bottom; EJB container plumbing (dynamic
stubs, remote wrappers, ``com.sun.ejb``/``javax.ejb`` internals) is
grouped under a Middleware pseudo-component.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .filters import FilterPattern
from .metrics import HotSpotRow
from .trace import clip, errors_in, text_lines

DERIVE = "*"


class Tier(str, Enum):
    WEB = "web"
    BUSINESS = "business"
    DAO = "dao"
    MIDDLEWARE = "middleware"
    OTHER = "other"

    @property
    def label(self) -> str:
        return self.value.capitalize()


# every tier by its name, as catalogs (in any case) and snapshots write it
TIERS = {t.value: t for t in Tier}


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
    pattern: FilterPattern
    component: str  # DERIVE means: use the declaring class simple name
    tier: Tier

    @classmethod
    def of(cls, pattern: str, component: str, tier: Tier) -> "ComponentRule":
        return cls(FilterPattern(pattern), component, tier)


class ComponentCatalog:
    """An ordered rule list, kept as dicts from rule text to its first rule's
    index: ``_prefix`` for prefix rules (text without the ``*``, so a lone
    ``*`` is ``""``), ``_exact`` for the others.  A name is looked up whole
    and once per distinct prefix length (``_lengths``); the lowest index
    wins.  So, as with the per-length hash tables of Waldvogel et al.
    (SIGCOMM 1997), a classification costs the same at any rule count.
    """

    __slots__ = ("rules", "_prefix", "_exact", "_lengths")

    def __init__(self, rules: Iterable[ComponentRule]):
        self.rules = tuple(rules)
        self._prefix, self._exact = {}, {}
        for i, rule in enumerate(self.rules):
            text = rule.pattern.text
            if text.endswith("*"):
                self._prefix.setdefault(text[:-1], i)
            else:
                self._exact.setdefault(text, i)
        self._lengths = sorted({len(text) for text in self._prefix})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentCatalog):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"ComponentCatalog(rules={self.rules!r})"

    def classify(self, method: str) -> tuple[str, Tier]:
        """Component and tier for a method; first matching rule wins.

        Unmatched methods map to (declaring class, Other).
        """
        prefix, first = self._prefix, self._exact.get(method, len(self.rules))
        # past the name's end, method[:n] is the name: a hit there is a real match
        for n in self._lengths:
            i = prefix.get(method[:n], first)
            if i < first:
                first = i
        if first == len(self.rules):
            return declaring_class(method), Tier.OTHER
        rule = self.rules[first]
        component = rule.component
        if component == DERIVE:
            component = declaring_class(method)
        return component, rule.tier


class ComponentUtilizationRow(NamedTuple):
    component: str
    tier: Tier
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
    acc: dict[tuple[str, Tier], list[int]] = {}
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
        ComponentRule.of("com.sun.ejb.*", "EJBContainer", Tier.MIDDLEWARE),
        ComponentRule.of("javax.ejb.*", "EJBContainer", Tier.MIDDLEWARE),
        ComponentRule.of("com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.*",
                         "EJBContainer", Tier.MIDDLEWARE),
        ComponentRule.of("com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.*",
                         "EJBContainer", Tier.MIDDLEWARE),
        # data access classes, one component per DAO class
        ComponentRule.of("com.mycompany.hr.dao.*", DERIVE, Tier.DAO),
        # stateless session beans; Bean* also covers generated *BeanBean impls
        ComponentRule.of("com.mycompany.hr.process.EmployeeBeanBean*",
                         "EmployeeBean", Tier.BUSINESS),
        ComponentRule.of("com.mycompany.hr.process.InterviewResultsBean*",
                         "InterviewResultsBean", Tier.BUSINESS),
        ComponentRule.of("com.mycompany.hr.process.HRProcessBean*",
                         "HRProcessBean", Tier.BUSINESS),
        # web tier: compiled JSP pages and the servlet package
        ComponentRule.of("org.apache.jsp.*", DERIVE, Tier.WEB),
        ComponentRule.of("com.mycompany.hr.servlet.*", DERIVE, Tier.WEB),
        # one servlet class is deployed under the process package
        ComponentRule.of("com.mycompany.hr.process.HRProcessServlet.*",
                         "HRProcessServlet", Tier.WEB),
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
            tier = TIERS.get(tier_text.lower())
            if tier is None:
                raise ValueError(f"unknown tier {clip(tier_text, repr)} "
                                 f"(expected {', '.join(TIERS)})")
            if not component:
                raise ValueError("empty component")
            rules.append(ComponentRule.of(pattern, component, tier))
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from None
    return ComponentCatalog(tuple(rules))


def load_catalog_file(path) -> ComponentCatalog:
    """Load a catalog file; errors name the file (``trace.errors_in``)."""
    with errors_in(path), open(path, "rb") as fh:
        return load_catalog(text_lines(fh))

