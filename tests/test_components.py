"""Method-to-component classification and per-component utilization."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens import components
from cct_lens.compare import TIER_NAMES
from cct_lens.components import (
    DERIVE,
    ComponentCatalog,
    ComponentRule,
    component_utilization,
    declaring_class,
    default_hr_catalog,
    load_catalog,
    load_catalog_file,
)
from cct_lens.metrics import HotSpotRow
from cct_lens.report import render_analysis
from cct_lens.snapshot import AnalysisTables
from cct_lens.workload import FIGURE8_TABLE

from conftest import TEXT, pattern_matches, pattern_text, probe_names, rule_specs


# the built-in catalog in the file form that ``analyze --catalog`` reads
DEFAULT_CATALOG_TEXT = """\
# tier\tcomponent\tpattern
middleware\tEJBContainer\tcom.sun.ejb.*
middleware\tEJBContainer\tjavax.ejb.*
middleware\tEJBContainer\tcom.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.*
middleware\tEJBContainer\tcom.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.*
dao\t*\tcom.mycompany.hr.dao.*
business\tEmployeeBean\tcom.mycompany.hr.process.EmployeeBeanBean*
business\tInterviewResultsBean\tcom.mycompany.hr.process.InterviewResultsBean*
business\tHRProcessBean\tcom.mycompany.hr.process.HRProcessBean*
web\t*\torg.apache.jsp.*
web\t*\tcom.mycompany.hr.servlet.*
web\tHRProcessServlet\tcom.mycompany.hr.process.HRProcessServlet.*
"""


def row(method: str, self_ns: int, inv: int = 1, pct=Fraction(0)) -> HotSpotRow:
    return HotSpotRow(method=method, self_time=self_ns, self_pct=pct, invocations=inv)


class TestDeclaringClass:
    def test_qualified_method(self):
        assert declaring_class("com.example.Foo.bar(int)") == "Foo"

    def test_constructor(self):
        assert declaring_class("com.mycompany.hr.vo.CandidateProfile.<init>()") == (
            "CandidateProfile"
        )

    def test_args_with_dots_ignored(self):
        assert declaring_class("a.B.m(java.lang.String,int)") == "B"

    def test_bare_name(self):
        assert declaring_class("main") == "main"


class TestClassify:
    def setup_method(self):
        self.catalog = default_hr_catalog()

    def test_dao_method(self):
        got = self.catalog.classify("com.mycompany.hr.dao.BaseDAO.getConnection()")
        assert got == ("BaseDAO", "dao")

    def test_jsp_page(self):
        got = self.catalog.classify(
            "org.apache.jsp.Login_jsp._jspService(javax.servlet.http.HttpServletRequest,javax.servlet.http.HttpServletResponse)"
        )
        assert got == ("Login_jsp", "web")

    def test_dynamic_stub_is_middleware(self):
        got = self.catalog.classify(
            "com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.authenticate(com.mycompany.hr.vo.EmployeeCredentials)"
        )
        assert got == ("EJBContainer", "middleware")

    def test_remote_wrapper_is_middleware(self):
        got = self.catalog.classify(
            "com.mycompany.hr.process._EmployeeBeanRemoteRemoteWrapper.authenticate(com.mycompany.hr.vo.EmployeeCredentials)"
        )
        assert got == ("EJBContainer", "middleware")

    def test_container_packages_are_middleware(self):
        assert self.catalog.classify("com.sun.ejb.Container.invoke()")[1] == "middleware"
        assert self.catalog.classify("javax.ejb.Handle.get()")[1] == "middleware"

    def test_bean_impl_is_business(self):
        got = self.catalog.classify(
            "com.mycompany.hr.process.EmployeeBeanBean.authenticateEmployee(com.mycompany.hr.vo.EmployeeCredentials)"
        )
        assert got == ("EmployeeBean", "business")

    def test_middleware_wins_over_business_package(self):
        # stub lives in the bean package; rule order decides
        method = "com.mycompany.hr.process._EmployeeBeanRemoteRemote_DynamicStub.addCandidateProfile(com.mycompany.hr.vo.CandidateProfile)"
        assert self.catalog.classify(method)[1] == "middleware"

    def test_servlet_package_is_web(self):
        got = self.catalog.classify("com.mycompany.hr.servlet.LoginServlet.doPost(...)".replace(" ", ""))
        assert got == ("LoginServlet", "web")

    def test_fallback_to_other(self):
        got = self.catalog.classify("com.mycompany.hr.vo.CandidateProfile.<init>()")
        assert got == ("CandidateProfile", "other")

    def test_classify_is_total_on_arbitrary_names(self):
        for name in ("x", "a.b()", "java.lang.String.valueOf(int)"):
            component, tier = self.catalog.classify(name)
            assert component and tier in TIER_NAMES

    def test_rule_order_matters(self):
        first_dao = ComponentCatalog(
            (
                ComponentRule("com.mycompany.*", "App", "business"),
                ComponentRule("com.mycompany.hr.dao.*", "BaseDAO", "dao"),
            )
        )
        got = first_dao.classify("com.mycompany.hr.dao.BaseDAO.getConnection()")
        assert got == ("App", "business")

    def test_tier_labels(self):
        # the text report prints a tier's name capitalized
        rows = tuple(components.ComponentUtilizationRow("C", tier, 1, Fraction(1, 3), 1)
                     for tier in ("dao", "web", "middleware"))
        text = render_analysis({"merged": AnalysisTables((), (), rows)})
        assert [line.split()[1] for line in text.splitlines()[-3:]] == ["Dao", "Web", "Middleware"]


class TestDefaultCatalogCoverage:
    def test_figure_rows_classified(self):
        catalog = default_hr_catalog()
        value_objects = {
            "com.mycompany.hr.vo.EmployeeCredentials.<init>()",
            "com.mycompany.hr.vo.CandidateProfile.<init>()",
        }
        for method, _ms, _inv in FIGURE8_TABLE:
            component, tier = catalog.classify(method)
            if method in value_objects:
                assert tier == "other"
            else:
                assert tier != "other", method

    def test_dao_components_enumerate_exactly(self):
        catalog = default_hr_catalog()
        probes = {
            "BaseDAO": "com.mycompany.hr.dao.BaseDAO.getConnection()",
            "EmployeeDAO": "com.mycompany.hr.dao.EmployeeDAO.<init>()",
            "InterviewDAO": "com.mycompany.hr.dao.InterviewDAO.add()",
            "HRDAO": "com.mycompany.hr.dao.HRDAO.fetch()",
            "ProcessDAO": "com.mycompany.hr.dao.ProcessDAO.run()",
        }
        got = {catalog.classify(m) for m in probes.values()}
        assert got == {(name, "dao") for name in probes}

    def test_business_beans_enumerate_exactly(self):
        catalog = default_hr_catalog()
        probes = [
            "com.mycompany.hr.process.EmployeeBeanBean.recruitEmployee(java.lang.String)",
            "com.mycompany.hr.process.InterviewResultsBeanBean.add(com.mycompany.hr.vo.InterviewResult)",
            "com.mycompany.hr.process.HRProcessBeanBean.process()",
        ]
        got = {catalog.classify(m) for m in probes}
        assert got == {
            ("EmployeeBean", "business"),
            ("InterviewResultsBean", "business"),
            ("HRProcessBean", "business"),
        }


class TestComponentUtilization:
    def test_groups_and_sums(self):
        catalog = default_hr_catalog()
        rows = [
            row("com.mycompany.hr.dao.BaseDAO.getConnection()", 100, 5),
            row("com.mycompany.hr.dao.BaseDAO.<init>()", 50, 5),
            row("org.apache.jsp.Login_jsp._jspService()", 50, 2),
        ]
        util = component_utilization(rows, catalog)
        by_name = {r.component: r for r in util}
        assert by_name["BaseDAO"].self_time == 150
        assert by_name["BaseDAO"].invocations == 10
        assert by_name["BaseDAO"].utilization_pct == Fraction(150, 200)
        assert by_name["Login_jsp"].tier == "web"

    def test_single_component_is_100pct(self):
        catalog = default_hr_catalog()
        util = component_utilization(
            [row("com.mycompany.hr.dao.BaseDAO.a()", 7), row("com.mycompany.hr.dao.BaseDAO.b()", 3)],
            catalog,
        )
        assert len(util) == 1
        assert util[0].utilization_pct == Fraction(1)

    def test_pcts_sum_to_one(self):
        catalog = default_hr_catalog()
        rows = [
            row("com.mycompany.hr.dao.BaseDAO.getConnection()", 41),
            row("org.apache.jsp.Login_jsp._jspService()", 31),
            row("unknown.Thing.run()", 28),
        ]
        util = component_utilization(rows, catalog)
        assert sum(r.utilization_pct for r in util) == Fraction(1)

    def test_self_time_conserved(self):
        catalog = default_hr_catalog()
        rows = [row(f"p{i}.C{i % 3}.m()", i * 10 + 1) for i in range(9)]
        util = component_utilization(rows, catalog)
        assert sum(r.self_time for r in util) == sum(r.self_time for r in rows)

    def test_sorted_desc_by_self(self):
        catalog = default_hr_catalog()
        rows = [
            row("aa.Small.m()", 10),
            row("bb.Big.m()", 99),
            row("cc.Mid.m()", 50),
        ]
        util = component_utilization(rows, catalog)
        assert [r.component for r in util] == ["Big", "Mid", "Small"]

    def test_empty_input(self):
        assert component_utilization([], default_hr_catalog()) == []


# one component name in two tiers, and a component per declaring class
TWO_TIER_CATALOG = load_catalog(["web\tShared\ta*", "dao\tShared\tb*", "business\t*\tc*"])


def lambda_sorted_utilization(rows, catalog) -> list:
    """``component_utilization`` as it sorted its rows before: built, then
    sorted with a key function, which keeps the first-seen order of ties."""
    acc: dict = {}
    for r in rows:
        cell = acc.setdefault(catalog.classify(r.method), [0, 0])
        cell[0] += r.self_time
        cell[1] += r.invocations
    denom = sum(r.self_time for r in rows)
    out = [components.ComponentUtilizationRow(c, t, s, Fraction(s, denom) if denom
                                              else Fraction(0), i)
           for (c, t), (s, i) in acc.items()]
    out.sort(key=lambda r: (-r.self_time, r.component))
    return out


class TestUtilizationOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a1", "a2", "b1", "b2", "c.X.m", "c.Y.m", "d"]),
                              st.integers(0, 3), st.integers(1, 3)),
                    unique_by=lambda t: t[0], max_size=7))
    # the dao Shared row is seen first: it stays first, though "dao" < "web"
    @example([("b1", 5, 1), ("a1", 5, 1)])
    @example([("a1", 5, 1), ("b1", 5, 1)])
    def test_equals_the_key_function_sort(self, table):
        rows = [row(m, s, i) for m, s, i in table]
        assert (component_utilization(rows, TWO_TIER_CATALOG)
                == lambda_sorted_utilization(rows, TWO_TIER_CATALOG))


class TestCatalogFiles:
    def test_round_trip(self):
        assert load_catalog(DEFAULT_CATALOG_TEXT.splitlines()) == default_hr_catalog()

    def test_default_catalog_is_built_once(self):
        assert default_hr_catalog() is default_hr_catalog()

    def test_load_custom_rules(self):
        lines = [
            "# my rules",
            "web\tFrontPage\torg.example.front.*",
            "dao\tStore\tcom.example.store.Db.query()",
        ]
        catalog = load_catalog(lines)
        assert catalog.classify("org.example.front.Index.render()") == ("FrontPage", "web")
        assert catalog.classify("com.example.store.Db.query()") == ("Store", "dao")

    def test_derive_component_in_file(self):
        catalog = load_catalog(["dao\t*\tcom.example.store.*"])
        assert catalog.classify("com.example.store.Db.query()") == ("Db", "dao")

    def test_tier_names_take_any_case(self):
        # the error quotes the text as given; a snapshot takes lower case only
        assert load_catalog(["WEB\tX\tp.*"]).classify("p.A.m()") == ("X", "web")
        with pytest.raises(ValueError, match="unknown tier 'Datab' "):
            load_catalog(["Datab\tX\tp.*"])

    def test_bad_tier_and_field_count(self):
        with pytest.raises(ValueError, match="unknown tier"):
            load_catalog(["database\tX\tp.*"])
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_catalog(["web\tonlytwo"])
        with pytest.raises(ValueError, match="empty component"):
            load_catalog(["web\t\tp.*"])

    def test_bad_pattern_propagates(self):
        with pytest.raises(ValueError, match="final"):
            load_catalog(["web\tX\ta*b"])

    def test_bad_pattern_names_file_and_line(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("# rules\nweb\tX\tp.*\nweb\tY\ta*b\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_catalog_file(path)
        assert str(excinfo.value) == (
            f"{path}: catalog line 3: '*' only allowed as the final character: 'a*b'")

    def test_a_catalog_built_in_code_is_the_loaded_one(self):
        # rules of plain strings: an exact and a prefix rule, a derived
        # component, a tier in upper case in the file, and a lone "*"
        lines = ["web\tFront\ta.*", "DAO\t*\ta*", "business\tB\tq.R.s()", "other\tO\t*"]
        built = ComponentCatalog([ComponentRule("a.*", "Front", "web"),
                                  ComponentRule("a*", DERIVE, "dao"),
                                  ComponentRule("q.R.s()", "B", "business"),
                                  ComponentRule("*", "O", "other")])
        loaded = load_catalog(lines)
        assert built == loaded
        names = ["a.b.C.m()", "ab.Z.q()", "q.R.s()", "q.R.s()x", ""]
        assert [built.classify(name) for name in names] == [
            ("Front", "web"), ("Z", "dao"), ("B", "business"), ("O", "other"), ("O", "other")]
        assert [loaded.classify(name) for name in names] == [
            built.classify(name) for name in names]

    def test_file_loader(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text(DEFAULT_CATALOG_TEXT, encoding="utf-8")
        assert load_catalog_file(path) == default_hr_catalog()


def rule_loop(catalog: ComponentCatalog, method: str) -> tuple[str, str]:
    """``classify`` as a loop over the rules: the first whose pattern matches wins."""
    for rule in catalog.rules:
        if pattern_matches(rule.pattern, method):
            component = rule.component
            if component == DERIVE:
                component = declaring_class(method)
            return component, rule.tier
    return declaring_class(method), "other"


def catalog_of(spec) -> ComponentCatalog:
    return ComponentCatalog(ComponentRule(pattern_text(text, kind), component, tier)
                            for text, kind, component, tier in spec)


def svc_names(count: int, suffix: str) -> list[str]:
    return [f"com.mycompany.hr.svc{i}.Klass{i}.{suffix}" for i in range(count)]


class TestCompiledCatalog:
    @settings(max_examples=300, deadline=None)
    @given(rule_specs(), st.lists(TEXT, max_size=4), st.lists(TEXT, max_size=4))
    @example([], [], ["a.B.m()", ""])  # no rules: every name falls through
    @example([("a.", "exact", "C", "web"), ("a", "prefix", "D", "dao")], [""], [])
    # one text, exact rule first: "a" takes it, "aa" the prefix rule
    @example([("a", "exact", "C", "web"), ("a", "prefix", "D", "dao")], ["a"], [])
    @example([("a$", "exact", DERIVE, "web"), ("", "bare", "C", "dao")], ["\n"], ["a"])
    # a prefix rule with an earlier exact rule's text, then a lone "*"
    @example([("ab", "exact", "C", "web"), ("ab", "prefix", DERIVE, "dao"),
              ("", "bare", "E", "business")], ["c"], ["a", "", "b"])
    def test_same_as_the_rule_loop(self, spec, suffixes, names):
        catalog = catalog_of(spec)
        texts = [rule.pattern for rule in catalog.rules]
        for method in probe_names(texts, suffixes, names):
            assert catalog.classify(method) == rule_loop(catalog, method), method

    def test_cost_does_not_grow_with_the_rules(self):
        # 2,000 names against 200 and 2,000 prefix rules that share their
        # first 17 characters: a match that tries the rules one by one takes
        # about 5x as long with the larger catalog
        names = svc_names(2000, "method()")

        def best_time(count: int) -> float:
            rules = [ComponentRule(text, "C", "dao") for text in svc_names(count, "*")]
            times = []
            for _ in range(7):
                start = time.perf_counter()
                catalog = ComponentCatalog(rules)
                for name in names:
                    catalog.classify(name)
                times.append(time.perf_counter() - start)
            assert catalog.classify(names[count - 1]) == ("C", "dao")
            return min(times)

        assert best_time(2000) < 4 * best_time(200)
