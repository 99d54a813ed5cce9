"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

from cct_lens.compare import TIER_NAMES

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cct_lens").glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """``module.function:line`` of each call a function makes to itself by name,
    directly or as a method on ``self`` or ``cls``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if ((isinstance(callee, ast.Name) and callee.id == fn.name)
                    or (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id in ("self", "cls"))):
                found.append(f"{fn.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # a recursive walk fails with RecursionError on a deep enough trace
    assert self_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "class C:\n    def g(self):\n        return self.g()\n")
    assert self_calls(ast.parse(source)) == ["f:2", "g:5"]


WRITER = ("trace.py", "write_lines")


def nodes_outside(tree: ast.AST, skip: str | None) -> list[ast.AST]:
    """Every node of ``tree`` but those of the function named ``skip``."""
    skipped = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == skip:
            skipped.update(map(id, ast.walk(fn)))
    return [node for node in ast.walk(tree) if id(node) not in skipped]


def output_calls(tree: ast.AST, skip: str | None = None) -> list[str]:
    """``what:line`` of each place that writes output other than through the
    one writer: a mention of ``sys.stdout``, a ``print`` without
    ``file=sys.stderr``, and an ``open`` with a write mode (or a mode that is
    not a constant).  The body of the function named ``skip`` is left out."""

    def is_sys(node, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "sys")

    found = []
    for node in nodes_outside(tree, skip):
        if is_sys(node, "stdout") or is_sys(node, "__stdout__"):
            found.append(f"sys.{node.attr}:{node.lineno}")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        if node.func.id == "print" and not is_sys(keywords.get("file"), "stderr"):
            found.append(f"print:{node.lineno}")
        if node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value).isdisjoint("wax+")):
                found.append(f"open:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_writer_writes_every_output(path):
    skip = WRITER[1] if path.name == WRITER[0] else None
    assert output_calls(ast.parse(path.read_text(encoding="utf-8")), skip) == []


def test_the_check_sees_writes():
    source = ("import sys\n"
              "def f(p, m):\n"
              "    sys.stdout.write('x')\n"
              "    print('y')\n"
              "    print('z', file=sys.stderr)\n"
              "    open(p, 'w')\n"
              "    open(p, mode='rb')\n"
              "    open(p, m)\n"
              "    open(p)\n"
              "def g(p):\n"
              "    print(open(p, 'a'), file=sys.__stdout__)\n")
    tree = ast.parse(source)
    assert sorted(output_calls(tree)) == sorted([
        "sys.stdout:3", "print:4", "open:6", "open:8", "print:11", "sys.__stdout__:11",
        "open:11"])
    assert sorted(output_calls(tree, skip="g")) == sorted([
        "sys.stdout:3", "print:4", "open:6", "open:8"])


# the one module that ends lines: every other module yields them bare
LINE_ENDER = "trace.py"


def newline_tails(expr: ast.AST | None) -> list[ast.AST]:
    """The str constants and f-strings that end with a newline and end the
    text of ``expr``: the whole, the right of a ``+``, either branch of a
    conditional, and each item of a generator, list or tuple."""
    if isinstance(expr, ast.Constant):
        return [expr] if isinstance(expr.value, str) and expr.value.endswith("\n") else []
    if isinstance(expr, ast.JoinedStr):
        return [expr] if expr.values and newline_tails(expr.values[-1]) else []
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return newline_tails(expr.right)
    if isinstance(expr, ast.IfExp):
        return newline_tails(expr.body) + newline_tails(expr.orelse)
    if isinstance(expr, ast.GeneratorExp):
        return newline_tails(expr.elt)
    if isinstance(expr, (ast.List, ast.Tuple)):
        return [tail for item in expr.elts for tail in newline_tails(item)]
    return []


def line_endings(tree: ast.AST) -> list[str]:
    """``what:line`` of each line ending a generator writes itself: a
    ``yield`` (or ``yield from``) whose text ends with a newline constant,
    and a ``name += "\\n"`` on a name the same function yields."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yielded = {node.value.id for node in ast.walk(fn)
                   if isinstance(node, ast.Yield) and isinstance(node.value, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                found += [f"yield:{tail.lineno}" for tail in newline_tails(node.value)]
            elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                  and isinstance(node.target, ast.Name) and node.target.id in yielded
                  and newline_tails(node.value)):
                found.append(f"+=:{node.lineno}")
    return sorted(set(found), key=lambda f: int(f.split(":")[1]))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != LINE_ENDER],
                         ids=lambda p: p.name)
def test_generators_yield_bare_lines(path):
    # a second line contract would make the writer test every line again
    assert line_endings(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_line_endings():
    source = ("def f(xs, n):\n"
              "    yield 'a\\n'\n"
              "    yield f'{n}\\n'\n"
              "    yield f'{n}' + '\\n'\n"
              "    yield 'a' if n else f'b{n}\\n'\n"
              "    yield from (x + '\\n' for x in xs)\n"
              "    yield from ['a', 'b\\n']\n"
              "    for x in xs:\n"
              "        x += '\\n'\n"
              "        yield x\n"
              "    yield 'a\\nb'\n"
              "    yield f'{n}\\n{n}'\n"
              "    yield ''\n"
              "    yield '\\n'.join(xs)\n"
              "def g(n):\n"
              "    n += '\\n'\n"
              "    return n + '\\n'\n")
    assert line_endings(ast.parse(source)) == [
        "yield:2", "yield:3", "yield:4", "yield:5", "yield:6", "yield:7", "+=:9"]


# the one place that switches the cyclic collector, around every command
COLLECTOR_SWITCH = ("cli.py", "main")


def collector_uses(tree: ast.AST, skip: str | None = None) -> list[str]:
    """``what:line`` of each use of the ``gc`` module outside the function
    named ``skip``: an attribute of ``gc``, a ``from gc import`` and an
    ``import gc as`` another name."""
    found = []
    for node in nodes_outside(tree, skip):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "gc"):
            found.append(f"gc.{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append(f"from gc:{node.lineno}")
        elif isinstance(node, ast.Import) and any(
                alias.name == "gc" and alias.asname for alias in node.names):
            found.append(f"import gc as:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_switch_for_the_collector(path):
    # a per-command setting would fork the policy cli.main keeps for all
    skip = COLLECTOR_SWITCH[1] if path.name == COLLECTOR_SWITCH[0] else None
    assert collector_uses(ast.parse(path.read_text(encoding="utf-8")), skip) == []


def test_the_check_sees_the_collector():
    source = ("import gc\n"
              "def f():\n"
              "    gc.disable()\n"
              "def main():\n"
              "    if gc.isenabled():\n"
              "        gc.freeze()\n"
              "from gc import collect\n"
              "import gc as g\n")
    tree = ast.parse(source)
    assert sorted(collector_uses(tree)) == sorted([
        "gc.disable:3", "gc.isenabled:5", "gc.freeze:6", "from gc:7", "import gc as:8"])
    assert sorted(collector_uses(tree, skip="main")) == sorted([
        "gc.disable:3", "from gc:7", "import gc as:8"])


# the modules that build and rewrite trees: the ingest loop and the tree
# module; the others read them
TREE_WRITERS = ("loop.py", "cct.py")
NODE_FIELDS = frozenset({"children", "invocations", "total_time", "truncated", "method",
                         "_order"})


def node_writes(tree: ast.AST) -> list[str]:
    """``line:field`` of each assignment to, or deletion from, a field a
    ``CctNode`` has: ``x.total_time += ...``, ``x.children = ...``,
    ``x.children[k] = ...``, ``del x.children[k]`` and the like, in any
    target position."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            node = node.value
        elif not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(node, ast.Attribute) and node.attr in NODE_FIELDS:
            found.append(f"{node.lineno}:{node.attr}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in TREE_WRITERS],
                         ids=lambda p: p.name)
def test_only_the_tree_module_writes_children(path):
    # a second tree-copying or tree-fixing loop would fork the overlay
    # cct.overlay keeps, and leave a copy that is valid only after it
    assert node_writes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_children_writes():
    source = ("def f(n, c, k, v):\n"
              "    n.children[k] = c\n"
              "    n.children = {}\n"
              "    a = n.a.children[k] = v\n"
              "    n.children, b = {}, 1\n"
              "    del n.children[k]\n"
              "    for n.children[k] in v:\n"
              "        pass\n"
              "    x = n.children[k]\n"
              "    n.children.get(k)\n"
              "    children = {}\n"
              "    children[k] = v\n"
              "    n.total_time += n.total_time\n"
              "    n.invocations, n.truncated = 1, n.truncated\n"
              "    n.method = v.method\n"
              "    del n._order\n"
              "    n.self_time = v\n"
              "    total_time = n.total_time\n")
    assert sorted(node_writes(ast.parse(source))) == sorted([
        "2:children", "3:children", "4:children", "5:children", "6:children", "7:children",
        "13:total_time", "14:invocations", "14:truncated", "15:method", "16:_order"])


# the one function of loop.py that decides between a strict error and a
# lenient repair's warning
DEFECT = ("loop.py", "_defect")


def strictness_uses(tree: ast.AST, skip: str | None = None) -> list[str]:
    """``what:line`` of each place outside the function named ``skip`` that
    decides between strict and lenient handling: a test of an ``if``,
    ``while``, ``assert``, conditional expression or comprehension filter
    that reads ``lenient``, and a call of ``warn``."""
    found = []
    for node in nodes_outside(tree, skip):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "warn"):
            found.append(f"warn:{node.lineno}")
        if isinstance(node, ast.comprehension):
            tests = node.ifs
        elif isinstance(node, (ast.If, ast.While, ast.Assert, ast.IfExp)):
            tests = [node.test]
        else:
            tests = []
        found += [f"lenient:{test.lineno}" for test in tests
                  if any(isinstance(name, ast.Name) and name.id == "lenient"
                         for name in ast.walk(test))]
    return found


def test_one_place_decides_strict_or_lenient():
    # a second strict-or-lenient pair would fork the wording and the
    # handling that _defect keeps for every structural defect, in either
    # module that reads traces into trees
    for path in (p for p in SOURCES if p.name in TREE_WRITERS):
        skip = DEFECT[1] if path.name == DEFECT[0] else None
        assert strictness_uses(ast.parse(path.read_text(encoding="utf-8")), skip) == []


def test_the_check_sees_strictness():
    source = ("def f(lenient, warn, xs):\n"
              "    if not lenient:\n"
              "        raise ValueError\n"
              "    warn('x')\n"
              "    g(lenient, warn)\n"
              "    y = 1 if lenient and xs else 2\n"
              "    while lenient:\n"
              "        pass\n"
              "    assert lenient\n"
              "    return [x for x in xs if not lenient]\n"
              "def _defect(lenient, warn):\n"
              "    if not lenient:\n"
              "        raise ValueError\n"
              "    if warn is not None:\n"
              "        warn('y')\n")
    tree = ast.parse(source)
    assert sorted(strictness_uses(tree, skip="_defect")) == sorted([
        "lenient:2", "warn:4", "lenient:6", "lenient:7", "lenient:9", "lenient:10"])
    assert sorted(strictness_uses(tree)) == sorted([
        "lenient:2", "warn:4", "lenient:6", "lenient:7", "lenient:9", "lenient:10",
        "lenient:12", "warn:15"])


# every input file is read in binary and decoded by trace.decode, every trace
# and catalog through trace.text_lines
TEXT_LAYERS = ("TextIOWrapper", "RawIOBase")


def text_reads(tree: ast.AST) -> list[str]:
    """``what:line`` of each text layer built by hand, anywhere: a mention of
    ``io.TextIOWrapper`` or ``io.RawIOBase`` and a ``from io import`` of
    either; and of each ``open`` for reading in text mode (no mode, or a
    constant one without ``b`` or any of ``wax+``)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in TEXT_LAYERS
                and isinstance(node.value, ast.Name) and node.value.id == "io"):
            found.append(f"io.{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "io" and any(
                alias.name in TEXT_LAYERS for alias in node.names):
            found.append(f"from io:{node.lineno}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else {
                k.arg: k.value for k in node.keywords}.get("mode")
            if mode is None or (isinstance(mode, ast.Constant) and "b" not in mode.value
                                and set(mode.value).isdisjoint("wax+")):
                found.append(f"open:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_reader_reads_every_trace(path):
    # a second stack of file objects would read a line without the cap
    assert text_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def decode_handlers(tree: ast.AST) -> list[str]:
    """``function:line`` of each ``except`` clause that names
    UnicodeDecodeError, in each function around it."""
    return [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "UnicodeDecodeError" in ast.unparse(node.type)]


def test_one_function_decodes_every_input():
    # trace.decode names a bad byte's line as it reads, so no reader reads
    # a file again to find it
    found = [f"{path.name}:{where.split(':')[0]}" for path in SOURCES
             for where in decode_handlers(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["trace.py:decode"]
    source = ("def f():\n    try:\n        pass\n    except (OSError, UnicodeDecodeError):\n"
              "        pass\n    except ValueError:\n        pass\n")
    assert decode_handlers(ast.parse(source)) == ["f:4"]


def test_the_check_sees_text_reads():
    source = ("import io\n"
              "from io import TextIOWrapper, BytesIO\n"
              "class R(io.RawIOBase):\n"
              "    pass\n"
              "def f(p):\n"
              "    io.TextIOWrapper(open(p, 'rb'))\n"
              "    open(p)\n"
              "    open(p, 'r', encoding='utf-8')\n"
              "    open(p, mode='rt')\n"
              "    open(p, 'w')\n"
              "    io.BytesIO(b'')\n"
              "def g(p):\n"
              "    open(p, encoding='utf-8')\n"
              "    return io.TextIOWrapper\n")
    assert sorted(text_reads(ast.parse(source))) == sorted([
        "from io:2", "io.RawIOBase:3", "io.TextIOWrapper:6", "open:7", "open:8", "open:9",
        "open:13", "io.TextIOWrapper:14"])


# the one loop that parses and checks every trace line a tree or a table is made of
INGEST = ("loop.py", "_ingest")
CHECKS = ("parse_trace_line", "_defect")


def check_callers(tree: ast.AST, names=CHECKS) -> dict[str, set[str]]:
    """For each of ``names``, the functions that call it by name: ``function``
    for a call inside a ``for`` or ``while`` loop of it, ``function:no loop``
    for one outside them."""
    found: dict[str, set[str]] = {name: set() for name in names}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        in_loop = {id(node) for loop in ast.walk(fn)
                   if isinstance(loop, (ast.For, ast.While, ast.AsyncFor))
                   for node in ast.walk(loop)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in found):
                found[node.func.id].add(fn.name if id(node) in in_loop else f"{fn.name}:no loop")
    return found


def test_one_loop_parses_and_checks_every_line():
    # a second loop over trace lines would fork the grammar quick path, the
    # four repairs and their wording, or pay a call per line to share them;
    # the tree module that calls the loop calls neither check
    for path in (p for p in SOURCES if p.name in TREE_WRITERS):
        assert check_callers(ast.parse(path.read_text(encoding="utf-8"))) == {
            name: {INGEST[1]} if path.name == INGEST[0] else set() for name in CHECKS}


def test_the_check_sees_a_second_loop():
    source = ("def _ingest(lines):\n"
              "    for line in lines:\n"
              "        parse_trace_line(line)\n"
              "        _defect(line)\n"
              "    while lines:\n"
              "        _defect(lines.pop())\n"
              "def _sums(lines):\n"
              "    for line in lines:\n"
              "        parse_trace_line(line)\n"
              "def _check(line):\n"
              "    return [_defect(line)]\n")
    assert check_callers(ast.parse(source)) == {
        "parse_trace_line": {"_ingest", "_sums"}, "_defect": {"_ingest", "_check:no loop"}}


# the one matcher, which filters and component catalogs share
MATCHER = "filters.py"


def pattern_tests(tree: ast.AST) -> list[str]:
    """``what:line`` of each place that matches a name against a pattern or
    reads a pattern's ``*``: a call of an attribute named ``matches``, a
    ``startswith`` or ``endswith`` whose argument is not a constant (a name
    tried against a pattern's prefix), and a call or comparison with the
    constant ``"*"`` (a pattern sorted into prefix or exact)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "matches" or (attr in ("startswith", "endswith") and not all(
                    isinstance(arg, ast.Constant) for arg in node.args)):
                found.append(f"{attr}:{node.lineno}")
                continue
        if isinstance(node, (ast.Call, ast.Compare)) and any(
                isinstance(arg, ast.Constant) and arg.value == "*"
                for arg in (node.args if isinstance(node, ast.Call)
                            else [node.left, *node.comparators])):
            found.append(f"'*':{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_matcher_matches_every_pattern(path):
    # a second matcher, or a loop over the patterns, would fork the grammar
    # and cost a test per pattern for each name
    found = pattern_tests(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == MATCHER:
        # check_pattern's check of a pattern's text, and the matcher's sort
        assert [what.split(":")[0] for what in found] == ["'*'", "'*'"]
    else:
        assert found == []


def test_the_check_sees_pattern_tests():
    source = ("def f(ps, m, t, prefix):\n"
              "    if any(p.matches(m) for p in ps):\n"
              "        return m.startswith(prefix)\n"
              "    if t.endswith('*'):\n"
              "        return m.startswith(t[:-1])\n"
              "    star = t.find('*')\n"
              "    if '*' in t[:-1] or t[-1] == '*':\n"
              "        return m.endswith(('a', t))\n"
              "    return m.startswith('#') or m.endswith('x') or t == 'a'\n")
    assert sorted(pattern_tests(ast.parse(source))) == sorted([
        "matches:2", "startswith:3", "'*':4", "startswith:5", "'*':6", "'*':7", "'*':7",
        "endswith:8"])


# the one module that lists the tiers, in compare.TIER_NAMES
TIER_LIST = "compare.py"
ENUMS = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


def tier_spellings(tree: ast.AST, names=TIER_NAMES) -> list[str]:
    """``what:line`` of each class that subclasses an ``enum`` class, and of
    each str constant that is one of ``names`` in any case."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [f"enum:{node.lineno}" for base in node.bases
                      if (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
                      in ENUMS]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.lower() in names):
            found.append(f"{node.value}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_tier_names_are_spelled_once(path):
    # a second list of the tiers, or a type that wraps their names, is a
    # second place to keep in step with the names that snapshots and
    # catalogs are checked against
    found = tier_spellings(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == TIER_LIST:
        assert sorted(what.split(":")[0] for what in found) == sorted(TIER_NAMES)
    else:
        assert found == []


def test_the_check_sees_tier_spellings():
    source = ("import enum\n"
              "class Tier(str, Enum):\n"
              "    WEB = 'web'\n"
              "class Kind(enum.IntEnum):\n"
              "    A = 1\n"
              "class Row(NamedTuple):\n"
              "    tier: str = 'Other'\n"
              "def f(t):\n"
              "    return t == 'dao' or t in ('webs', 'Tier', 'middle')\n")
    assert sorted(tier_spellings(ast.parse(source))) == sorted([
        "enum:2", "web:3", "enum:4", "Other:7", "dao:9"])
