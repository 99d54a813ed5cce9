"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

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
