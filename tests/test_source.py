"""Static checks on the package source that no installed linter makes."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "langtail"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    A name counts as read if it appears as an identifier anywhere in the
    module (an attribute chain's root is one). `from __future__` imports
    bind no name.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f(x: np.ndarray):\n    return os.path.join(field(), x)\n")
    assert unused_imports(source) == ["dataclass"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """"function:parameter" for each parameter of a function or lambda that
    its body never reads. A read inside a nested function or lambda counts;
    names that start with `_` are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{p}" for p in params if not p.startswith("_") and p not in read]
    return unread


def test_unread_parameters_finds_a_leftover():
    source = ("def f(cfg, counts, _unused, *args, key=None, **kw):\n"
              "    g = lambda x, y: x\n"
              "    return counts, args, kw, g(key, 0)\n")
    assert unread_parameters(source) == ["f:cfg", "lambda:y"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []
