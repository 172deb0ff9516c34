"""Every import resolves to something ``pyproject.toml`` declares.

``src/`` ships with ``dependencies = []``, so it may import only the
standard library and ``repro`` itself.  The test, benchmark and host
benchmark trees may add the packages of the ``test`` extra.  An
undeclared import passes on a machine that happens to have the package
installed and fails on a clean ``pip install -e .[test]``.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LOCAL = {"repro", "tests", "benchmarks", "hostbench"}


def _requirements(key: str) -> set:
    """Import names of a ``key = [...]`` requirement list."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S)
    assert match, f"pyproject.toml has no {key} list"
    names = re.findall(r'"([A-Za-z0-9_.-]+)', match.group(1))
    return {name.lower().replace("-", "_") for name in names}


def _top_level_imports(path: pathlib.Path):
    """``(line, module)`` for every absolute import in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("tree, allowed", [
    ("src", {"repro"} | _requirements("dependencies")),
    ("tests", LOCAL | _requirements("test")),
    ("benchmarks", LOCAL | _requirements("test")),
    ("hostbench", LOCAL | _requirements("test")),
], ids=["src", "tests", "benchmarks", "hostbench"])
def test_imports_are_declared(tree, allowed):
    allowed = allowed | set(sys.stdlib_module_names)
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, module in _top_level_imports(path)
        # A sibling module (``from conftest import ...``) is local too.
        if module not in allowed
        and not (path.parent / f"{module}.py").is_file()]
    assert not undeclared, "undeclared imports:\n" + "\n".join(undeclared)
