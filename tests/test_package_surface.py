"""The package ships what it runs: every module-level function and class of
src/jetinv is referred to by the package's own code, named by the benchmark
harness or the project's entry points, or exported in ``jetinv.__all__``.
References and reference oracles that only tests use belong in
tests/oracles.py or in the tests themselves.

A reference is an ``ast.Name``, an ``ast.Attribute`` or the string that an
argparse ``set_defaults(func=...)`` call dispatches on; a mention in a
docstring or comment does not count.
"""

import ast
import re
from pathlib import Path

import jetinv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jetinv"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield module, node.name


def _referred_in_src() -> set[str]:
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "set_defaults"):
                names.update(kw.value.value for kw in node.keywords
                             if kw.arg == "func" and isinstance(kw.value, ast.Constant))
    return names


def _named_outside() -> str:
    paths = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "pyproject.toml"]
    return "\n".join(path.read_text() for path in paths)


def test_every_definition_is_run_by_the_program():
    referred, outside, exported = _referred_in_src(), _named_outside(), set(jetinv.__all__)
    unused = [f"{module}.{name}" for module, name in _definitions()
              if name not in referred and name not in exported
              and not re.search(rf"\b{re.escape(name)}\b", outside)]
    assert unused == [], "defined in src/jetinv but run only by tests: " + ", ".join(unused)
