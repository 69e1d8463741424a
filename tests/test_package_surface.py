"""The package ships what it runs: every module-level function and class, and
every method, of src/jetinv is used by the package's own code, named by the
benchmark harness or the project's entry points, or (for module-level
names) exported in ``jetinv.__all__``.  References and reference oracles that
only tests use belong in tests/oracles.py or in the tests themselves.

A module-level definition is used where the name resolves to it: a relative
import of it from another module, a load in a scope of its own module, outside
its own body, where ``symtable`` finds the name global, or the string that an
argparse ``set_defaults(func=...)`` call dispatches on.  A local of the same
name elsewhere, such as a loop variable, does not count.  A non-dunder method
is used where an attribute of its name is read outside its own body.  A
mention in a docstring or comment does not count.
"""

import ast
import re
import symtable
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jetinv"


def _exported(trees: dict[str, ast.Module]) -> set[str]:
    """The names in ``__all__`` of the package's ``__init__``."""
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every relative import of a name between modules."""
    return {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def _dispatched(trees: dict[str, ast.Module]) -> set[str]:
    """The handler names of argparse ``set_defaults(func="...")`` calls."""
    return {kw.value.value for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_defaults"
            for kw in node.keywords if kw.arg == "func" and isinstance(kw.value, ast.Constant)}


def _global_loads(source: str, name: str, skip: int) -> bool:
    """Whether some scope of the module, other than the definition at line
    skip and the scopes nested in it, reads name as a global."""
    stack = [symtable.symtable(source, "<module>", "exec")]
    while stack:
        table = stack.pop()
        if table.get_type() != "module" and table.get_lineno() == skip:
            continue
        if name in table.get_identifiers():
            symbol = table.lookup(name)
            if symbol.is_referenced() and symbol.is_global():
                return True
        stack.extend(table.get_children())
    return False


def _attribute_reads(*trees: ast.AST) -> Counter:
    """How often each attribute name is read in the trees."""
    return Counter(node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unused(src: Path) -> list[str]:
    """The definitions of the package at src that nothing above uses, as
    module.name for a function or class and Class.name for a method."""
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported, imported, dispatched = _exported(trees), _imported(trees), _dispatched(trees)
    paths = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "pyproject.toml"]
    outside = "\n".join(path.read_text() for path in paths)
    reads = _attribute_reads(*trees.values())

    def named_outside(name: str) -> bool:
        return re.search(rf"\b{re.escape(name)}\b", outside) is not None

    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name in exported or (module, name) in imported or name in dispatched
                    or named_outside(name) or _global_loads(sources[module], name, node.lineno)):
                out.append(f"{module}.{name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (method.name.startswith("__") and method.name.endswith("__"))
                            and reads[method.name] == _attribute_reads(method)[method.name]
                            and not named_outside(method.name)):
                        out.append(f"{name}.{method.name}")
    return out


def test_every_definition_is_run_by_the_program():
    found = unused(SRC)
    assert found == [], "defined in src/jetinv but run only by tests: " + ", ".join(found)


def test_a_local_of_the_same_name_is_no_reference(tmp_path):
    (tmp_path / "__init__.py").write_text("__all__ = []\n")
    (tmp_path / "a.py").write_text("def head():\n    return 1\n\n\ndef run(xs):\n"
                                   "    for head in xs:\n        pass\n    return head\n")
    (tmp_path / "b.py").write_text("from .a import run\n\n\nclass C:\n    def used(self):\n"
                                   "        return 1\n\n    def spare(self):\n"
                                   "        return self.spare()\n\n\nONE = C().used()\n")
    assert unused(tmp_path) == ["a.head", "C.spare"]
