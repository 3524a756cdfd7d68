"""Every module-level import and every definition in the package is used.

Each module is parsed with ``ast``.  The names a module's top-level
imports bind are looked up among the names the module reads;
``__init__.py`` is skipped there, its imports are the package's
re-exports.  Every function, method and class must be read by name (an
``ast.Name`` or ``ast.Attribute``) somewhere in the package or the demos
outside its own body, or be exported in ``__all__``.  Dunders are
exempt, and so is ``_Parser.error``, which argparse calls.
"""

import ast
import pathlib

import minkplanar

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minkplanar"
DEMOS = ROOT / "demos"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CALLED_BY_LIBRARIES = {"_Parser.error"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def _reads(tree: ast.AST):
    """Each name read in ``tree``, with the ids of the definitions around it."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, outer
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, outer
        if isinstance(node, DEFINITIONS):
            outer = outer + (id(node),)
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))


def _definitions(tree: ast.AST):
    """Each definition in ``tree`` with its dotted name (``Class.method``)."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                yield prefix + child.name, child
                stack.append((child, f"{prefix}{child.name}."))
            else:
                stack.append((child, prefix))


def _unused_definitions(modules: dict[str, str], readers: dict[str, str],
                        exported: set[str]) -> list[str]:
    """Definitions in ``modules`` that no module and no reader reads."""
    trees = {name: ast.parse(src) for name, src in {**readers, **modules}.items()}
    reads: dict[str, list[tuple[int, ...]]] = {}
    for tree in trees.values():
        for name, outer in _reads(tree):
            reads.setdefault(name, []).append(outer)
    unused = []
    for module in sorted(modules):
        for dotted, node in _definitions(trees[module]):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in exported or dotted in CALLED_BY_LIBRARIES):
                continue
            if all(id(node) in outer for outer in reads.get(name, ())):
                unused.append(f"{module}: {dotted}")
    return sorted(unused)


def test_checker_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys)\n") == [
        "os (line 1)"]
    assert _unused_imports("from a import b as c\nx: c\n") == []


def test_no_unused_module_level_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: bad for p in modules
        if (bad := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_checker_sees_an_unused_definition():
    module = ("def used():\n    pass\n"
              "def unused():\n    pass\n"
              "def recursive():\n    recursive()\n"
              "def public():\n    pass\n"
              "class C:\n"
              "    def __init__(self):\n        pass\n"
              "    def read(self):\n        pass\n"
              "    def unread(self):\n        pass\n")
    reader = "used()\nC().read()\n"
    assert _unused_definitions({"m.py": module}, {"demo.py": reader},
                               {"public"}) == [
        "m.py: C.unread", "m.py: recursive", "m.py: unused"]


def test_every_definition_is_used():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"demos/{p.name}": p.read_text(encoding="utf-8")
               for p in sorted(DEMOS.glob("*.py"))}
    assert modules and readers
    assert _unused_definitions(modules, readers, set(minkplanar.__all__)) == []
