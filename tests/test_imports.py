"""Every module-level import in the package is used by its module.

Only the standard library is needed: each module is parsed with ``ast``
and the names its top-level imports bind are looked up among the names
the module reads.  ``__init__.py`` is skipped; its imports are the
package's re-exports.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "minkplanar"


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
