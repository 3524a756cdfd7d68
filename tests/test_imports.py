"""Every module-level import and every definition in the package is used.

Each module is parsed with ``ast``.  The names a module's top-level
imports bind are looked up among the names the module reads;
``__init__.py`` is skipped there, its imports are the package's
re-exports.  Every function, method and class must be read by name (an
``ast.Name`` or ``ast.Attribute``) somewhere in the package or the demos
outside its own body, or be exported in ``__all__``.  A method counts as
read only through an attribute, and an attribute read on ``self``, ``cls``,
a package class by name or a name that only holds instances of one counts
only for that class and its bases.  Dunders are exempt, and so is
``_Parser.error``, which argparse calls.  Every attribute a package class
stores on ``self`` is read somewhere in the package or the demos: on that
class, a base or subclass of it, or on something of unknown class.  So
is every annotated field of a package dataclass or NamedTuple, read by
the demos or the benchmark's code too, unless its class is serialized
whole by ``asdict`` or ``_asdict``; ``UNREAD_FIELDS`` names the few that
stay unread, each with its reason.  The runtime dependencies in
``pyproject.toml`` are exactly the third-party packages the package
imports, and every function the benchmark's tracer wraps still exists
under the name it looks up, and a traced solve is counted once.  Importing the CLI imports neither networkx nor scipy, and
the frame pipeline's commands run with scipy unimportable.  The brute
oracle, the search's independent judge, takes nothing from the search
but the types its answers come in.

Every name in ``minkplanar.__all__`` is read, outside its own definition,
somewhere in the package's modules (``__init__.py`` aside), the demos or
the benchmark's code, its self-tests aside.  A name that only tests read
is on ``EXPORTED_FOR_TESTS``, and README names each of them with the
reason it stays.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import minkplanar

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minkplanar"
DEMOS = ROOT / "demos"
BENCH = ROOT / "bench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CALLED_BY_LIBRARIES = {"_Parser.error"}
# exported names that only tests read; README says why each stays
EXPORTED_FOR_TESTS = {"outcome_from_json"}


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


def _class_named(node, classes: set[str]) -> str | None:
    """The one package class an annotation or ``K(...)`` call names."""
    if isinstance(node, ast.Call):
        node = node.func
    named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    named |= {n.value for n in ast.walk(node)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    named &= classes
    return named.pop() if len(named) == 1 else None


def _typed_names(func: ast.AST, classes: set[str]) -> dict[str, str | None]:
    """The names ``func`` binds, each with the package class whose
    instances it only ever holds, or None: a parameter annotated with the
    class that is never rebound, or a local whose every binding is
    ``name = K(...)``."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    typed = {a.arg: a.annotation and _class_named(a.annotation, classes)
             for a in params + [a for a in (args.vararg, args.kwarg) if a]}
    made = {id(n.targets[0]): _class_named(n.value, classes)
            for n in ast.walk(func)
            if isinstance(n, ast.Assign) and len(n.targets) == 1
            and isinstance(n.value, ast.Call)}
    for n in ast.walk(func):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            cls = made.get(id(n))
            if n.id in typed and typed[n.id] != cls:
                cls = None
            typed[n.id] = cls
    return typed


def _reads(tree: ast.AST, classes: set[str]):
    """Each name read in ``tree`` as ``(name, outer, owner)``.

    ``outer`` holds the ids of the definitions around the read.  ``owner``
    is "" for a bare name, and for an attribute read the class of what it
    is read on, where that is known: ``self`` or ``cls`` inside a class, a
    package class by name, or a name that only holds instances of one
    (``_typed_names``).  It is None for any other attribute read.  Loading
    ``x.a`` only to store into an item of it or delete one (``x.a[k] = v``,
    ``del x.a[k]``) is no read.
    """
    written = {id(n.value) for n in ast.walk(tree)
               if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)}
    stack = [(tree, (), None, {})]
    while stack:
        node, outer, inside, typed = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, outer, ""
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and id(node) not in written):
            owner = None
            if isinstance(node.value, ast.Name):
                if node.value.id in ("self", "cls"):
                    owner = inside
                elif node.value.id in classes:
                    owner = node.value.id
                else:
                    owner = typed.get(node.value.id)
            yield node.attr, outer, owner
        if isinstance(node, DEFINITIONS):
            outer = outer + (id(node),)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            typed = {**typed, **_typed_names(node, classes)}
        if isinstance(node, ast.ClassDef):
            inside = node.name
        stack.extend((child, outer, inside, typed)
                     for child in ast.iter_child_nodes(node))


def _definitions(tree: ast.AST):
    """Each definition in ``tree`` with its dotted name (``Class.method``)
    and the class whose body holds it, or None."""
    stack = [(tree, "", None)]
    while stack:
        node, prefix, holder = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                yield prefix + child.name, child, holder
                stack.append((child, f"{prefix}{child.name}.",
                              child.name if isinstance(child, ast.ClassDef)
                              else None))
            else:
                stack.append((child, prefix, holder))


def _lineage(trees) -> dict[str, set[str]]:
    """Each class defined in ``trees`` with itself and its bases among them."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id if isinstance(b, ast.Name) else b.attr
                                    for b in node.bases
                                    if isinstance(b, (ast.Name, ast.Attribute))}
    lineage = {}
    for name in bases:
        seen, todo = set(), [name]
        while todo:
            c = todo.pop()
            if c in bases and c not in seen:
                seen.add(c)
                todo.extend(bases[c])
        lineage[name] = seen
    return lineage


def _unused_definitions(modules: dict[str, str], readers: dict[str, str],
                        exported: set[str]) -> list[str]:
    """Definitions in ``modules`` that no module and no reader reads.

    Any definition counts as read by an attribute read of its name on
    something whose class ``_reads`` cannot tell.  A method also
    counts as read by one on its own class, a subclass of it, or
    ``self``/``cls`` inside either; anything else by its bare name.
    """
    trees = {name: ast.parse(src) for name, src in {**readers, **modules}.items()}
    lineage = _lineage(trees[m] for m in modules)
    reads: dict[str, list[tuple[tuple[int, ...], str | None]]] = {}
    for tree in trees.values():
        for name, outer, owner in _reads(tree, set(lineage)):
            reads.setdefault(name, []).append((outer, owner))
    unused = []
    for module in sorted(modules):
        for dotted, node, holder in _definitions(trees[module]):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in exported or dotted in CALLED_BY_LIBRARIES):
                continue
            counted = [outer for outer, owner in reads.get(name, ())
                       if owner is None
                       or (owner == "" if holder is None
                           else holder in lineage.get(owner, ()))]
            if all(id(node) in outer for outer in counted):
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
              "    def unread(self):\n        pass\n"
              "    def head(self):\n        pass\n"
              "    def inherited(self):\n        pass\n"
              "class D(C):\n"
              "    def run(self):\n        self.inherited()\n"
              "    def tail(self):\n        pass\n")
    # a local called head does not count for C.head, and E's self.tail
    # does not count for D.tail
    reader = "used()\nC().read()\nD().run()\nhead = 1\nprint(head)\n"
    other = "class E:\n    def go(self):\n        return self.tail\n"
    assert _unused_definitions({"m.py": module, "o.py": other},
                               {"demo.py": reader}, {"public"}) == [
        "m.py: C.head", "m.py: C.unread", "m.py: D.tail", "m.py: recursive",
        "m.py: unused", "o.py: E", "o.py: E.go"]


def test_every_definition_is_used():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"demos/{p.name}": p.read_text(encoding="utf-8")
               for p in sorted(DEMOS.glob("*.py"))}
    assert modules and readers
    assert _unused_definitions(modules, readers, set(minkplanar.__all__)) == []


def _unread_exports(exported: set[str], sources: dict[str, str]) -> list[str]:
    """Names in ``exported`` that no source reads outside their own
    definition.

    A read is a bare name or an attribute load of the name, whatever it
    is read on.  A name that no source defines by ``def`` or ``class``
    has no own definition to be read from.
    """
    trees = [ast.parse(src) for src in sources.values()]
    defined: dict[str, set[int]] = {}
    for tree in trees:
        for _, node, _ in _definitions(tree):
            defined.setdefault(node.name, set()).add(id(node))
    read = {name for tree in trees for name, outer, _ in _reads(tree, set())
            if not defined.get(name, set()) & set(outer)}
    return sorted(exported - read)


def test_checker_sees_an_unread_export():
    module = ("def used():\n    pass\n"
              "def unread():\n    pass\n"
              "def recursive():\n    recursive()\n"
              "class C:\n    def method(self):\n        return C\n")
    reader = "import m\nm.used()\n"
    assert _unread_exports({"used", "unread", "recursive", "C"},
                           {"m.py": module, "demo.py": reader}) == [
        "C", "recursive", "unread"]


def test_every_export_is_read_outside_the_tests():
    sources = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in [*sorted(PACKAGE.glob("*.py")), *sorted(DEMOS.glob("*.py")),
                  *sorted(BENCH.glob("*.py"))]
        if p.name != "__init__.py" and not p.name.startswith("test_")}
    unread = _unread_exports(set(minkplanar.__all__), sources)
    assert sorted(set(unread) - EXPORTED_FOR_TESTS) == []
    # the allowlist holds only names that still need it
    assert sorted(EXPORTED_FOR_TESTS - set(unread)) == []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [n for n in sorted(EXPORTED_FOR_TESTS)
            if f"`{n}`" not in readme] == []


def _unread_attributes(modules: dict[str, str],
                       readers: dict[str, str]) -> list[str]:
    """Attributes stored on ``self`` in ``modules`` that nothing reads,
    in ``modules`` or ``readers``, by the rule of ``_attribute_reads``."""
    trees, lineage, read = _attribute_reads(modules, readers)
    unread = set()
    for module in modules:
        for cls in ast.walk(trees[module]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for n in ast.walk(cls):
                if (isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self" and not read(cls.name, n.attr)):
                    unread.add(f"{module}: {cls.name}.{n.attr}")
    return sorted(unread)


def _attribute_reads(modules: dict[str, str], readers: dict[str, str]):
    """The parsed sources, the lineage of the classes in ``modules`` and
    a test of whether an attribute of a class is read: an attribute load
    of its name on something whose class ``_reads`` cannot tell, or on
    the class, a base or a subclass of it."""
    trees = {name: ast.parse(src) for name, src in {**readers, **modules}.items()}
    lineage = _lineage(trees[m] for m in modules)
    owners: dict[str, set[str | None]] = {}
    for tree in trees.values():
        for name, _, owner in _reads(tree, set(lineage)):
            if owner != "":
                owners.setdefault(name, set()).add(owner)

    def read(cls: str, name: str) -> bool:
        seen = owners.get(name, set())
        return None in seen or any(
            cls in lineage.get(o, ()) or o in lineage[cls] for o in seen)
    return trees, lineage, read


def test_checker_sees_an_unread_attribute():
    module = ("class C:\n"
              "    def __init__(self):\n"
              "        self.read, self.shown = {}, 0\n"
              "        self.stored, self.deleted, self.unread = {}, {}, 0\n"
              "    def go(self, k):\n"
              "        self.stored[k] = 1\n"
              "        del self.deleted[k]\n"
              "        return self.read[k]\n")
    reader = "print(C().shown)\n"
    assert _unread_attributes({"m.py": module}, {"demo.py": reader}) == [
        "m.py: C.deleted", "m.py: C.stored", "m.py: C.unread"]


def test_checker_resolves_whose_attribute_is_read():
    # D's own self.graph, an annotated d.graph and a made e.graph are reads
    # of D.graph; none of them masks C.graph.  B.size is read through its
    # subclass, E.base through an instance of E, and F.seen on an object
    # whose class is unknown
    module = ("class C:\n"
              "    def __init__(self, g):\n"
              "        self.graph = g\n"
              "class D:\n"
              "    def __init__(self, g):\n"
              "        self.graph = g\n"
              "    def go(self):\n"
              "        return self.graph\n"
              "class B:\n"
              "    def __init__(self):\n"
              "        self.size = 0\n"
              "class E(B):\n"
              "    def __init__(self):\n"
              "        self.base = self.size\n"
              "class F:\n"
              "    def __init__(self):\n"
              "        self.seen = 1\n")
    reader = ("def f(d: D, x):\n"
              "    e = D(1)\n"
              "    return d.graph, e.graph, E().base, x.seen\n")
    assert _unread_attributes({"m.py": module}, {"demo.py": reader}) == [
        "m.py: C.graph"]


def test_every_stored_attribute_is_read():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"demos/{p.name}": p.read_text(encoding="utf-8")
               for p in sorted(DEMOS.glob("*.py"))}
    assert _unread_attributes(modules, readers) == []


# annotated fields that nothing outside the tests reads, each with why it
# stays; the next unread field fails
UNREAD_FIELDS = {
    "constructions.py: CounterexampleBundle.vertex_names":
        "the paper's vertex labels, for a reader of a bundle",
    "layout.py: Layout.boundary":
        "the nodes pinned to the circle, which the layout tests check",
    "obstructions.py: PlanarExtraction.chosen":
        "the copies kept per class, which the acceptance tests check",
    "obstructions.py: PlanarExtraction.edge_map":
        "old to new edge ids of the extraction, as restrict returns them",
}


def _serialized_whole(trees, classes: set[str]) -> set[str]:
    """Package classes an object of which is handed whole to ``asdict``
    or ``._asdict()``.  The object is ``self``, an attribute whose name
    some class field annotates with one class, or a local bound once to
    either."""
    annotated: dict[str, set[str]] = {}
    for tree in trees:
        for cls, name, ann in _fields(tree):
            if (kind := _class_named(ann, classes)) is not None:
                annotated.setdefault(name, set()).add(kind)

    def kinds(node, cls, bound) -> set[str]:
        if isinstance(node, ast.Name) and node.id == "self" and cls:
            return {cls}
        if isinstance(node, ast.Attribute):
            return annotated.get(node.attr, set())
        if isinstance(node, ast.Name) and node.id in bound:
            return kinds(bound.pop(node.id), cls, bound)
        return set()

    whole: set[str] = set()
    for tree in trees:
        for _, func, holder in _definitions(tree):
            if isinstance(func, ast.ClassDef):
                continue
            bound = {n.targets[0].id: n.value for n in ast.walk(func)
                     if isinstance(n, ast.Assign) and len(n.targets) == 1
                     and isinstance(n.targets[0], ast.Name)}
            for call in ast.walk(func):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Attribute) and f.attr == "_asdict":
                    arg = f.value
                elif (getattr(f, "id", getattr(f, "attr", None)) == "asdict"
                      and call.args):
                    arg = call.args[0]
                else:
                    continue
                whole |= kinds(arg, holder, dict(bound))
    return whole


def _fields(tree: ast.AST):
    """Each annotated field of a dataclass or NamedTuple class in
    ``tree``, as (class, name, annotation)."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d
                 for d in cls.decorator_list] + cls.bases
        if not {getattr(m, "id", getattr(m, "attr", None))
                for m in marks} & {"dataclass", "NamedTuple"}:
            continue
        for n in cls.body:
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                yield cls, n.target.id, n.annotation


def _unread_fields(modules: dict[str, str],
                   readers: dict[str, str]) -> list[str]:
    """Annotated fields of the dataclasses and NamedTuples in ``modules``
    that nothing reads, in ``modules`` or ``readers``, by the rule of
    ``_attribute_reads``.  Every field of a class that is serialized whole
    (``_serialized_whole``) counts as read."""
    trees, lineage, read = _attribute_reads(modules, readers)
    whole = _serialized_whole(trees.values(), set(lineage))
    return sorted(f"{module}: {cls.name}.{name}" for module in modules
                  for cls, name, _ in _fields(trees[module])
                  if cls.name not in whole and not read(cls.name, name))


def test_checker_sees_an_unread_field():
    module = ("from dataclasses import asdict, dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    read: int\n"
              "    unread: int\n"
              "class T(NamedTuple):\n"
              "    shown: int\n"
              "    hidden: int\n"
              "@dataclass\n"
              "class Stats:\n"
              "    n: int\n"
              "class Params(NamedTuple):\n"
              "    k: int\n"
              "@dataclass\n"
              "class Report:\n"
              "    stats: Stats\n"
              "    params: Params\n"
              "    def to_json(self):\n"
              "        return asdict(self)\n"
              "class Plain:\n"
              "    x: int\n"
              "def f(c: C, r: Report):\n"
              "    p = r.params\n"
              "    return c.read, asdict(r.stats), p._asdict()\n")
    # Report is serialized by its to_json, Stats and Params through its
    # fields, Plain has no fields, and T.hidden read on a C does not count
    reader = "def g(t: T, c: C):\n    return t.shown, c.hidden\n"
    assert _unread_fields({"m.py": module}, {"demo.py": reader}) == [
        "m.py: C.unread", "m.py: T.hidden"]


def test_every_field_is_read_outside_the_tests():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in [*DEMOS.glob("*.py"), *BENCH.glob("*.py")]
               if not p.name.startswith("test_")}
    assert _unread_fields(modules, readers) == sorted(UNREAD_FIELDS)


def _third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``, anywhere in
    it, that are neither the standard library nor the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {n for n in names
            if n not in sys.stdlib_module_names and n != "minkplanar"}


def test_checker_sees_third_party_imports():
    source = ("import os, numpy.linalg\nfrom . import graphs\n"
              "def f():\n    from scipy.sparse import csr_matrix\n")
    assert _third_party_imports(source) == {"numpy", "scipy"}


def test_dependencies_are_what_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    imported = set().union(*(_third_party_imports(p.read_text(encoding="utf-8"))
                             for p in PACKAGE.glob("*.py")))
    assert declared == imported


def _unresolved(targets) -> list[str]:
    """Each ``(name, module, "attr.path", hook)`` target whose path does
    not resolve on its module."""
    missing = []
    for name, module, path, _ in targets:
        obj = module
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{name}: {module.__name__}.{path}")
    return missing


def test_checker_sees_an_unresolved_target():
    from minkplanar import drawings
    assert _unresolved([
        ("ok", drawings, "PlanarizationMap.__init__", None),
        ("gone", drawings, "PlanarizationMap.build", None),
    ]) == ["gone: minkplanar.drawings.PlanarizationMap.build"]


def test_traced_benchmark_targets_resolve(monkeypatch):
    # bench/layers.py names each function it wraps by an attribute path;
    # a rename in the package must fail here, not in a traced run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    assert _unresolved(layers.TARGETS) == []


def test_traced_solve_counts_each_unknown_once(monkeypatch):
    # layers.TARGETS wraps the Tutte solver under two names, so they must
    # not be one object: one solve is one layout.solve span, and its
    # layout.solve.unknowns are the free nodes, the apexes being eliminated
    from minkplanar.constructions import build_G2
    from minkplanar.layout import tutte_layout
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("spans").Tracer()
    d = build_G2().drawing
    with tracer.installed(layers.TARGETS):
        tutte_layout(d)
    assert [s[0] for s in tracer.spans].count("layout.solve") == 1
    nodes = len(d.graph.vertices) + len(d.crossings)
    assert tracer.counts[("timed", "layout.solve.unknowns")] == (
        nodes - len(d.anchors))


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(PACKAGE.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from minkplanar.cli import main
w = sys.argv[1]
for argv in (["gen", "g2", "--out", w + "/g2"],
             ["compose", "--t", "1", "--out", w + "/t1"],
             ["validate", "--drawing", w + "/t1.drawing.json", "--min-k", "2",
              "--out", w + "/t1.verdict.json"],
             ["render", "--drawing", w + "/t1.drawing.json",
              "--svg", w + "/t1.svg", "--k", "2", "--audit"]):
    code = main(argv + ["--report", w + "/report.json"])
    assert code == 0, (argv, code, open(w + "/report.json").read())
"""


def test_cli_runs_without_scipy(tmp_path):
    run = _run_python(_WITHOUT_SCIPY, str(tmp_path))
    assert run.returncode == 0, run.stderr[-2000:]
    assert (tmp_path / "t1.svg").read_text().startswith("<?xml")


def test_networkx_is_not_imported_with_the_cli():
    # only the brute oracle's planarity test needs networkx, at a tenth of
    # a second or more of every start-up; scipy is needed by nothing, and
    # must not come in through a dependency either
    run = _run_python("import sys, minkplanar.cli; "
                      "print('networkx' in sys.modules, 'scipy' in sys.modules)")
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["False", "False"]


# the result types the brute oracle shares with the search it judges
ORACLE_MAY_TAKE = {"SearchOutcome", "SearchStats", "Status"}


def _taken_from_search(source: str) -> list[str]:
    """What ``source``, a module of the package, takes from ``search``
    beyond ``ORACLE_MAY_TAKE``: the module itself, or a name the search
    defines, from it or through the package; each as ``line: name``."""
    defined = {node.name for node in ast.parse(
        (PACKAGE / "search.py").read_text(encoding="utf-8")).body
        if isinstance(node, DEFINITIONS)}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names
                     if "search" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if path[-1] == "search":
                names = [a.name for a in node.names
                         if a.name not in ORACLE_MAY_TAKE]
            elif path in ([""], ["minkplanar"]):
                names = [a.name for a in node.names if a.name == "search"
                         or a.name in defined - ORACLE_MAY_TAKE]
            else:
                names = []
        else:
            names = []
        out += [f"{node.lineno}: {name}" for name in names]
    return out


def test_checker_sees_what_is_taken_from_the_search():
    assert _taken_from_search(
        "from .search import SearchOutcome, Status, search_anchored\n"
        "from . import search\n"
        "import minkplanar.search\n"
        "from minkplanar import Budget, Graph\n"
        "def f():\n    from .search import _assemble\n") == [
        "1: search_anchored", "2: search", "3: minkplanar.search",
        "4: Budget", "6: _assemble"]
    assert _taken_from_search(
        "from .search import SearchOutcome, SearchStats, Status\n"
        "from .graphs import AnchoredGraph\n") == []


def test_the_oracle_takes_only_result_types_from_the_search():
    oracle = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert _taken_from_search(oracle) == []
