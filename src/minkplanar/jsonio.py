"""JSON interchange for graphs, drawings, search outcomes, and run reports.

Graph documents look like ``{"vertices": [...], "edges": [[u, v], ...],
"anchors": [...]}`` with the anchor list optional and its order
significant.  Drawing documents wrap a graph together with ``crossings``,
``chains``, ``rotation`` and an optional ``outer_face`` (the anchors).
A ``"multigraph": true`` marker on a graph preserves the parallel-edge
flag across a round trip even when no parallels happen to be present.

A document of the wrong shape, or one that the graph and drawing checks
reject, raises InputError whose message starts with a JSON pointer to the
first offending spot, so CLI users can find it without a stack trace.
The shape of a graph or drawing is checked one nesting level at a time
with builtins that run in C; only a document that fails is walked item by
item to find the pointer.

``dumps`` writes a document as ``json.dumps(doc, indent=1, sort_keys=True)``
does, but one nesting level at a time: the standard library runs its
pure-Python encoder whenever it indents, which costs about six times as
much as its compact C encoder on a large drawing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, is_, itemgetter, not_
from sys import getrecursionlimit
from typing import Any, NoReturn

from .drawings import Crossing, Drawing, validate
from .errors import InputError
from .graphs import AnchoredGraph, Graph
from .search import SearchOutcome, SearchStats, Status


def _fail(pointer: str, message: str) -> NoReturn:
    raise InputError(f"{pointer or '/'}: {message}")


def _child(where: str, key: str) -> str:
    """The pointer to ``key`` under ``where``, escaped as RFC 6901 asks."""
    return f"{where}/{key.replace('~', '~0').replace('/', '~1')}"


# ------------------------------------------------------------ shape walk
# JSON types, arity and the form of ids and keys only: Graph,
# AnchoredGraph and validate check everything else.


def _object(obj: Any, where: str, required: tuple[str, ...] = (),
            closed: bool = False) -> dict:
    """``obj`` as a JSON object with every ``required`` key and, when
    ``closed``, no other key."""
    if type(obj) is not dict:
        _fail(where, "expected an object")
    for key in required:
        if key not in obj:
            _fail(where, f"missing key {key!r}")
    if closed:
        for key in obj:
            if key not in required:
                _fail(_child(where, key), "unexpected key")
    return obj


def _list(obj: Any, where: str, n: int | None = None) -> list:
    """``obj`` as a JSON list, of ``n`` items if ``n`` is given."""
    if type(obj) is not list:
        _fail(where, "expected a list")
    if n is not None and len(obj) != n:
        _fail(where, f"expected {n} items, got {len(obj)}")
    return obj


def _is_id(v: Any) -> bool:
    # type(), not isinstance: a bool is not an id
    return type(v) is int and v >= 0


def _ids(obj: Any, where: str, n: int | None = None) -> None:
    """Checks that ``obj`` is a list of non-negative integers."""
    for i, v in enumerate(_list(obj, where, n)):
        if not _is_id(v):
            _fail(f"{where}/{i}", "expected a non-negative integer")


def _by_id(obj: Any, where: str) -> dict:
    """``obj`` as a JSON object keyed by decimal ids."""
    for key in _object(obj, where):
        # isdecimal, not isdigit: "²".isdigit() holds but int("²") fails.
        # The round trip rules out "01" beside "1", and numerals too long
        # for int().
        try:
            ok = key.isascii() and key.isdecimal() and str(int(key)) == key
        except ValueError:
            ok = False
        if not ok:
            _fail(_child(where, key), "key is not a decimal id")
    return obj


# The same checks, each over a whole nesting level at once.  A document
# they pass, the walk passes; one they fail, the walk is run on to find
# the first fault.

_DRAWING_KEYS = ("graph", "crossings", "chains", "rotation")
_CROSSING_KEYS = frozenset(("id", "edges"))


def _ids_ok(obj: Any) -> bool:
    return (type(obj) is list and set(map(type, obj)) <= {int}
            and min(obj, default=0) >= 0)


def _id_lists_ok(obj: Any, n: int | None = None) -> bool:
    """Whether ``obj`` is a list of id lists, each of ``n`` items if
    ``n`` is given."""
    return (type(obj) is list and set(map(type, obj)) <= {list}
            and (n is None or set(map(len, obj)) <= {n})
            and _ids_ok(list(chain.from_iterable(obj))))


def _by_id_ok(obj: Any) -> bool:
    if type(obj) is not dict:
        return False
    keys = list(obj)
    try:
        return (set(map(type, keys)) <= {str}
                and all(map(str.isascii, keys))
                and all(map(str.isdecimal, keys))
                and list(map(str, map(int, keys))) == keys)
    except ValueError:  # a numeral too long for int()
        return False


def _graph_ok(obj: Any) -> bool:
    return (type(obj) is dict and "vertices" in obj and "edges" in obj
            and _ids_ok(obj["vertices"]) and _id_lists_ok(obj["edges"], 2)
            and ("anchors" not in obj or _ids_ok(obj["anchors"]))
            and type(obj.get("multigraph", False)) is bool)


def _drawing_ok(obj: Any) -> bool:
    if not (type(obj) is dict and all(map(obj.__contains__, _DRAWING_KEYS))
            and _graph_ok(obj["graph"])):
        return False
    xs, chains, rotation = obj["crossings"], obj["chains"], obj["rotation"]
    return (type(xs) is list and set(map(type, xs)) <= {dict}
            and all(map(eq, map(dict.keys, xs), repeat(_CROSSING_KEYS)))
            and _ids_ok(list(map(itemgetter("id"), xs)))
            and _id_lists_ok(list(map(itemgetter("edges"), xs)), 2)
            and _by_id_ok(chains) and _id_lists_ok(list(chains.values()))
            and _by_id_ok(rotation)
            and set(map(type, rotation.values())) <= {list}
            and _id_lists_ok(list(chain.from_iterable(rotation.values())), 2)
            and ("outer_face" not in obj or _ids_ok(obj["outer_face"])))


def _check_graph(obj: Any, where: str) -> None:
    if _graph_ok(obj):
        return
    _object(obj, where, ("vertices", "edges"))
    _ids(obj["vertices"], f"{where}/vertices")
    for i, edge in enumerate(_list(obj["edges"], f"{where}/edges")):
        _ids(edge, f"{where}/edges/{i}", 2)
    if "anchors" in obj:
        _ids(obj["anchors"], f"{where}/anchors")
    if "multigraph" in obj and type(obj["multigraph"]) is not bool:
        _fail(f"{where}/multigraph", "expected true or false")


def _check_drawing(obj: Any, where: str) -> None:
    if _drawing_ok(obj):
        return
    _object(obj, where, _DRAWING_KEYS)
    _check_graph(obj["graph"], f"{where}/graph")
    for i, x in enumerate(_list(obj["crossings"], f"{where}/crossings")):
        at = f"{where}/crossings/{i}"
        _object(x, at, ("id", "edges"), closed=True)
        if not _is_id(x["id"]):
            _fail(f"{at}/id", "expected a non-negative integer")
        _ids(x["edges"], f"{at}/edges", 2)
    for key, chain in _by_id(obj["chains"], f"{where}/chains").items():
        _ids(chain, f"{where}/chains/{key}")
    for key, refs in _by_id(obj["rotation"], f"{where}/rotation").items():
        for j, ref in enumerate(_list(refs, f"{where}/rotation/{key}")):
            _ids(ref, f"{where}/rotation/{key}/{j}", 2)
    if "outer_face" in obj:
        _ids(obj["outer_face"], f"{where}/outer_face")


# ---------------------------------------------------------------- writing
# The values at one nesting level are formatted together: a scalar kind
# at a time through a C-level map, and the containers by joining the
# texts of the level below in document order.


def _floats(values: list) -> Any:
    reprs = list(map(float.__repr__, values))
    return map(_NONFINITE.get, reprs, reprs)


def _strs(values: list) -> Any:
    return map(encode_basestring_ascii, values)


def _ints(values: list) -> Any:
    return map(int.__repr__, values)


def _bools(values: list) -> Any:
    return map(("false", "true").__getitem__, values)


def _nulls(values: list) -> Any:
    return repeat("null", len(values))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# an iterator over the texts of a list of scalars of one kind, as
# json.dumps writes them
_SCALAR_TEXTS = {str: _strs, int: _ints, float: _floats, bool: _bools,
                 type(None): _nulls}
_BRACKETS = {list: "[]", tuple: "[]", dict: "{}"}
_KINDS = _SCALAR_TEXTS.keys() | _BRACKETS.keys()
_key_of = itemgetter(0)
_value_of = itemgetter(1)


def _kind(t: type) -> type:
    """The JSON kind of a type, checked in the order json.dumps checks."""
    if t in _KINDS:
        return t
    for kind in (str, int, float, list, tuple, dict):
        if issubclass(t, kind):
            return kind
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _key_text(key: Any) -> str:
    """An object key as json.dumps turns it into a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return next(_floats([key]))
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _picked(values: list, kinds: list, kind: type) -> Any:
    return compress(values, map(is_, kinds, repeat(kind)))


def dumps(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=1, sort_keys=True)``.

    The document is read top down into its nesting levels: each level's
    values in document order, their kinds, and the sizes and sorted keys
    of the containers among them.  The texts are then built bottom up, a
    level at a time.  ``doc`` must not contain itself.
    """
    levels = []
    values = [doc]
    while values:
        if len(levels) > getrecursionlimit():
            raise RecursionError("document nests too deeply")
        kinds = list(map(type, values))
        kindset = set(kinds)
        if not kindset <= _KINDS:
            table = {t: _kind(t) for t in kindset}
            kinds = list(map(table.__getitem__, kinds))
            kindset = set(table.values())
        boxes = kindset & _BRACKETS.keys()
        if not boxes:
            levels.append((values, kinds, kindset, boxes, (), (), ()))
            break
        if kindset == boxes:
            conts, ckinds = values, kinds
        else:
            mask = list(map(_BRACKETS.__contains__, kinds))
            conts = list(compress(values, mask))
            ckinds = list(compress(kinds, mask))
        keys: list = []
        if dict in boxes:
            items = list(map(sorted, map(dict.items,
                                         _picked(conts, ckinds, dict))))
            keys = list(map(_key_of, chain.from_iterable(items)))
            if not set(map(type, keys)) <= {str}:
                keys = list(map(_key_text, keys))
            keys = list(map(str.__add__, map(encode_basestring_ascii, keys),
                            repeat(": ")))
            runs = {kind: _picked(conts, ckinds, kind)
                    for kind in boxes - {dict}}
            runs[dict] = map(map, repeat(_value_of), items)
            below = chain.from_iterable(
                map(next, map(runs.__getitem__, ckinds)))
        else:
            below = chain.from_iterable(conts)
        levels.append((values, kinds, kindset, boxes, ckinds,
                       list(map(len, conts)), keys))
        values = list(below)

    texts: Any = ()
    for depth in range(len(levels) - 1, -1, -1):
        values, kinds, kindset, boxes, ckinds, sizes, keys = levels.pop()
        if boxes:
            texts = _boxed(texts, boxes, ckinds, sizes, keys, depth)
            if kindset == boxes:
                continue
        if len(kindset) == 1:
            texts = _SCALAR_TEXTS[kinds[0]](values)
            continue
        runs = {kind: _SCALAR_TEXTS[kind](list(_picked(values, kinds, kind)))
                for kind in kindset - boxes}
        runs.update(dict.fromkeys(boxes, texts))
        texts = map(next, map(runs.__getitem__, kinds))
    return next(texts)


def _boxed(below: Any, boxes: set, ckinds: list, sizes: list, keys: list,
           depth: int) -> Any:
    """The texts of the containers at ``depth``, from the texts ``below``
    of their items in document order and the texts of their keys."""
    inner = "\n" + " " * (depth + 1)
    outer = "\n" + " " * depth
    sep = "," + inner
    forms = {kind: f"{_BRACKETS[kind][0]}{inner}%s{outer}{_BRACKETS[kind][1]}"
             for kind in boxes}
    if len(boxes) == 1:
        (kind,) = boxes
        if keys:
            below = map(str.__add__, keys, below)
        if len(set(sizes)) == 1:
            # all of one size, as the pairs of a drawing are
            n = sizes[0]
            if not n:
                return iter([_BRACKETS[kind]] * len(sizes))
            form = forms[kind].replace("%s", sep.join(["%s"] * n))
            return map(form.__mod__, zip(*[below] * n))
        boxed = list(map(forms[kind].__mod__,
                         map(sep.join, map(islice, repeat(below), sizes))))
    else:
        runs = {}
        key_texts = iter(keys)
        for kind in boxes:
            part = list(_picked(sizes, ckinds, kind))
            runs[kind] = map(islice, repeat(below), part)
            if kind is dict:
                runs[kind] = map(map, repeat(str.__add__),
                                 map(islice, repeat(key_texts), part),
                                 runs[kind])
        bodies = map(sep.join, map(next, map(runs.__getitem__, ckinds)))
        boxed = list(map(str.__mod__, map(forms.__getitem__, ckinds), bodies))
    if 0 in sizes:
        for i in compress(range(len(sizes)), map(not_, sizes)):
            boxed[i] = _BRACKETS[ckinds[i]]
    return iter(boxed)


# ----------------------------------------------------------------- graphs


def graph_to_json(g: Graph | AnchoredGraph) -> dict:
    anchors = None
    if isinstance(g, AnchoredGraph):
        anchors = list(g.anchors)
        g = g.graph
    doc: dict = {
        "vertices": list(g.vertices),
        "edges": [[u, v] for (u, v) in g.edges],
    }
    if not g.simple:
        doc["multigraph"] = True
    if anchors is not None:
        doc["anchors"] = anchors
    return doc


def graph_from_json(obj: Any) -> Graph | AnchoredGraph:
    _check_graph(obj, "")
    return _graph(obj, "")


def _graph(obj: dict, where: str) -> Graph | AnchoredGraph:
    """The graph of a shape-checked document at pointer ``where``, which
    prefixes the pointers of ``Graph`` and ``AnchoredGraph`` faults."""
    try:
        g = Graph(
            tuple(obj["vertices"]),
            tuple((u, v) for (u, v) in obj["edges"]),
            simple=not obj.get("multigraph", False),
        )
        return AnchoredGraph(g, tuple(obj["anchors"])) if "anchors" in obj else g
    except InputError as err:
        raise InputError(f"{where}{err}") from None


# --------------------------------------------------------------- drawings

_PROBLEM_POINTERS = {
    "boundary": "/outer_face",
    "crossing": "/crossings",
    "chain": "/chains",
    "rotation": "/rotation",
    "alternation": "/rotation",
    "euler": "/rotation",
}


def drawing_to_json(d: Drawing) -> dict:
    doc: dict = {
        "graph": graph_to_json(d.graph),
        "crossings": [
            {"id": x.id, "edges": [x.edges[0], x.edges[1]]}
            for x in d.crossings
        ],
        "chains": {str(e): list(ch) for e, ch in sorted(d.chains.items())},
        "rotation": {
            str(v): [[e, seg] for (e, seg) in refs]
            for v, refs in sorted(d.rotation.items())
        },
    }
    if d.anchored:
        doc["outer_face"] = list(d.anchors)
    return doc


def drawing_from_json(obj: Any) -> Drawing:
    return _drawing(obj, "")


def _drawing(obj: Any, where: str) -> Drawing:
    """The drawing of the document at pointer ``where``."""
    _check_drawing(obj, where)
    g = _graph(obj["graph"], f"{where}/graph")
    if isinstance(g, AnchoredGraph):
        # a nested anchor list would shadow outer_face; keep one source
        _fail(f"{where}/graph/anchors", "use outer_face for a drawing's boundary")
    crossings = tuple(Crossing(x["id"], tuple(x["edges"]))
                      for x in obj["crossings"])
    chains = {int(e): tuple(ch) for e, ch in obj["chains"].items()}
    rotation = {int(v): tuple(tuple(ref) for ref in refs)
                for v, refs in obj["rotation"].items()}
    anchors = tuple(obj["outer_face"]) if "outer_face" in obj else None
    d = Drawing(g, crossings, chains, rotation, anchors)
    problems = validate(d)
    if problems:
        category = problems[0].split(":", 1)[0]
        _fail(where + _PROBLEM_POINTERS.get(category, ""),
              "; ".join(problems[:3]))
    return d


# ---------------------------------------------------- search and reports


def outcome_to_json(o: SearchOutcome) -> dict:
    return {
        "status": o.status.value,
        "stats": asdict(o.stats),
        "certificate": (
            None if o.certificate is None else drawing_to_json(o.certificate)
        ),
    }


def outcome_from_json(obj: Any) -> SearchOutcome:
    _object(obj, "", ("status",))
    try:
        status = Status(obj["status"])
    except ValueError:
        _fail("/status", "unknown search status")
    st = _object(obj.get("stats", {}), "/stats")
    for key, kinds in (("nodes", (int,)), ("routes", (int,)),
                       ("max_depth", (int,)), ("seconds", (int, float))):
        if key in st and (type(st[key]) not in kinds or st[key] < 0):
            _fail(f"/stats/{key}", "expected a non-negative number")
    _ids(st.get("order", []), "/stats/order")
    stats = SearchStats(
        nodes=st.get("nodes", 0),
        routes=st.get("routes", 0),
        max_depth=st.get("max_depth", 0),
        seconds=float(st.get("seconds", 0.0)),
        order=tuple(st.get("order", ())),
    )
    cert = obj.get("certificate")
    return SearchOutcome(
        status=status,
        certificate=None if cert is None else _drawing(cert, "/certificate"),
        stats=stats,
    )


@dataclass
class RunReport:
    """One record per command run, written to stderr or a report file."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    parameters: dict[str, Any] = field(default_factory=dict)
    outcome: str = ""
    stats: dict[str, Any] = field(default_factory=dict)
    version: str = ""

    def to_json(self) -> dict:
        return asdict(self)
