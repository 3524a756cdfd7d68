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
The shape of a graph or drawing is checked one nesting level at a time,
in the order the document's fields are read.  Each level's helper tests
the whole level with builtins that run in C, and walks the level's items
one by one, to find the pointer, only when that test fails.  So each
shape rule is stated once, and the first fault is named the same way
whatever else is wrong.  An id in a document must be an int, as JSON
text gives; Graph, AnchoredGraph and Drawing also take numpy's integers
from API callers.  All bound ids by one rule (``graphs._id``).

Every document is written as ``json.dumps(doc, indent=1, sort_keys=True)``
writes it.  Drawing and graph files, nearly all the bytes the CLI writes,
come from ``drawing_text`` and ``graph_text``, which build that text
straight from the object in about a quarter of the standard library's
time (it runs its pure-Python encoder whenever it indents).  The CLI hands
its other, small documents to ``json.dumps`` itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import chain, count, repeat
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Iterator, NoReturn

from .drawings import Crossing, Drawing, validate
from .errors import InputError
from .graphs import MAX_ID, AnchoredGraph, Graph, _id
from .search import SearchOutcome, SearchStats, Status


def _fail(pointer: str, message: str) -> NoReturn:
    raise InputError(f"{pointer or '/'}: {message}")


def _child(where: str, key: Any) -> str:
    """The pointer to ``key`` under ``where``, escaped as RFC 6901 asks."""
    return f"{where}/{str(key).replace('~', '~0').replace('/', '~1')}"


# ------------------------------------------------------------ shape check
# JSON types, arity and the form of ids and keys only: Graph,
# AnchoredGraph and validate check everything else.  Each helper checks
# its whole level at once with builtins that run in C, and walks its
# items, to name the first fault, only when that check fails.


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


def _json_id(v: Any, where: str) -> None:
    # type(), not isinstance: a bool is not an id, and a numpy integer,
    # which graphs._id takes, could not be written back as JSON
    if type(v) is not int:
        _fail(where, "expected a non-negative integer")
    _id(v, where)


def _items(where: str) -> Iterator[str]:
    """The pointers to the items of the list at ``where``."""
    return (f"{where}/{i}" for i in count())


def _ids(obj: Any, where: str, n: int | None = None,
         names: Iterable[str] | None = None) -> None:
    """Checks that ``obj`` is a list of ids, of ``n`` items if ``n`` is
    given.  ``names`` are its items' pointers if not ``_items(where)``."""
    if (type(obj) is list and (n is None or len(obj) == n)
            and set(map(type, obj)) <= {int}
            and min(obj, default=0) >= 0 and max(obj, default=0) <= MAX_ID):
        return
    for v, at in zip(_list(obj, where, n), names or _items(where)):
        _json_id(v, at)


def _id_lists(obj: Any, where: str, n: int | None = None,
              names: Iterable[str] | None = None) -> None:
    """Checks that ``obj`` is a list of id lists, each of ``n`` items if
    ``n`` is given.  ``names`` are its items' pointers if not
    ``_items(where)``."""
    names = names or _items(where)
    if (type(obj) is list and set(map(type, obj)) <= {list}
            and (n is None or set(map(len, obj)) <= {n})):
        # only ids can be at fault, met in the walk's order
        _ids(list(chain.from_iterable(obj)), where, names=(
            f"{at}/{j}" for at, ids in zip(names, obj)
            for j in range(len(ids))))
    else:
        for ids, at in zip(_list(obj, where), names):
            _ids(ids, at, n)


def _decimal_ids(keys: list) -> bool:
    # A document built in Python may have int keys, which JSON text
    # cannot.  isdecimal, not isdigit: "²".isdigit() holds but int("²")
    # fails.  Only "0" itself may start with "0" ("01" would name id 1),
    # and no numeral may be longer than int() reads.
    limit = _int_digits()
    return (set(map(type, keys)) <= {str}
            and all(map(str.isascii, keys))
            and all(map(str.isdecimal, keys))
            and list(map(itemgetter(0), keys)).count("0") == keys.count("0")
            and not (limit and max(map(len, keys), default=0) > limit))


# int()'s limit on the digits of a numeral; 0 is none, as before 3.10.7
_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _by_id(obj: Any, where: str) -> dict:
    """``obj`` as a JSON object keyed by decimal ids."""
    if not _decimal_ids(list(_object(obj, where))):
        for key in obj:
            if not _decimal_ids([key]):
                _fail(_child(where, key), "key is not a decimal id")
    return obj


_DRAWING_KEYS = ("graph", "crossings", "chains", "rotation")
_CROSSING_KEYS = frozenset(("id", "edges"))


def _crossings(obj: Any, where: str) -> None:
    """Checks that ``obj`` is a list of ``{"id": id, "edges": [id, id]}``."""
    if (type(obj) is list and set(map(type, obj)) <= {dict}
            and all(map(eq, map(dict.keys, obj), repeat(_CROSSING_KEYS)))):
        try:
            _ids(list(map(itemgetter("id"), obj)), where)
            return _id_lists(list(map(itemgetter("edges"), obj)), where, 2)
        except InputError:
            pass  # a later id may come before an earlier edge pair
    for i, x in enumerate(_list(obj, where)):
        at = f"{where}/{i}"
        _object(x, at, ("id", "edges"), closed=True)
        _json_id(x["id"], f"{at}/id")
        _ids(x["edges"], f"{at}/edges", 2)


def _check_graph(obj: Any, where: str) -> None:
    _object(obj, where, ("vertices", "edges"))
    _ids(obj["vertices"], f"{where}/vertices")
    _id_lists(obj["edges"], f"{where}/edges", 2)
    if "anchors" in obj:
        _ids(obj["anchors"], f"{where}/anchors")
    if type(obj.get("multigraph", False)) is not bool:
        _fail(f"{where}/multigraph", "expected true or false")


def _check_drawing(obj: Any, where: str) -> None:
    _object(obj, where, _DRAWING_KEYS)
    _check_graph(obj["graph"], f"{where}/graph")
    _crossings(obj["crossings"], f"{where}/crossings")
    at = f"{where}/chains"
    chains = _by_id(obj["chains"], at)
    _id_lists(list(chains.values()), at, None, (f"{at}/{e}" for e in chains))
    at = f"{where}/rotation"
    rotation = _by_id(obj["rotation"], at)
    names = (f"{at}/{v}" for v in rotation)
    if set(map(type, rotation.values())) <= {list}:
        _id_lists(list(chain.from_iterable(rotation.values())), at, 2, (
            f"{name}/{j}" for name, refs in zip(names, rotation.values())
            for j in range(len(refs))))
    else:
        for refs, name in zip(rotation.values(), names):
            _id_lists(refs, name, 2)
    if "outer_face" in obj:
        _ids(obj["outer_face"], f"{where}/outer_face")


# ---------------------------------------------------------------- writing
# Drawing and graph files are written straight from the objects: each
# container is its item texts joined by one separator, and the items of
# one shape (an id pair, a crossing) come from one ``%`` template built
# by the same rule.  The texts are json.dumps's with indent=1 and
# sort_keys=True, so keys follow string order ("10" before "9").

# a line break and the indent of each nesting depth a document reaches
_NL = tuple("\n" + " " * depth for depth in range(5))


def _block(brackets: str, items: Iterable[str], depth: int) -> str:
    """The list or object of the item texts ``items`` whose opening
    bracket sits at nesting ``depth``."""
    inner = _NL[depth + 1]
    body = ("," + inner).join(items)
    if not body:
        return brackets
    return f"{brackets[0]}{inner}{body}{_NL[depth]}{brackets[1]}"


def _ids_text(ids: Iterable[int], depth: int) -> str:
    return _block("[]", map(str, ids), depth)


def _pairs_text(pairs: Iterable[tuple[int, int]], depth: int) -> str:
    form = _block("[]", ("%d", "%d"), depth + 1)
    return _block("[]", map(form.__mod__, pairs), depth)


def _by_id_text(lists: dict[int, Any], write: Callable[[Any, int], str],
                depth: int) -> str:
    """An object keyed by the decimal ids of ``lists``, each value
    written by ``write(value, depth + 1)``."""
    return _block("{}", [f'"{key}": {write(lists[key], depth + 1)}'
                         for key in sorted(lists, key=str)], depth)


def _graph_text(g: Graph | AnchoredGraph, depth: int) -> str:
    members = []
    if isinstance(g, AnchoredGraph):
        members.append('"anchors": ' + _ids_text(g.anchors, depth + 1))
        g = g.graph
    members.append('"edges": ' + _pairs_text(g.edges, depth + 1))
    if not g.simple:
        members.append('"multigraph": true')
    members.append('"vertices": ' + _ids_text(g.vertices, depth + 1))
    return _block("{}", members, depth)


def graph_text(g: Graph | AnchoredGraph) -> str:
    """Exactly ``json.dumps(graph_to_json(g), indent=1, sort_keys=True)``."""
    return _graph_text(g, 0)


# a crossing as an item of the drawing's crossing list
_CROSSING_FORM = _block(
    "{}", ('"edges": ' + _block("[]", ("%d", "%d"), 3), '"id": %d'), 2)


def drawing_text(d: Drawing) -> str:
    """Exactly ``json.dumps(drawing_to_json(d), indent=1, sort_keys=True)``."""
    crossings = map(_CROSSING_FORM.__mod__,
                    [(*x.edges, x.id) for x in d.crossings])
    members = [
        '"chains": ' + _by_id_text(d.chains, _ids_text, 1),
        '"crossings": ' + _block("[]", crossings, 1),
        '"graph": ' + _graph_text(d.graph, 1),
    ]
    if d.anchored:
        members.append('"outer_face": ' + _ids_text(d.anchors, 1))
    members.append('"rotation": ' + _by_id_text(d.rotation, _pairs_text, 1))
    return _block("{}", members, 0)


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
        g = Graph(obj["vertices"], obj["edges"],
                  simple=not obj.get("multigraph", False))
        return AnchoredGraph(g, obj["anchors"]) if "anchors" in obj else g
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
                       ("max_depth", (int,)), ("pair_cap", (int,)),
                       ("seconds", (int, float))):
        # json.loads reads NaN and Infinity, and NaN < 0 is false
        if key in st and (type(st[key]) not in kinds
                          or not 0 <= st[key] < math.inf):
            _fail(f"/stats/{key}", "expected a finite non-negative number")
    _ids(st.get("order", []), "/stats/order")
    stats = SearchStats(
        nodes=st.get("nodes", 0),
        routes=st.get("routes", 0),
        max_depth=st.get("max_depth", 0),
        seconds=float(st.get("seconds", 0.0)),
        order=tuple(st.get("order", ())),
        pair_cap=st.get("pair_cap", 0),
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
