"""JSON interchange for graphs, drawings, search outcomes, and run reports.

Graph documents look like ``{"vertices": [...], "edges": [[u, v], ...],
"anchors": [...]}`` with the anchor list optional and its order
significant.  Drawing documents wrap a graph together with ``crossings``,
``chains``, ``rotation`` and an optional ``outer_face`` (the anchors).
A ``"multigraph": true`` marker on a graph preserves the parallel-edge
flag across a round trip even when no parallels happen to be present.

Anything that violates the schema or the semantic validator raises
InputError whose message starts with a JSON pointer to the offending
spot, so CLI users can find the field without reading a stack trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import jsonschema

from .drawings import Crossing, Drawing, validate
from .errors import InputError
from .graphs import AnchoredGraph, Graph
from .search import SearchOutcome, SearchStats, Status

GRAPH_SCHEMA: dict = {
    "type": "object",
    "required": ["vertices", "edges"],
    "properties": {
        "vertices": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "anchors": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "multigraph": {"type": "boolean"},
    },
    "additionalProperties": True,
}

DRAWING_SCHEMA: dict = {
    "type": "object",
    "required": ["graph", "crossings", "chains", "rotation"],
    "properties": {
        "graph": GRAPH_SCHEMA,
        "crossings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "edges"],
                "properties": {
                    "id": {"type": "integer", "minimum": 0},
                    "edges": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "additionalProperties": False,
            },
        },
        "chains": {
            "type": "object",
            "patternProperties": {
                r"^\d+$": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 2,
                }
            },
            "additionalProperties": False,
        },
        "rotation": {
            "type": "object",
            "patternProperties": {
                r"^\d+$": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                }
            },
            "additionalProperties": False,
        },
        "outer_face": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
    "additionalProperties": True,
}


def _fail(pointer: str, message: str) -> None:
    raise InputError(f"{pointer or '/'}: {message}")


def _check_schema(obj: Any, schema: dict) -> None:
    validator = jsonschema.Draft202012Validator(schema)
    err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if err is not None:
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        _fail(pointer, err.message)


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
    _check_schema(obj, GRAPH_SCHEMA)
    return _graph(obj)


def _graph(obj: dict, where: str = "") -> Graph | AnchoredGraph:
    """The graph of a schema-checked document.

    ``Graph`` and ``AnchoredGraph`` do the semantic checks; their messages
    start with a pointer relative to the graph document, which ``where``
    prefixes.
    """
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
    "crossing-degree": "/crossings",
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
    _check_schema(obj, DRAWING_SCHEMA)
    g = _graph(obj["graph"], where="/graph")
    if isinstance(g, AnchoredGraph):
        # a nested anchor list would shadow outer_face; keep one source
        _fail("/graph/anchors", "use outer_face for a drawing's boundary")
    crossings = tuple(
        Crossing(c["id"], (c["edges"][0], c["edges"][1]))
        for c in obj["crossings"]
    )
    chains = {int(e): tuple(ch) for e, ch in obj["chains"].items()}
    rotation = {
        int(v): tuple((e, seg) for (e, seg) in refs)
        for v, refs in obj["rotation"].items()
    }
    anchors = tuple(obj["outer_face"]) if "outer_face" in obj else None
    d = Drawing(g, crossings, chains, rotation, anchors)
    problems = validate(d)
    if problems:
        head = problems[0]
        category = head.split(":", 1)[0]
        _fail(_PROBLEM_POINTERS.get(category, ""), "; ".join(problems[:3]))
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
    try:
        status = Status(obj["status"])
    except (KeyError, ValueError):
        _fail("/status", "unknown search status")
    st = obj.get("stats", {})
    stats = SearchStats(
        nodes=int(st.get("nodes", 0)),
        routes=int(st.get("routes", 0)),
        max_depth=int(st.get("max_depth", 0)),
        seconds=float(st.get("seconds", 0.0)),
    )
    cert = obj.get("certificate")
    return SearchOutcome(
        status=status,
        certificate=None if cert is None else drawing_from_json(cert),
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
