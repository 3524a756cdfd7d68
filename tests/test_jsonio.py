"""Serialization round trips and the pointered rejection paths."""

import collections
import copy
import enum
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import drawings_equal, validate
from minkplanar.errors import InputError
from minkplanar.frames import build_frame, compose
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.jsonio import (
    RunReport,
    _drawing_ok,
    _graph_ok,
    drawing_from_json,
    drawing_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    outcome_from_json,
    outcome_to_json,
)
from minkplanar.search import SearchOutcome, SearchStats, Status


def _wire(doc):
    # force an honest trip through actual JSON text
    return json.loads(json.dumps(doc))


# ------------------------------------------------------------ round trips


def test_graph_round_trip_plain_and_anchored():
    g = Graph((0, 1, 2, 5), ((0, 1), (1, 2), (2, 5), (0, 5)))
    assert graph_from_json(_wire(graph_to_json(g))) == g

    ag = AnchoredGraph(g, (5, 0, 2))
    back = graph_from_json(_wire(graph_to_json(ag)))
    assert isinstance(back, AnchoredGraph)
    assert back == ag
    assert back.anchors == (5, 0, 2)  # order carried, not sorted


def test_drawing_round_trip_all_bundles():
    seen = []
    for bundle in (build_G2(), build_Gk(3), build_Gk(4)):
        doc = _wire(drawing_to_json(bundle.drawing))
        back = drawing_from_json(doc)
        assert validate(back) == []
        assert drawings_equal(back, bundle.drawing)
        assert back.anchors == bundle.drawing.anchors
        seen.append(doc)
    assert all("outer_face" in doc for doc in seen)


def test_frame_and_composed_round_trip():
    src = build_G2()
    fr = build_frame(src.anchored_graph, 2, t=1)
    back = drawing_from_json(_wire(drawing_to_json(fr.drawing)))
    assert drawings_equal(back, fr.drawing)

    comp = compose(fr, src)
    assert not comp.graph.simple
    comp_back = drawing_from_json(_wire(drawing_to_json(comp)))
    assert drawings_equal(comp_back, comp)
    assert not comp_back.graph.simple
    assert comp_back.anchors is None


def test_multigraph_flag_survives_even_without_parallels():
    g = Graph((0, 1, 2), ((0, 1), (1, 2)), simple=False)
    doc = graph_to_json(g)
    assert doc["multigraph"] is True
    assert graph_from_json(_wire(doc)).simple is False


def test_outcome_round_trip_with_and_without_certificate():
    d = build_G2().drawing
    found = SearchOutcome(
        Status.FOUND, d, SearchStats(nodes=11, routes=4, max_depth=3,
                                     seconds=0.25, order=(2, 0, 1))
    )
    f2 = outcome_from_json(_wire(outcome_to_json(found)))
    assert f2.status is Status.FOUND
    assert f2.stats == found.stats
    assert drawings_equal(f2.certificate, d)

    unsat = SearchOutcome(Status.EXHAUSTED_UNSAT, None, SearchStats(nodes=5))
    u2 = outcome_from_json(_wire(outcome_to_json(unsat)))
    assert u2.status is Status.EXHAUSTED_UNSAT
    assert u2.certificate is None


def test_outcome_without_an_order_still_loads():
    doc = {"status": "ExhaustedUnsat", "stats": {"nodes": 5}}
    assert outcome_from_json(doc).stats == SearchStats(nodes=5)


# ---------------------------------------------------------------- writing


def _stdlib(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=60)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_dumps_writes_what_json_dumps_writes(doc):
    # unbounded ints, -0.0, NaN and inf, non-ASCII text, bools beside
    # ints, tuples, empty containers and integer keys all come up
    assert dumps(doc) == _stdlib(doc)


_Pair = collections.namedtuple("_Pair", "u v")
_One = enum.IntEnum("_One", "ONE")


def test_dumps_writes_edge_values_and_keys_as_json_dumps_does():
    docs = [
        [], {}, (), [[], {}, ()], 0, -0.0, "é\u2028\ud800",
        [True, 1, False, 0, None, 1.0, -(2 ** 70), float("nan"),
         float("inf"), -float("inf")],
        {1.5: 0, 2: 1}, {True: []}, {None: {}}, {False: 0},
        {"b": (1, (2,)), "a": [{}]},
        {"x": Status.FOUND.value, "n": [[1, 2], [3, 4], [5, 6]]},
        # subclasses take the kind of their JSON base
        [_Pair(1, 2), _One.ONE, {"k": _Pair(_One.ONE, "x")}],
    ]
    for doc in docs:
        assert dumps(doc) == _stdlib(doc)
    for bad in ({1: 0, "a": 1}, [object()], {(1,): 0}):
        with pytest.raises(TypeError):
            _stdlib(bad)
        with pytest.raises(TypeError):
            dumps(bad)


def test_dumps_writes_a_search_outcome_and_its_order_tuple():
    # asdict leaves SearchStats.order a tuple, beside the certificate's lists
    found = SearchOutcome(
        Status.FOUND, build_G2().drawing,
        SearchStats(nodes=11, routes=4, max_depth=3, seconds=0.25,
                    order=(2, 0, 1)))
    doc = outcome_to_json(found)
    assert doc["stats"]["order"] == (2, 0, 1)
    assert dumps(doc) == _stdlib(doc)
    unsat = outcome_to_json(SearchOutcome(Status.EXHAUSTED_UNSAT, None,
                                          SearchStats(nodes=5)))
    assert dumps(unsat) == _stdlib(unsat)


def test_dumps_writes_a_composed_drawing_as_json_dumps_does():
    src = build_G2()
    doc = drawing_to_json(compose(build_frame(src.anchored_graph, 2, t=1),
                                  src))
    assert dumps(doc) == _stdlib(doc)
    assert _drawing_ok(_wire(doc))


# ------------------------------------------------------------- rejections


def test_anchor_not_in_vertices_rejected():
    doc = {"vertices": [0, 1, 2], "edges": [[0, 1]], "anchors": [0, 7]}
    with pytest.raises(InputError) as err:
        graph_from_json(doc)
    assert str(err.value).startswith("/anchors/1")


def test_bad_endpoint_and_loop_and_parallel():
    with pytest.raises(InputError, match=r"^/edges/1"):
        graph_from_json({"vertices": [0, 1], "edges": [[0, 1], [0, 9]]})
    with pytest.raises(InputError, match=r"^/edges/0"):
        graph_from_json({"vertices": [0], "edges": [[0, 0]]})
    with pytest.raises(InputError, match=r"^/edges/2.*parallel"):
        graph_from_json(
            {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [1, 0]]}
        )
    # the multigraph marker lifts the last restriction
    g = graph_from_json(
        {
            "vertices": [0, 1, 2],
            "edges": [[0, 1], [1, 2], [1, 0]],
            "multigraph": True,
        }
    )
    assert g.m == 3


def test_degree_three_crossing_rejected_with_pointer():
    doc = drawing_to_json(build_G2().drawing)
    xid = doc["crossings"][0]["id"]
    # thread a third chain through an existing crossing node
    victim = next(
        e for e, ch in doc["chains"].items() if xid not in ch
    )
    ch = doc["chains"][victim]
    doc["chains"][victim] = [ch[0], xid] + ch[1:]
    with pytest.raises(InputError) as err:
        drawing_from_json(_wire(doc))
    msg = str(err.value)
    assert msg.startswith("/crossings") or msg.startswith("/chains")


def test_schema_violation_carries_a_pointer():
    with pytest.raises(InputError, match=r"^/edges/0"):
        graph_from_json({"vertices": [0, 1], "edges": [[0, 1, 2]]})
    with pytest.raises(InputError, match=r"^/"):
        drawing_from_json({"graph": {"vertices": [], "edges": []}})


def test_outcome_bad_status():
    with pytest.raises(InputError, match=r"^/status"):
        outcome_from_json({"status": "Maybe", "stats": {}})


@pytest.mark.parametrize("doc, pointer", [
    ("x", "/"),
    ({"status": "Found", "stats": {"nodes": "abc"}}, "/stats/nodes"),
    ({"status": "Found", "stats": []}, "/stats"),
    ({"status": "Found", "stats": {"order": "0 1"}}, "/stats/order"),
    ({"status": "Found", "stats": {"order": [0, -1]}}, "/stats/order/1"),
    ({"status": "Found", "stats": {"order": [0, True]}}, "/stats/order/1"),
])
def test_outcome_shape_faults_carry_pointers(doc, pointer):
    with pytest.raises(InputError) as err:
        outcome_from_json(doc)
    assert str(err.value).startswith(f"{pointer}: ")


def test_certificate_faults_point_into_the_certificate():
    cert = {"graph": {}, "crossings": [], "chains": {}, "rotation": {}}
    with pytest.raises(InputError, match=r"^/certificate/graph: "):
        outcome_from_json({"status": "Found", "certificate": cert})
    cert = {**_wire(drawing_to_json(build_G2().drawing)), "chains": {}}
    with pytest.raises(InputError, match=r"^/certificate/chains: "):
        outcome_from_json({"status": "Found", "certificate": cert})


def test_shape_walk_rejects_what_looks_like_an_id():
    g = {"vertices": [0, 1], "edges": [[0, 1]]}
    # JSON has no integer type of its own: 1.0 and true are not ids
    for bad in (1.0, True):
        with pytest.raises(InputError, match=r"^/edges/0/1: "):
            graph_from_json({**g, "edges": [[0, bad]]})
    with pytest.raises(InputError, match=r"^/multigraph: "):
        graph_from_json({**g, "multigraph": 1})
    doc = _wire(drawing_to_json(build_G2().drawing))
    # "01" and "1" would name one edge
    doc["chains"]["01"] = doc["chains"].pop("1")
    with pytest.raises(InputError, match=r"^/chains/01: "):
        drawing_from_json(doc)


def test_pointers_escape_slash_and_tilde():
    doc = _wire(drawing_to_json(build_G2().drawing))
    doc["chains"]["1/2"] = doc["chains"].pop("1")
    with pytest.raises(InputError, match=r"^/chains/1~12: key is not"):
        drawing_from_json(doc)
    doc = _wire(drawing_to_json(build_G2().drawing))
    doc["crossings"][0]["a~b/c"] = 0
    with pytest.raises(InputError, match=r"^/crossings/0/a~0b~1c: unexpected"):
        drawing_from_json(doc)


# ------------------------------------------------------- mutation fuzzing

_REQUIRED = {"vertices", "edges", "graph", "crossings", "chains", "rotation",
             "id"}
_NOT_JSON_IDS = ("x", True, False, 1.0, 2.5, -1, None, [[0]])


def _bases():
    b = build_G2()
    return {"graph": _wire(graph_to_json(b.anchored_graph)),
            "drawing": _wire(drawing_to_json(b.drawing))}


_BASES = _bases()


def _slots(doc):
    """Every (container, key) pair in ``doc``, depth first."""
    todo, out = [doc], []
    while todo:
        node = todo.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return out


@st.composite
def mutated_documents(draw):
    """The G2 graph or drawing document with one fault: a required key
    dropped, a value replaced by a non-id, an extra key on a crossing, or
    a chain or rotation key that is not a decimal id."""
    name = draw(st.sampled_from(sorted(_BASES)))
    doc = copy.deepcopy(_BASES[name])
    kinds = ["drop", "swap"] + (["extra", "key"] if name == "drawing" else [])
    kind = draw(st.sampled_from(kinds))
    slots = _slots(doc)
    if kind == "drop":
        node, key = draw(st.sampled_from(
            [(n, k) for n, k in slots if isinstance(n, dict) and k in _REQUIRED]))
        del node[key]
    elif kind == "swap":
        value = draw(st.sampled_from(_NOT_JSON_IDS))
        if draw(st.integers(0, len(slots))) == 0:
            return name, value  # the whole document
        node, key = draw(st.sampled_from(slots))
        node[key] = value
    elif kind == "extra":
        x = draw(st.sampled_from(doc["crossings"]))
        x[draw(st.sampled_from(("label", "ID", "")))] = 0
    else:
        node = doc[draw(st.sampled_from(("chains", "rotation")))]
        key = draw(st.sampled_from(sorted(node)))
        node[draw(st.sampled_from(("²", "-1", "01", " 1", "1.0")))] = node.pop(key)
    return name, doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_documents_raise_pointered_input_errors(case):
    name, doc = case
    read = graph_from_json if name == "graph" else drawing_from_json
    # the one-pass check must turn every such document over to the walk
    assert not (_graph_ok if name == "graph" else _drawing_ok)(doc)
    with pytest.raises(InputError) as err:
        read(doc)
    assert str(err.value).startswith("/")


def test_cli_rejects_a_mutated_drawing_without_a_traceback(tmp_path):
    doc = copy.deepcopy(_BASES["drawing"])
    doc["rotation"]["²"] = doc["rotation"].pop("2")
    path = tmp_path / "mutated.drawing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-m", "minkplanar.cli", "validate", "--drawing",
         str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert "error: /rotation/²: " in run.stderr


# ---------------------------------------------------------------- reports


def test_run_report_shape():
    rep = RunReport(
        command="validate",
        inputs={"drawing": "abc123"},
        parameters={"min_k": 2},
        outcome="ok",
        stats={"crossings": 9},
        version="0.1.0",
    )
    doc = _wire(rep.to_json())
    assert set(doc) == {
        "command",
        "inputs",
        "parameters",
        "outcome",
        "stats",
        "version",
    }
    assert doc["parameters"]["min_k"] == 2
