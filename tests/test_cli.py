"""End-to-end runs of the command line surface.

Each test drives ``main`` with real files in a tmp directory and checks
the exit code contract: 0 ok/Found, 1 property-failed/Unsat, 2 budget,
3 bad input.
"""

import gc
import json
import pathlib
import random
import shlex

import numpy as np
import pytest

from minkplanar import cli
from minkplanar.cli import main
from minkplanar.constructions import build_G2, build_Gk, gk_claims
from minkplanar.errors import InputError, MinkplanarError
from minkplanar.frames import build_frame, frame_claims
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.jsonio import (
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
)
from minkplanar.sampling import random_min1_drawing
from minkplanar.search import insertion_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report_of(err: str) -> dict:
    # the run report is the last stderr line
    line = err.strip().splitlines()[-1]
    return json.loads(line)


@pytest.fixture()
def fig1(tmp_path, capsys):
    prefix = tmp_path / "fig1"
    code, _, _ = run(capsys, "gen", "g2", "--out", str(prefix))
    assert code == 0
    return prefix


# ------------------------------------------------------------------ gen


def test_gen_writes_three_files_and_reports(tmp_path, capsys):
    prefix = tmp_path / "g"
    code, out, err = run(capsys, "gen", "g2", "--out", str(prefix))
    assert code == 0
    for suffix in (".graph.json", ".drawing.json", ".provenance.json"):
        assert (tmp_path / ("g" + suffix)).exists()
    rep = _report_of(err)
    assert rep["command"] == "gen"
    assert rep["stats"]["vertices"] == 20
    assert rep["stats"]["edges"] == 11
    assert rep["stats"]["anchors"] == 19
    assert rep["version"]


def test_gen_stdout_is_drawing_json(capsys):
    code, out, err = run(capsys, "gen", "gk", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert "chains" in doc and "outer_face" in doc


def test_gen_gk_without_k_is_input_error(capsys):
    # G2 is the k = 2 member and has its own generator; --help says k >= 3
    for argv, message in (((), "required: --k"), (("--k", "2"), "at least 3")):
        code, out, err = run(capsys, "gen", "gk", *argv)
        assert code == 3
        assert out == ""
        assert message in err


# ------------------------------------------------------- validate, profile


def test_validate_exit_codes_match_the_figure(fig1, capsys):
    drawing = str(fig1) + ".drawing.json"
    code, out, _ = run(capsys, "validate", "--drawing", drawing,
                       "--min-k", "2")
    assert code == 0
    assert json.loads(out)["min_k"]["holds"] is True

    code, out, _ = run(capsys, "validate", "--drawing", drawing, "--simple")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["simple"]["holds"] is False
    assert verdict["simple"]["witness"]["reason"]


@pytest.mark.parametrize("cmd, flag", [
    ("validate", "--min-k"), ("validate", "--k"), ("profile", "--k"),
    ("render", "--k"), ("search", "--k"),
])
def test_a_negative_k_exits_three(fig1, tmp_path, capsys, cmd, flag):
    if cmd == "search":
        argv = ["--graph", str(fig1) + ".graph.json"]
    else:
        argv = ["--drawing", str(fig1) + ".drawing.json"]
    if cmd == "render":
        argv += ["--svg", str(tmp_path / "out.svg")]
    code, out, err = run(capsys, cmd, *argv, flag, "-1")
    assert code == 3
    assert out == ""
    assert "k must be non-negative" in err
    assert _report_of(err)["outcome"].startswith("input-error")


@pytest.mark.parametrize("category", ["alternation", "euler"])
def test_validate_points_rotation_faults_at_rotation(fig1, tmp_path, capsys,
                                                     category):
    doc = json.loads(pathlib.Path(str(fig1) + ".drawing.json").read_text())
    r = doc["rotation"]["20"]
    # swapping two ends at crossing 20 breaks alternation; reversing all
    # four keeps it but mirrors the crossing, which breaks Euler's formula
    doc["rotation"]["20"] = (
        [r[1], r[0], r[2], r[3]] if category == "alternation" else r[::-1])
    bad = tmp_path / "bad.drawing.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--drawing", str(bad))
    assert code == 3
    assert f"/rotation: {category}:" in err


def test_profile_lists_heavy_edges(fig1, capsys):
    drawing = str(fig1) + ".drawing.json"
    code, out, _ = run(capsys, "profile", "--drawing", drawing, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == sum(c for *_, c in doc["per_pair"])
    assert doc["heavy"]  # the two side chords carry 3 crossings each


# ------------------------------------------------------------------ search


def test_search_unsat_and_budget_codes(fig1, tmp_path, capsys):
    graph = str(fig1) + ".graph.json"
    outp = tmp_path / "s.json"
    code, _, err = run(capsys, "search", "--graph", graph, "--k", "2",
                       "--simple", "--out", str(outp))
    assert code == 1
    doc = json.loads(outp.read_text())
    assert doc["status"] == "ExhaustedUnsat"
    assert doc["certificate"] is None
    assert _report_of(err)["outcome"] == "ExhaustedUnsat"

    code, _, _ = run(capsys, "search", "--graph", graph, "--k", "2",
                     "--budget-nodes", "5")
    assert code == 2


def test_search_report_records_the_insertion_order(fig1, capsys):
    graph = str(fig1) + ".graph.json"
    code, _, err = run(capsys, "search", "--graph", graph, "--k", "2",
                       "--simple")
    assert code == 1
    order = _report_of(err)["stats"]["search"]["order"]
    assert order == list(insertion_order(build_G2().anchored_graph))


def test_search_report_carries_the_pair_cap(fig1, capsys):
    # a simple query lets a pair cross once, any other twice
    graph = str(fig1) + ".graph.json"
    for flags, cap in (((), 2), (("--simple",), 1)):
        _, _, err = run(capsys, "search", "--graph", graph, "--k", "2",
                        *flags)
        assert _report_of(err)["stats"]["search"]["pair_cap"] == cap


def _no_constant(token):
    raise AssertionError(f"{token} is not JSON")


@pytest.mark.parametrize("argv", [
    ("--budget-nodes", "-5"), ("--budget-secs", "-1"),
    ("--budget-secs", "nan"), ("--budget-secs", "inf"),
], ids=["nodes-negative", "secs-negative", "secs-nan", "secs-inf"])
@pytest.mark.parametrize("cmd", ["search", "repro"])
def test_bad_budgets_exit_three_with_a_json_report(fig1, capsys, cmd, argv):
    if cmd == "search":
        base = ("search", "--graph", str(fig1) + ".graph.json", "--k", "2")
    else:
        base = ("repro", "lemma3-gk", "--k", "3")
    code, out, err = run(capsys, *base, *argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert "budget must be" in err
    line = err.strip().splitlines()[-1]
    rep = json.loads(line, parse_constant=_no_constant)
    assert rep["outcome"].startswith("input-error")


def test_search_found_emits_verified_certificate(tmp_path, capsys):
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({
        "vertices": [0, 1, 2, 3],
        "edges": [[0, 2], [1, 3]],
        "anchors": [0, 1, 2, 3],
    }))
    code, out, _ = run(capsys, "search", "--graph", str(graph), "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Found"
    assert doc["certificate"] is not None


# ------------------------------------------------- frame, compose, render


def test_frame_pack_carries_parameters(fig1, tmp_path, capsys):
    graph = str(fig1) + ".graph.json"
    prefix = tmp_path / "fr"
    code, _, err = run(capsys, "frame", "--graph", graph, "--k", "2",
                       "--t", "1", "--out", str(prefix))
    assert code == 0
    prov = json.loads((tmp_path / "fr.provenance.json").read_text())
    assert prov == {"a": 19, "k": 2, "ell": 1, "d": 171, "t": 1}
    rep = _report_of(err)
    assert rep["stats"]["crossings"] == 3 * 171


def test_compose_pack_and_render(tmp_path, capsys):
    prefix = tmp_path / "comp"
    code, _, _ = run(capsys, "compose", "--k", "2", "--t", "1",
                     "--out", str(prefix))
    assert code == 0
    drawing = str(prefix) + ".drawing.json"
    svg = tmp_path / "comp.svg"
    code, _, err = run(capsys, "render", "--drawing", drawing,
                       "--svg", str(svg), "--k", "2")
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "polyline" in text
    assert _report_of(err)["stats"]["residual"] < 1e-9


def test_render_audit_flag(fig1, tmp_path, capsys):
    drawing = str(fig1) + ".drawing.json"
    svg = tmp_path / "fig1.svg"
    code, _, _ = run(capsys, "render", "--drawing", drawing,
                     "--svg", str(svg), "--audit")
    assert code == 0
    assert svg.exists()


@pytest.mark.parametrize("new_id, want", [(2**53 - 1, 0), (2**63, 3)])
def test_render_audit_takes_ids_up_to_two_to_the_53(fig1, tmp_path, capsys,
                                                    new_id, want):
    # an id past int64 would overflow the audit's numpy arrays
    doc = json.loads(pathlib.Path(str(fig1) + ".drawing.json").read_text())
    old_id = doc["crossings"][-1]["id"]
    doc["crossings"][-1]["id"] = new_id
    doc["rotation"][str(new_id)] = doc["rotation"].pop(str(old_id))
    for chain in doc["chains"].values():
        chain[:] = [new_id if x == old_id else x for x in chain]
    path = tmp_path / "big.drawing.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "render", "--drawing", str(path),
                       "--svg", str(tmp_path / "big.svg"), "--audit")
    assert code == want
    if want:
        assert _report_of(err)["outcome"].startswith("input-error: /crossings/")


@pytest.mark.parametrize("argv", [
    ["gen", "g2", "--out", "{absent}/x"],
    ["render", "--drawing", "{drawing}", "--svg", "{absent}/x.svg"],
    ["gen", "g2", "--out", "{tmp}/ok", "--report", "{absent}/run.json"],
], ids=["out", "svg", "report"])
def test_an_unwritable_output_path_exits_three_with_a_report(fig1, tmp_path,
                                                             capsys, argv):
    absent = tmp_path / "absent"
    argv = [a.format(absent=absent, tmp=tmp_path,
                     drawing=f"{fig1}.drawing.json") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "Traceback" not in err
    assert f"error: cannot write {absent}/" in err
    rep = _report_of(err)
    assert rep["command"] == argv[0]
    if "--report" not in argv:
        assert rep["outcome"].startswith(
            f"input-error: cannot write {absent}/")
    assert not absent.exists()


# ----------------------------------------------------------- written JSON


def _is_json_dumps_text(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_every_written_json_file_is_json_dumps_text(tmp_path, capsys):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    min1 = inputs / "min1.drawing.json"
    min1.write_text(json.dumps(drawing_to_json(
        random_min1_drawing(random.Random(3)))))
    crossing_pair = inputs / "pair.graph.json"
    crossing_pair.write_text(json.dumps(
        {"vertices": [0, 1, 2, 3], "edges": [[0, 2], [1, 3]],
         "anchors": [0, 1, 2, 3]}))
    g2 = out / "g2"
    runs = [
        ("gen", "g2", "--out", str(g2)),
        ("gen", "gk", "--k", "4", "--out", str(out / "gk4")),
        ("frame", "--graph", f"{g2}.graph.json", "--k", "2", "--t", "2",
         "--out", str(out / "frame")),
        ("compose", "--t", "1", "--out", str(out / "composed")),
        ("simplify", "--drawing", str(min1), "--out", str(out / "simple.json")),
        ("search", "--graph", str(crossing_pair), "--k", "1",
         "--out", str(out / "search.json")),
        # G2 is min-2 but not simple, so this verdict exits 1
        ("validate", "--drawing", f"{g2}.drawing.json", "--min-k", "2",
         "--simple", "--out", str(out / "verdict.json")),
        ("profile", "--drawing", f"{g2}.drawing.json", "--k", "2",
         "--out", str(out / "profile.json")),
        ("repro", "lemma5-frame", "--t", "1", "--out", str(out / "repro.json")),
    ]
    for argv in runs:
        code, _, err = run(capsys, *argv)
        assert code == (1 if argv[0] == "validate" else 0), err
    written = sorted(out.iterdir())
    assert len(written) == 4 * 3 + 5
    for path in written:
        assert _is_json_dumps_text(path.read_text()), path.name
    assert json.loads((out / "search.json").read_text())["certificate"]
    drawing_from_json(json.loads((out / "simple.json").read_text()))

    code, text, _ = run(capsys, "gen", "g2")
    assert code == 0
    assert _is_json_dumps_text(text)
    assert text == (out / "g2.drawing.json").read_text()


# ------------------------------------------------------------------ repro


def test_repro_lemma3_g2_confirms(capsys):
    code, out, _ = run(capsys, "repro", "lemma3-g2")
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True
    assert doc["search"] == "ExhaustedUnsat"
    names = [c["check"] for c in doc["checks"]]
    assert "offender-is-a1a2-b1a2" in names


def test_repro_report_times_the_whole_command(capsys):
    # the search's own stats sit under their own key, so the command's
    # seconds cover the drawing checks and the JSON as well
    code, _, err = run(capsys, "repro", "lemma3-g2")
    assert code == 0
    stats = _report_of(err)["stats"]
    assert stats["search"]["nodes"] > 0
    assert stats["seconds"] >= stats["search"]["seconds"]


def test_repro_lemma3_gk_confirms(capsys):
    for k in (3, 4):
        code, out, err = run(capsys, "repro", "lemma3-gk", "--k", str(k))
        assert code == 0
        doc = json.loads(out)
        assert doc["confirmed"] is True
        checks = doc["checks"]
        assert {"check": "no-adjacent-pair-crosses", "ok": True} in checks
        assert {"check": f"no-simple-anchored-min-{k}", "ok": True} in checks
        assert doc["search"] == "ExhaustedUnsat"
        assert _report_of(err)["stats"]["search"]["nodes"] > 0


def test_repro_lemma3_gk_budget_stop_exits_two(capsys):
    code, out, err = run(capsys, "repro", "lemma3-gk", "--k", "3",
                         "--budget-nodes", "10")
    assert code == 2
    doc = json.loads(out)
    assert doc["search"] == "BudgetExceeded"
    names = [c["check"] for c in doc["checks"]]
    assert "no-simple-anchored-min-3" not in names
    assert _report_of(err)["outcome"] == "BudgetExceeded"


def test_repro_lemma5_frame_confirms(capsys):
    code, out, _ = run(capsys, "repro", "lemma5-frame", "--t", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True
    assert doc["params"]["d"] == 171


def test_repro_checks_list_every_claim_of_the_construction(tmp_path, capsys):
    # the pipeline reports the construction's own claims first, then the
    # checks the construction does not make
    code, out, _ = run(capsys, "repro", "lemma3-gk", "--k", "3")
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    claims = [name for name, _ in gk_claims(build_Gk(3), 3)]
    assert names == claims + ["no-simple-anchored-min-3"]

    source = AnchoredGraph(
        Graph(tuple(range(4)), ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3))),
        (0, 2, 3))
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(graph_to_json(source)))
    code, out, _ = run(capsys, "repro", "lemma5-frame", "--graph", str(path),
                       "--k", "1", "--t", "1")
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    claims = [name for name, _ in frame_claims(build_frame(source, 1, 1))]
    assert names == claims + ["web-separates-wheel"]


def test_repro_thm1_compose_confirms(capsys):
    code, out, _ = run(capsys, "repro", "thm1-compose", "--k", "2", "--t", "1")
    assert code == 0
    assert json.loads(out)["confirmed"] is True


def test_repro_prop2_simplify_confirms(capsys):
    code, out, _ = run(capsys, "repro", "prop2-simplify",
                       "--count", "25", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True
    assert doc["drawings"] == 25


@pytest.mark.parametrize("count", ["0", "-3"])
def test_repro_prop2_simplify_needs_a_drawing(capsys, count):
    # confirming Proposition 2 on no drawing at all would be vacuous
    code, out, err = run(capsys, "repro", "prop2-simplify", "--count", count)
    assert code == 3
    assert out == ""
    assert "--count >= 1" in err


def test_repro_lemma3_gk_records_the_k_it_checks(capsys):
    code, out, err = run(capsys, "repro", "lemma3-gk", "--budget-nodes", "1")
    assert code == 2
    assert json.loads(out)["k"] == 4
    assert _report_of(err)["parameters"] == {
        "pipeline": "lemma3-gk", "k": 4,
        "budget_nodes": 1, "budget_secs": None}


def test_repro_open_question_reports_an_answer(capsys):
    code, out, _ = run(capsys, "repro", "open-question")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "yes"
    assert doc["certificate_crossings"] == 9


def test_repro_budget_exhaustion_exits_two(capsys):
    code, out, _ = run(capsys, "repro", "open-question",
                       "--budget-nodes", "3")
    assert code == 2
    assert json.loads(out)["answer"] == "undecided within budget"


# ---------------------------------------------- each command's own options

# every option some pipeline reads, with a value for it
_REPRO_OPTIONS = {"--k": "3", "--t": "1", "--graph": "g.json", "--seed": "1",
                  "--count": "5", "--budget-nodes": "5", "--budget-secs": "1"}

# what each pipeline reads, with an invocation that shows the value used,
# kept fast by the options after it; each key of the report's parameters
# is the option's dest
_READ = {
    "lemma3-g2": {"--budget-nodes": ["5"], "--budget-secs": ["0"]},
    "lemma3-gk": {"--k": ["3", "--budget-nodes", "1"],
                  "--budget-nodes": ["1"],
                  "--budget-secs": ["0", "--budget-nodes", "100"]},
    "lemma5-frame": {"--k": ["1", "--graph", "TOY", "--t", "1"],
                     "--t": ["1"], "--graph": ["TOY", "--k", "1", "--t", "1"]},
    "thm1-compose": {"--k": ["3", "--t", "1"], "--t": ["1"]},
    "prop2-simplify": {"--seed": ["3", "--count", "2"], "--count": ["2"]},
    "open-question": {"--budget-nodes": ["3"], "--budget-secs": ["0"]},
}


def _foreign():
    for pipeline, read in _READ.items():
        for opt, value in _REPRO_OPTIONS.items():
            if opt not in read:
                yield ["repro", pipeline, opt, value]
    yield ["gen", "g2", "--k", "7"]
    yield ["render", "--drawing", "d.json", "--svg", "d.svg", "--out", "x"]


@pytest.mark.parametrize("argv", list(_foreign()), ids=" ".join)
def test_an_option_a_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                            argv):
    report = tmp_path / "run.json"
    code, out, err = run(capsys, *argv, "--report", str(report))
    assert code == 3
    assert out == ""
    assert "usage:" in err
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    rep = _report_of(err)
    assert rep["command"] == argv[0]
    assert rep["outcome"] == (
        f"usage-error: unrecognized arguments: {argv[-2]} {argv[-1]}")
    # the report goes to stderr: --report was never read
    assert not report.exists()


def test_thirty_foreign_options_are_refused():
    assert len(list(_foreign())) == 30
    assert sum(map(len, _READ.values())) == 14


@pytest.mark.parametrize("pipeline, opt", [
    (pipeline, opt) for pipeline, read in _READ.items() for opt in read])
def test_a_pipeline_records_each_option_it_reads(tmp_path, capsys,
                                                 pipeline, opt):
    toy = tmp_path / "toy.json"
    toy.write_text(json.dumps(graph_to_json(AnchoredGraph(
        Graph(tuple(range(4)), ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3))),
        (0, 2, 3)))))
    argv = [str(toy) if a == "TOY" else a for a in _READ[pipeline][opt]]
    code, out, err = run(capsys, "repro", pipeline, opt, *argv)
    assert code in (0, 2), err
    params = _report_of(err)["parameters"]
    assert params["pipeline"] == pipeline == json.loads(out)["pipeline"]
    dest = opt[2:].replace("-", "_")
    value = argv[0]
    assert str(params[dest]) in (value, f"{value}.0")
    # the report names the options the pipeline reads, and no other
    assert set(params) == {"pipeline"} | {o[2:].replace("-", "_")
                                          for o in _READ[pipeline]}


def _readme_command_lines():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("minkplanar ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    pipelines = {words[2] for words in lines if words[1] == "repro"}
    assert pipelines == set(_READ)
    for words in lines:
        cli._parser().parse_args(words[1:])


# ------------------------------------------------------------ error paths


def test_unknown_subcommand_prints_usage_and_exits_three(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 3
    assert "usage:" in err


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["search", "--k", "2"], "the following arguments are required: --graph"),
    (["repro", "lemma3-g2", "--count", "5"],
     "unrecognized arguments: --count 5"),
    (["repro", "lemma3-gk", "--k", "x"],
     "argument --k: invalid int value: 'x'"),
], ids=["unknown-command", "missing-option", "foreign-option", "bad-value"])
def test_a_usage_error_ends_stderr_with_a_run_report(tmp_path, capsys, argv,
                                                     message):
    report = tmp_path / "run.json"
    code, out, err = run(capsys, *argv, "--report", str(report))
    assert code == 3
    assert out == ""
    assert f"error: {message}" in err
    rep = _report_of(err)
    assert rep["command"] == argv[0]
    assert rep["outcome"].startswith(f"usage-error: {message}")
    assert not report.exists()


def test_one_anchor_graph_is_input_error(tmp_path, capsys):
    doc = {"vertices": [0, 1], "edges": [[0, 1]], "anchors": [0]}
    with pytest.raises(InputError, match=r"^/anchors: "):
        graph_from_json(doc)
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "search", "--graph", str(path), "--k", "1")
    assert code == 3
    assert _report_of(err)["outcome"].startswith("input-error: /anchors: ")


def test_missing_file_and_malformed_graph(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--drawing",
                       str(tmp_path / "absent.json"))
    assert code == 3
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [0], "edges": [[0, 1]]}))
    code, _, err = run(capsys, "search", "--graph", str(bad), "--k", "1")
    assert code == 3
    assert "/edges/0" in err


@pytest.mark.parametrize("data", [
    b"\xff\xfe\xff",  # no text in any JSON encoding
    b"[" + b"1" * 5000 + b"]",  # past Python's integer digit limit
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
], ids=["undecodable", "long-integer", "deep"])
def test_unreadable_json_is_input_error(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, _, err = run(capsys, "validate", "--drawing", str(bad))
    assert code == 3
    assert "is not JSON" in err


def test_report_goes_to_file_when_asked(fig1, tmp_path, capsys):
    drawing = str(fig1) + ".drawing.json"
    rpath = tmp_path / "run.json"
    code, _, err = run(capsys, "profile", "--drawing", drawing,
                       "--report", str(rpath))
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["command"] == "profile"
    assert drawing in rep["inputs"]
    assert len(rep["inputs"][drawing]) == 64  # sha256 hex
    assert "seconds" in rep["stats"]
    # nothing report-shaped leaked onto stderr
    assert "\"command\"" not in err


# ------------------------------------------------------ the paused collector


@pytest.fixture()
def gc_restored():
    """Hand the collector back as it was, whatever the test left."""
    was, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.garbage.clear()
    gc.set_debug(flags)
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("raises, want", [
    (None, 0), (MinkplanarError, 1), (InputError, 3),
], ids=["ok", "failed", "input-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_collector_is_paused_while_a_command_runs(monkeypatch, capsys,
                                                  gc_restored, enabled,
                                                  raises, want):
    seen = []

    def fake(args, rep):
        seen.append(gc.isenabled())
        if raises:
            raise raises("boom")
        return 0

    monkeypatch.setattr(cli, "cmd_profile", fake)
    (gc.enable if enabled else gc.disable)()
    code, _, _ = run(capsys, "profile", "--drawing", "unread.json")
    assert gc.isenabled() is enabled
    assert code == want
    assert seen == [False]


def test_collector_comes_back_when_a_command_crashes(monkeypatch,
                                                    gc_restored):
    def crash(args, rep):
        raise RuntimeError("not a package error")

    monkeypatch.setattr(cli, "cmd_profile", crash)
    gc.enable()
    with pytest.raises(RuntimeError):
        main(["profile", "--drawing", "unread.json"])
    assert gc.isenabled()


_CYCLE_FREE = {f"minkplanar.{m}"
               for m in ("drawings", "layout", "geometry", "frames", "graphs")}


def test_paused_commands_leave_no_cycles_through_drawings(tmp_path, capsys,
                                                          gc_restored):
    """Run paused, nothing a command builds may wait for the collector."""
    p = str(tmp_path / "g")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    for argv in (
        ["gen", "g2", "--out", p],
        ["frame", "--graph", p + ".graph.json", "--k", "2", "--t", "1",
         "--out", p + "-fr"],
        ["compose", "--k", "2", "--t", "1", "--out", p + "-comp"],
        ["validate", "--drawing", p + "-comp.drawing.json", "--min-k", "2"],
        ["render", "--drawing", p + "-comp.drawing.json",
         "--svg", p + ".svg", "--k", "2", "--audit"],
    ):
        assert run(capsys, *argv)[0] == 0
    gc.collect()
    left = list(gc.garbage)
    # the parser's own cycles are expected; arrays are not tracked, so look
    # for them among what the unreachable objects hold
    assert not [o for o in left if type(o).__module__ in _CYCLE_FREE]
    assert not [r for o in left for r in gc.get_referents(o)
                if isinstance(r, np.ndarray)]
