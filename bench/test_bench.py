"""Self-tests of the benchmark: every output check can fail, and a
smoke-sized pass of each workload runs clean.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._load_package()

import layers  # noqa: E402
import probe  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import minkplanar as mp  # noqa: E402

# ------------------------------------------------------ checks can fail


def test_flipped_verdict_fails_the_check():
    assert ref.check_verdict(ref.UNSAT, ref.UNSAT, None) is None
    assert ref.check_verdict(ref.FOUND, ref.FOUND, True) is None
    assert ref.check_verdict(ref.UNSAT, ref.FOUND, True)
    assert ref.check_verdict(ref.FOUND, ref.UNSAT, None)
    assert ref.check_verdict(ref.FOUND, "BudgetExceeded", None)
    assert ref.check_verdict(ref.FOUND, ref.FOUND, False)


def test_changed_digest_fails_the_check():
    assert ref.check_digest(b"{}\n", 1)
    assert ref.check_digest(b"{}\n", 3)


def _square_scene(routes):
    pos = {0: (0.0, 3.0), 1: (3.0, 0.0), 2: (0.0, -3.0), 3: (-3.0, 0.0)}
    edges = tuple((r[0], r[-1]) for r in routes)
    g = mp.Graph((0, 1, 2, 3), edges)
    return mp.Scene(g, pos, {e: tuple(pos[v] if isinstance(v, int) else v
                                      for v in r)
                             for e, r in enumerate(routes)},
                    anchors=(0, 1, 2, 3), radius=3.0)


def test_dropped_crossing_fails_the_check():
    scene = _square_scene([(0, 2), (1, 3)])  # the two diagonals cross once
    r = ref.scene_reference(scene.routes, scene.positions)
    assert r == ref.SceneRef("clean", 1)
    d, _ = mp.scene_to_drawing(scene)
    assert ref.check_scene(r, True, len(d.crossings)) is None
    assert ref.check_scene(r, True, len(d.crossings) - 1)
    assert ref.check_scene(r, False, 0)


def test_accepted_self_crossing_fails_the_check():
    # a zigzag from anchor 0 to anchor 2 that crosses its own first piece
    scene = _square_scene([(0, (1.0, -1.0), (1.0, 1.0), (-1.0, -1.0), 2)])
    r = ref.scene_reference(scene.routes, scene.positions)
    assert r.verdict == "self-crossing"
    with pytest.raises(mp.GeometryError):
        mp.scene_to_drawing(scene)
    assert ref.check_scene(r, False, 0) is None
    assert ref.check_scene(r, True, 0)


def test_near_degenerate_scene_is_left_unchecked():
    scene = _square_scene([(0, 2), (1, (1e-8, 0.0), 3)])
    assert ref.scene_reference(scene.routes, scene.positions).verdict == "ambiguous"


# --------------------------------------------------- smoke-sized passes


def test_frame_smoke_pass_and_corrupted_output(tmp_path):
    work = str(tmp_path / "work")
    wl = workloads.Frame(0, work, steps=workloads.FRAME_STEPS[:4])
    ops = wl.run_pass(None)
    wl.check(ops)
    assert [op.problem for op in ops] == [None] * 4
    path = os.path.join(work, "t1.drawing.json")
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    doc["crossings"] = doc["crossings"][1:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    wl.check(ops)
    assert "sha256" in ops[2].problem
    assert workloads.check_frame_step("render-t3", 0, work)  # no SVG written
    assert workloads.check_frame_step("gen", 1, work) == "exit code 1"


def test_search_smoke_pass_and_flipped_verdict(tmp_path):
    cheap = [q for q in ref.FIXED_QUERIES
             if q.family <= 4 and q.name not in ref.KNOWN_DEFECTS]
    wl = workloads.Search(3, str(tmp_path), n_random=40, queries=cheap)
    ops = wl.run_pass(None)
    wl.check(ops)
    assert len(ops) == len(cheap) + 40
    assert [op.name for op in ops if op.problem] == []
    status, certified = ops[0].result
    flipped = ref.FOUND if status == ref.UNSAT else ref.UNSAT
    ops[0].result = (flipped, True)
    wl.check(ops)
    assert ops[0].problem


def test_known_defects_are_failed_operations(tmp_path):
    q = [x for x in ref.FIXED_QUERIES if x.name == "gk3-k3-bundle"]
    wl = workloads.Search(0, str(tmp_path), n_random=0, queries=q)
    ops = wl.run_pass(None)
    wl.check(ops)
    # ROADMAP item 1: when this starts to pass, drop it from KNOWN_DEFECTS
    assert ops[0].problem.startswith(
        "answered ExhaustedUnsat, known answer Found (bundled witness")


def test_scenes_smoke_pass_and_dropped_crossing(tmp_path):
    wl = workloads.Scenes(5, str(tmp_path), n_scenes=60)
    ops = wl.run_pass(None)
    wl.check(ops)
    assert [op.problem for op in ops] == [None] * 60
    crossed = next(op for op in ops if op.result[0] and op.result[1] > 0)
    accepted, crossings, simplified = crossed.result
    crossed.result = (accepted, crossings - 1, simplified)
    wl.check(ops)
    assert crossed.problem.startswith("converter found")


# ------------------------------------------------------------- tracing


def test_self_time_subtracts_direct_children():
    sp = [["a", "timed", 0.0, 10.0, -1], ["b", "timed", 1.0, 4.0, 0],
          ["c", "timed", 2.0, 3.0, 1], ["b", "timed", 5.0, 6.0, 0]]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]
    self_s, total_s, calls = spans.aggregate(sp, "timed")
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls["b"] == 2 and total_s["b"] == 4.0


def test_traced_pass_accounts_for_the_wall(tmp_path):
    wl = workloads.Scenes(1, str(tmp_path), n_scenes=40)
    tracer = spans.Tracer()
    original = mp.geometry.scene_to_drawing
    with tracer.installed(layers.TARGETS):
        assert mp.scene_to_drawing is not original
        assert mp.layout.scene_to_drawing is not original
        t0 = spans._clock()
        wl.run_pass(tracer)
        wall = spans._clock() - t0
    assert mp.scene_to_drawing is original
    assert mp.layout.scene_to_drawing is original
    m = layers.per_layer(tracer, [wall], [wall])
    assert set(m) == {name for name, _, _ in layers.METRICS}
    assert m["geometry.scene_to_drawing.calls"] == 40
    layer_s = sum(v for k, v in m.items()
                  if k.endswith(".s") and not k.startswith(("oracle.", "trace.")))
    assert m["trace.remainder_s"] >= 0.0
    assert layer_s + m["trace.remainder_s"] == pytest.approx(wall)


def _probe(starts, tick_s):
    p = probe.Probe()
    p.starts = list(starts)
    p.ends = [t + tick_s for t in starts]
    return p


def test_probe_subtracts_ticks_and_finds_native_time():
    ref_s = probe.TICK_REF
    # ticks every PERIOD over [0, 1], none over [1, 2] (a native call), then
    # ticks again; each takes twice the reference time
    period = probe.PERIOD
    starts = [i * period for i in range(int(1 / period))]
    starts += [2.0 + i * period for i in range(10)]
    p = _probe(starts, 2 * ref_s)
    ticks, native, factor = p.measure(0.0, 2.0 + 2 * ref_s + 1e-9)
    assert ticks == pytest.approx((len(starts) - 9) * 2 * ref_s)
    assert native == pytest.approx(2.0 - starts[len(starts) - 11] - 2 * ref_s
                                   - period)
    assert factor == pytest.approx(0.5)
    # a short op between two ticks: no tick inside, speed from its window
    assert p.measure(0.001, 0.002) == pytest.approx((0.0, 0.0, 0.5))


def test_native_time_is_scaled_in_part():
    doc = {"ops": [["a", 10.0, None, 0.0, 0.5], ["b", 4.0, None, 2.0, 0.25],
                   ["a", 30.0, None, 0.0, 1.0]],
           "setup_probe": {"ticks_s": 0.1, "native_s": 0.2, "factor": 4.0},
           "latency_prefix": "", "rss_mb": 1.0}
    assert probe.NATIVE_EXPONENT == 0.5
    m = run._end_to_end([(1.3, doc)], scaled=True)
    assert m["setup_s"] == pytest.approx(1.0 * 4.0 + 0.2 * 2.0)
    assert m["wall_s"] == pytest.approx((5.0 + 30.0) / 2 / 1e3
                                        + (2.0 * 0.25 + 2.0 * 0.5) / 1e3)
    raw = run._end_to_end([(1.3, doc)], scaled=False)
    assert raw["setup_s"] == pytest.approx(1.2)
    assert raw["wall_s"] == pytest.approx((10.0 + 30.0) / 2 / 1e3 + 4.0 / 1e3)


# ------------------------------------------------- the benchmark contract


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
