"""The three workloads.  NOTES.md says why each exists.

Each workload is one client running operations back to back (a closed
loop) in this process.  ``__init__`` is the set-up: it builds every input
from the seed.  ``run_pass`` runs the fixed operation list once and times
each operation; ``check`` then compares the outputs with the references,
outside the timed region.  Functions are looked up on the package at call
time (``mp.search_anchored``), so a tracer that wraps them sees the calls.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Optional

import minkplanar as mp
from minkplanar import cli
from minkplanar.errors import GeometryError, InputError, MinkplanarError

import reference as ref

_clock = time.perf_counter


@dataclass
class Op:
    """One timed operation and what its checks made of it."""

    name: str
    ms: float
    result: object = None
    problem: Optional[str] = None
    start: float = 0.0  # clock reading when it began


# ------------------------------------------------------------------ frame

# ROADMAP's gen / frame / compose / render pipeline on G2 at k = 2.  The
# audit runs at t = 1 only: at t = 3 it does not fit in 8 GB in version 0.1.0.
FRAME_STEPS = (
    ("gen", ["gen", "g2", "--out", "{w}/g2"]),
    ("lemma5-frame", ["repro", "lemma5-frame", "--t", "1",
                      "--out", "{w}/lemma5.json"]),
    ("compose-t1", ["compose", "--t", "1", "--out", "{w}/t1"]),
    ("validate-t1", ["validate", "--drawing", "{w}/t1.drawing.json",
                     "--min-k", "2", "--out", "{w}/t1.verdict.json"]),
    ("render-audit-t1", ["render", "--drawing", "{w}/t1.drawing.json",
                         "--svg", "{w}/t1.svg", "--k", "2", "--audit"]),
    ("compose-t3", ["compose", "--t", "3", "--out", "{w}/t3"]),
    ("render-t3", ["render", "--drawing", "{w}/t3.drawing.json",
                   "--svg", "{w}/t3.svg", "--k", "2"]),
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_frame_step(step: str, code: int, work: str) -> Optional[str]:
    """Problem with one pipeline command's output, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        if step == "lemma5-frame":
            doc = json.loads(_read(f"{work}/lemma5.json"))
            if doc.get("confirmed") is not True:
                return "repro document is not confirmed"
        elif step == "compose-t1":
            return ref.check_digest(_read(f"{work}/t1.drawing.json"), 1)
        elif step == "compose-t3":
            return ref.check_digest(_read(f"{work}/t3.drawing.json"), 3)
        elif step == "validate-t1":
            doc = json.loads(_read(f"{work}/t1.verdict.json"))
            if doc.get("min_k", {}).get("holds") is not True:
                return "composed drawing is not min-2-planar"
        elif step.startswith("render"):
            # the audit passing is the check; SVG float text is not digested
            svg = _read(f"{work}/{step[-2:]}.svg")
            if b"<svg " not in svg[:512] or not svg.rstrip().endswith(b"</svg>"):
                return "SVG file is malformed"
    except (OSError, ValueError) as err:
        return f"output unreadable: {err}"
    return None


class Frame:
    """Seven in-process CLI commands; the seed does not change the input."""

    LATENCY_PREFIX = ""  # the operations the latency percentiles cover
    unchecked = 0  # operations whose output no reference can judge
    PASS_S = 15.0  # the pass length run.py plans the number of passes with

    def __init__(self, seed: int, work: str, steps=FRAME_STEPS):
        self.work = work
        self.steps = steps
        os.makedirs(work, exist_ok=True)

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for step, argv in self.steps:
            argv = [a.format(w=self.work) for a in argv]
            argv += ["--report", f"{self.work}/{step}.report.json"]
            gc.collect()  # as a fresh invocation would start, untimed
            t0 = _clock()
            if tracer is None:
                code = cli.main(argv)
            else:
                for flag in ("--drawing", "--graph"):
                    if flag in argv:
                        path = argv[argv.index(flag) + 1]
                        tracer.count("jsonio.bytes_read", os.path.getsize(path))
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
            ops.append(Op(step, (_clock() - t0) * 1e3, code, start=t0))
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            op.problem = check_frame_step(op.name, op.result, self.work)


# ----------------------------------------------------------------- search

# (k, simple) pairs for the random batch; the oracle decides each of them.
RANDOM_SETTINGS = ((0, False), (1, False), (1, True), (2, False), (2, True),
                   (3, False))


def random_chord_graph(rng: random.Random, n_edges: int = 5):
    """Every vertex an anchor, edges distinct pairs (the sampler's law)."""
    n = rng.randint(4, 8)
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), n_edges)
    g = mp.Graph(tuple(range(n)), tuple(sorted(pairs)))
    return mp.AnchoredGraph(g, tuple(range(n)))


class Search:
    """The fixed query list of reference.FIXED_QUERIES plus a random batch."""

    def __init__(self, seed: int, work: str, n_random: int = 1000,
                 queries=ref.FIXED_QUERIES):
        bundles = {2: mp.build_G2()}
        for q in queries:
            if q.family not in bundles:
                bundles[q.family] = mp.build_Gk(q.family)
        self.bundles = bundles
        self.work = work
        rng = random.Random(seed)
        self.queries = [
            (q.name, bundles[q.family].anchored_graph, q.k, q.simple,
             mp.Budget(nodes=q.budget_nodes) if q.budget_nodes else None)
            for q in queries
        ]
        self.fixed = {q.name: q for q in queries}
        for i in range(n_random):
            k, simple = rng.choice(RANDOM_SETTINGS)
            name = f"random-{i}-k{k}-{'simple' if simple else 'any'}"
            self.queries.append((name, random_chord_graph(rng), k, simple, None))
        self.known: dict[str, tuple[str, str]] = {}

    # the random batch only: a dozen fixed queries would otherwise decide
    # the tail percentiles by where they fall in the sort
    LATENCY_PREFIX = "random-"
    unchecked = 0
    PASS_S = 4.0

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        found = mp.Status.FOUND
        for name, ag, k, simple, budget in self.queries:
            t0 = _clock()
            out = mp.search_anchored(ag, k, require_simple=simple, budget=budget)
            certified = None
            if out.status is found:
                certified = mp.verify_certificate(out, ag, k, simple)
            ops.append(Op(name, (_clock() - t0) * 1e3,
                          (out.status.value, certified), start=t0))
        return ops

    def _answers(self) -> dict[str, tuple[str, str]]:
        """Known answer and its source per query, built on first use.

        The oracle takes seconds, so the answers are kept in the work
        directory for the next worker of the same run.
        """
        path = os.path.join(self.work, "answers.json")
        if not self.known and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.known = {k: tuple(v) for k, v in json.load(fh).items()}
        if not self.known:
            for name, ag, k, simple, _ in self.queries:
                if name in self.fixed:
                    q = self.fixed[name]
                    if q.source.startswith("bundled witness"):
                        _require_witness(self.bundles[q.family], q.k)
                    self.known[name] = (q.expected, q.source)
                else:
                    status = mp.brute_oracle(ag, k, require_simple=simple).status
                    self.known[name] = (status.value, ref.ORACLE)
            os.makedirs(self.work, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.known, fh)
        return self.known

    def check(self, ops: list[Op]) -> None:
        known = self._answers()
        for op in ops:
            status, certified = op.result
            expected, source = known[op.name]
            problem = ref.check_verdict(expected, status, certified)
            op.problem = problem and f"{problem} ({source})"


def _require_witness(bundle, k: int) -> None:
    """A known Found answer resting on a bundle must have a sound witness."""
    d = bundle.drawing
    ok, _ = mp.is_min_k_planar(d, k, check=False)
    if mp.validate(d) or not ok or d.anchors != bundle.anchored_graph.anchors:
        raise RuntimeError(f"bundle is no min-{k} witness; fix reference.py")


# ----------------------------------------------------------------- scenes

RADIUS = 3.0


def random_scene(rng: random.Random):
    """4-7 anchors, 2-5 chords, 0-2 interior bends per route."""
    n = rng.randint(4, 7)
    m = rng.randint(2, 5)
    positions = {i: mp.on_circle(RADIUS, 90.0 - 360.0 * i / n) for i in range(n)}
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    g = mp.Graph(tuple(range(n)), tuple(sorted(pairs)))
    routes = {}
    for e, (u, v) in enumerate(g.edges):
        bends = (0, 1, 1, 2)[rng.randrange(4)]
        mid = [mp.on_circle(0.75 * RADIUS * rng.random() ** 0.5,
                            rng.uniform(0.0, 360.0)) for _ in range(bends)]
        routes[e] = (positions[u], *mid, positions[v])
    return mp.Scene(g, positions, routes, anchors=tuple(range(n)), radius=RADIUS)


class Scenes:
    """Small seeded scenes through the converter, min-1 ones simplified."""

    def __init__(self, seed: int, work: str, n_scenes: int = 3000):
        rng = random.Random(seed)
        self.scenes = [random_scene(rng) for _ in range(n_scenes)]
        self.refs: list[ref.SceneRef] = []

    LATENCY_PREFIX = ""
    PASS_S = 3.0

    @property
    def unchecked(self) -> int:
        """Scenes too close to a degeneracy for the reference to judge."""
        return sum(r.verdict == "ambiguous" for r in self.refs)

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for i, scene in enumerate(self.scenes):
            t0 = _clock()
            res = _convert_and_simplify(scene)
            ops.append(Op(str(i), (_clock() - t0) * 1e3, res, start=t0))
        return ops

    def check(self, ops: list[Op]) -> None:
        if not self.refs:
            self.refs = [ref.scene_reference(s.routes, s.positions)
                         for s in self.scenes]
        for op in ops:
            accepted, crossings, simplified = op.result
            op.problem = ref.check_scene(self.refs[int(op.name)], accepted,
                                         crossings) or simplified


def _convert_and_simplify(scene):
    """(accepted, crossings, problem of the min-1 simplification)."""
    try:
        d, _ = mp.scene_to_drawing(scene)
    except (GeometryError, InputError):
        return False, 0, None
    if not mp.is_min_k_planar(d, 1, check=False)[0]:
        return True, len(d.crossings), None
    swaps: list = []
    try:
        s = mp.simplify_min1(d, check=False, trace=swaps)
    except MinkplanarError as err:
        return True, len(d.crossings), f"simplify_min1 failed: {err}"
    if (mp.validate(s) or not mp.is_simple(s, check=False)[0]
            or not mp.is_min_k_planar(s, 1, check=False)[0]
            or s.graph != d.graph or len(s.crossings) > len(d.crossings)):
        return True, len(d.crossings), "simplified drawing is not simple min-1"
    return True, len(d.crossings), None


WORKLOADS = {"frame": Frame, "search": Search, "scenes": Scenes}
