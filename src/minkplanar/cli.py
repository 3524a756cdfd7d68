"""Command line front end.

Subcommands cover generating the bundled counterexample drawings,
validating and profiling drawing files, the min-1 simplifier, the
anchored existence search, frame building and gluing, SVG rendering,
and canned reproduction pipelines.

Exit codes: 0 when the command succeeded and every checked property
holds (for searches: a drawing was found), 1 when a checked property
fails or a search exhausted its space without finding anything, 2 when
a search stopped on budget, 3 for unusable input or bad usage.

Every invocation emits exactly one JSON run report on stderr, or to the
file named by --report.  The report carries the command name, sha256
digests of the input files, the effective parameters, an outcome string,
timing and size stats, and the tool version.  A usage error's report,
outcome ``usage-error: <message>``, goes to stderr: --report is unread.
An output file that cannot be written is unusable input, exit 3; when it
is the --report file, the error and then the report go to stderr.

Each command, ``gen`` family and ``repro`` pipeline takes only the options
it reads: --report, --out (but for render), and its own.  The pipelines'
own, defaults in brackets: lemma3-g2 and open-question --budget-nodes,
--budget-secs; lemma3-gk --k [4] and the budget; lemma5-frame --k [2],
--t [2k+2], --graph [G2]; thm1-compose --k [2], --t [2k+2]; prop2-simplify
--seed [0], --count [200].  Reports record them as used, with ``pipeline``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import sys
import time
from dataclasses import asdict
from functools import cache
from typing import Any, Optional

from . import __version__
from .constructions import build_G2, build_Gk, g2_claims, gk_claims
from .drawings import (
    crossing_profile,
    is_k_planar,
    is_min_k_planar,
    is_simple,
    validate,
)
from .errors import InputError, MinkplanarError
from .frames import (
    build_frame,
    compose,
    composition_claims,
    frame_claims,
    separation_property_check,
)
from .graphs import AnchoredGraph
from .jsonio import (
    RunReport,
    drawing_from_json,
    drawing_text,
    graph_from_json,
    graph_text,
    outcome_to_json,
)
from .layout import audit_layout, to_svg, tutte_layout
from .sampling import random_min1_drawing
from .search import (
    Budget,
    Status,
    search_anchored,
    verify_certificate,
)
from .simplify import simplify_min1

_STATUS_EXIT = {
    Status.FOUND: 0,
    Status.EXHAUSTED_UNSAT: 1,
    Status.BUDGET_EXCEEDED: 2,
}

# --------------------------------------------------------------- plumbing


class _UsageError(Exception):
    """A command line argparse refused; ``main`` reports it and exits 3."""


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems go to ``main``, which exits 3, not 2.

    Exit code 2 is reserved for searches that hit their budget, so the
    stock argparse convention would collide with it.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _read_json(path: str, rep: RunReport) -> Any:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}")
    rep.inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as err:
        # ValueError also covers undecodable bytes and integer literals
        # past Python's digit limit; RecursionError, nesting too deep
        raise InputError(f"{path} is not JSON: {err}")


def _load_anchored(path: str, rep: RunReport, why: str) -> AnchoredGraph:
    g = graph_from_json(_read_json(path, rep))
    if not isinstance(g, AnchoredGraph):
        raise InputError(f"/anchors: {why} needs a graph with anchors")
    return g


def _write(text: str, out: Optional[str], stream=None,
           end: str = "\n") -> None:
    """``text`` and ``end`` to the file ``out``, or else to ``stream``
    (stdout)."""
    if out:
        try:
            # one write: json.dump would make one per token
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + end)
        except OSError as err:
            raise InputError(f"cannot write {out}: {err.strerror or err}")
    else:
        print(text, file=stream, end=end)


def _emit(doc: Any, out: Optional[str]) -> None:
    _write(json.dumps(doc, indent=1, sort_keys=True), out)


def _write_pack(prefix: Optional[str], graph, drawing, provenance: dict,
                rep: RunReport) -> None:
    """gen, frame and compose print the drawing JSON, or with --out write
    the same three files: graph, drawing and provenance."""
    if not prefix:
        _write(drawing_text(drawing), None)
        return
    written = [f"{prefix}.{tag}.json"
               for tag in ("graph", "drawing", "provenance")]
    _write(graph_text(graph), written[0])
    _write(drawing_text(drawing), written[1])
    _emit(provenance, written[2])
    rep.stats["written"] = written


def _budget(args, rep: RunReport) -> Optional[Budget]:
    """The budget options, recorded once valid: no report holds NaN."""
    nodes, secs = args.budget_nodes, args.budget_secs
    budget = None if nodes is None and secs is None else Budget(nodes, secs)
    rep.parameters.update({"budget_nodes": nodes, "budget_secs": secs})
    return budget


def _source_bundle(k: int):
    if k < 2:
        raise InputError("no bundled source family below k = 2")
    return build_G2() if k == 2 else build_Gk(k)


# ------------------------------------------------------------- commands


def cmd_gen(args, rep: RunReport) -> int:
    rep.parameters.update({"family": args.family, "k": args.k})  # g2: 2
    bundle = build_Gk(args.k) if args.family == "gk" else build_G2()

    g = bundle.anchored_graph
    rep.stats.update({
        "vertices": g.graph.n,
        "edges": g.graph.m,
        "anchors": len(g.anchors),
        "crossings": len(bundle.drawing.crossings),
    })
    provenance = {
        "family": args.family,
        "k": args.k,
        "claimed_min_k": bundle.claimed_min_k,
        "claimed_simple": bundle.claimed_simple,
        "claimed_adjacency_free": bundle.claimed_adjacency_free,
    }
    _write_pack(args.out, g, bundle.drawing, provenance, rep)
    rep.outcome = "ok"
    return 0


def cmd_validate(args, rep: RunReport) -> int:
    d = drawing_from_json(_read_json(args.drawing, rep))
    rep.parameters.update({
        "min_k": args.min_k, "k": args.k, "simple": args.simple,
    })
    verdict: dict[str, Any] = {"valid": True}
    failed = False
    if args.min_k is not None:
        v = is_min_k_planar(d, args.min_k)
        verdict["min_k"] = {
            "k": args.min_k,
            "holds": v.ok,
            "heavy_crossing_pair": None if v else list(v.witness),
        }
        failed = failed or not v
    if args.k is not None:
        v = is_k_planar(d, args.k)
        verdict["k_planar"] = {"k": args.k, "holds": v.ok}
        failed = failed or not v
    if args.simple:
        v = is_simple(d)
        verdict["simple"] = {
            "holds": v.ok,
            "witness": None if v else {"pair": list(v.witness[0]),
                                       "reason": v.witness[1]},
        }
        failed = failed or not v
    _emit(verdict, args.out)
    rep.outcome = "property-failed" if failed else "ok"
    return 1 if failed else 0


def cmd_profile(args, rep: RunReport) -> int:
    d = drawing_from_json(_read_json(args.drawing, rep))
    rep.parameters.update({"k": args.k})
    prof = crossing_profile(d)
    doc: dict[str, Any] = {
        "total": prof.total,
        "per_edge": {str(e): c for e, c in sorted(prof.per_edge.items())},
        "per_pair": [
            [e1, e2, c] for (e1, e2), c in sorted(prof.per_pair.items())
        ],
    }
    if args.k is not None:
        doc["heavy"] = list(prof.heavy_edges(args.k))
    _emit(doc, args.out)
    rep.stats["crossings"] = prof.total
    rep.outcome = "ok"
    return 0


def cmd_simplify(args, rep: RunReport) -> int:
    d = drawing_from_json(_read_json(args.drawing, rep))
    trace: list = []
    before = len(d.crossings)
    out = simplify_min1(d, trace=trace)
    _write(drawing_text(out), args.out)
    rep.stats.update({
        "crossings_before": before,
        "crossings_after": len(out.crossings),
        "swaps": len(trace),
    })
    rep.outcome = "ok"
    return 0


def cmd_search(args, rep: RunReport) -> int:
    budget = _budget(args, rep)
    g = _load_anchored(args.graph, rep, "the anchored search")
    rep.parameters.update({"k": args.k, "simple": args.simple})
    outcome = search_anchored(g, args.k, require_simple=args.simple,
                              budget=budget)
    if outcome.status is Status.FOUND and not verify_certificate(
        outcome, g, args.k, args.simple
    ):
        raise MinkplanarError("search produced an unverifiable certificate")
    _emit(outcome_to_json(outcome), args.out)
    rep.stats["search"] = asdict(outcome.stats)
    rep.outcome = outcome.status.value
    return _STATUS_EXIT[outcome.status]


def cmd_frame(args, rep: RunReport) -> int:
    g = _load_anchored(args.graph, rep, "the frame builder")
    fr = build_frame(g, args.k, t=args.t)
    p = fr.params
    rep.parameters.update({"k": args.k, "t": p.t})
    rep.stats.update({
        "vertices": fr.graph.n,
        "edges": fr.graph.m,
        "crossings": len(fr.drawing.crossings),
    })
    _write_pack(args.out, AnchoredGraph(fr.graph, fr.anchors), fr.drawing,
                dict(p._asdict()), rep)
    rep.outcome = "ok"
    return 0


def cmd_compose(args, rep: RunReport) -> int:
    src = _source_bundle(args.k)
    fr = build_frame(src.anchored_graph, src.claimed_min_k, t=args.t)
    comp = compose(fr, src)
    p = fr.params
    rep.parameters.update({"k": args.k, "t": p.t})
    rep.stats.update({
        "vertices": comp.graph.n,
        "edges": comp.graph.m,
        "crossings": len(comp.crossings),
    })
    provenance = dict(p._asdict())
    provenance["source_family"] = "g2" if args.k == 2 else f"gk{args.k}"
    provenance["source_min_k"] = src.claimed_min_k
    _write_pack(args.out, comp.graph, comp, provenance, rep)
    rep.outcome = "ok"
    return 0


def cmd_render(args, rep: RunReport) -> int:
    d = drawing_from_json(_read_json(args.drawing, rep))
    rep.parameters.update({"k": args.k, "audit": args.audit})
    layout = tutte_layout(d)
    if args.audit:
        audit_layout(d, layout)
    svg = to_svg(d, layout, k=args.k)
    _write(svg, args.svg, end="")
    rep.stats.update({
        "nodes": len(layout.coordinates),
        "residual": layout.residual,
        "written": [args.svg],
    })
    rep.outcome = "ok"
    return 0


# ---------------------------------------------------------- repro suite


def _finish_repro(checks: list[tuple[str, bool]], args, rep: RunReport,
                  extra: Optional[dict] = None) -> int:
    confirmed = all(ok for _, ok in checks)
    doc: dict[str, Any] = {
        "pipeline": args.pipeline,
        "checks": [{"check": c, "ok": ok} for c, ok in checks],
        "confirmed": confirmed,
    }
    if extra:
        doc.update(extra)
    _emit(doc, args.out)
    rep.outcome = "confirmed" if confirmed else "refuted"
    return 0 if confirmed else 1


def _finish_lemma3(b, k: int, checks: list[tuple[str, bool]],
                   budget: Optional[Budget], args, rep: RunReport,
                   extra: dict) -> int:
    """Lemma 3's negative claim: the search finds no simple anchored min-k
    drawing of the bundle's graph.  A budget stop exits 2."""
    outcome = search_anchored(b.anchored_graph, k, require_simple=True,
                              budget=budget)
    rep.stats["search"] = asdict(outcome.stats)
    extra["search"] = outcome.status.value
    if outcome.status is Status.BUDGET_EXCEEDED:
        _finish_repro(checks, args, rep, extra)
        rep.outcome = outcome.status.value  # the claim went unchecked
        return 2
    checks.append((f"no-simple-anchored-min-{k}",
                   outcome.status is Status.EXHAUSTED_UNSAT))
    return _finish_repro(checks, args, rep, extra)


def _repro_lemma3_g2(args, rep: RunReport) -> int:
    budget = _budget(args, rep)
    rep.parameters["pipeline"] = args.pipeline
    b = build_G2()
    return _finish_lemma3(b, 2, list(g2_claims(b)), budget, args, rep, {})


def _repro_lemma3_gk(args, rep: RunReport) -> int:
    budget = _budget(args, rep)
    k = args.k
    rep.parameters.update({"pipeline": args.pipeline, "k": k})
    b = build_Gk(k)
    return _finish_lemma3(b, k, list(gk_claims(b, k)), budget, args, rep,
                          {"k": k})


def _repro_lemma5_frame(args, rep: RunReport) -> int:
    rep.parameters.update({"pipeline": args.pipeline, "k": args.k,
                           "graph": args.graph})
    if args.graph:
        g = _load_anchored(args.graph, rep, "the frame builder")
    else:
        g = build_G2().anchored_graph
    fr = build_frame(g, args.k, t=args.t)
    p = fr.params
    rep.parameters["t"] = p.t  # build_frame defaults it to 2k+2
    checks = list(frame_claims(fr))
    checks.append(("web-separates-wheel", separation_property_check(fr)))
    rep.stats.update({"crossings": len(fr.drawing.crossings), "d": p.d})
    return _finish_repro(checks, args, rep, {"params": dict(p._asdict())})


def _repro_thm1_compose(args, rep: RunReport) -> int:
    k = args.k
    rep.parameters.update({"pipeline": args.pipeline, "k": k})
    src = _source_bundle(k)
    mk = src.claimed_min_k
    fr = build_frame(src.anchored_graph, mk, t=args.t)
    rep.parameters["t"] = fr.params.t
    comp = compose(fr, src)
    checks = list(composition_claims(comp, fr, src))
    heavy = crossing_profile(comp).heavy_edges(mk)
    rep.stats.update({"crossings": len(comp.crossings),
                      "heavy_edges": len(heavy)})
    return _finish_repro(checks, args, rep,
                         {"k": k, "source_min_k": mk,
                          "params": dict(fr.params._asdict())})


def _repro_prop2_simplify(args, rep: RunReport) -> int:
    count = args.count
    rep.parameters.update({"pipeline": args.pipeline, "seed": args.seed,
                           "count": count})
    if count < 1:
        raise InputError("prop2-simplify needs --count >= 1")
    rng = random.Random(args.seed)
    clean = True
    monotone = True
    for _ in range(count):
        d = random_min1_drawing(rng)
        trace: list = []
        s = simplify_min1(d, trace=trace)
        sizes = [len(step) for step in trace] + [0]
        monotone = monotone and all(
            a > b for a, b in zip(sizes, sizes[1:])
        )
        clean = clean and (
            validate(s) == []
            and is_simple(s).ok
            and is_min_k_planar(s, 1).ok
            and s.graph == d.graph
        )
    checks = [
        ("outputs-valid-simple-min-1", clean),
        ("violating-pairs-strictly-decrease", monotone),
    ]
    rep.stats.update({"drawings": count})
    return _finish_repro(checks, args, rep, {"drawings": count})


def _repro_open_question(args, rep: RunReport) -> int:
    budget = _budget(args, rep)
    rep.parameters["pipeline"] = args.pipeline
    g = build_G2().anchored_graph
    outcome = search_anchored(g, 3, require_simple=True, budget=budget)
    rep.stats["search"] = asdict(outcome.stats)
    rep.outcome = outcome.status.value
    doc: dict[str, Any] = {
        "pipeline": args.pipeline,
        "question": "does the 20-vertex counterexample admit a simple "
                    "anchored drawing at k = 3",
        "outcome": outcome_to_json(outcome),
    }
    if outcome.status is Status.FOUND:
        if not verify_certificate(outcome, g, 3, True):
            raise MinkplanarError("open-question certificate failed checks")
        doc["answer"] = "yes"
        doc["certificate_crossings"] = len(outcome.certificate.crossings)
    elif outcome.status is Status.EXHAUSTED_UNSAT:
        doc["answer"] = "no"
    else:
        doc["answer"] = "undecided within budget"
    _emit(doc, args.out)
    return _STATUS_EXIT[outcome.status]


# ------------------------------------------------------------ the parser


def _leaf(subs, name: str, fn, parents: list, help: str) -> _Parser:
    # the leaf names its function, which ``main`` looks up when it runs:
    # the parser outlives any later rebinding of the module's names
    sp = subs.add_parser(name, parents=parents, help=help)
    sp.set_defaults(fn=fn.__name__)
    return sp


@cache
def _parser() -> _Parser:
    """The whole parser tree, built once per process on first use."""
    p = _Parser(
        prog="minkplanar",
        description="build, check, search, and draw min-k-planar drawings",
    )
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")

    # the options leaves share; --out and --report sit on the leaves only,
    # since a sub-parser's default overwrites what its parent parsed
    report = _Parser(add_help=False)
    report.add_argument("--report", metavar="FILE",
                        help="write the run report here instead of stderr")
    common = _Parser(add_help=False, parents=[report])
    common.add_argument("--out", metavar="PATH",
                        help="output file, or file prefix for commands "
                             "that write a graph/drawing/provenance pack")
    budgeted = _Parser(add_help=False, parents=[common])
    budgeted.add_argument("--budget-nodes", type=int, metavar="N")
    budgeted.add_argument("--budget-secs", type=float, metavar="S")

    sub = p.add_subparsers(dest="cmd", metavar="command", parser_class=_Parser,
                           required=True)

    sp = sub.add_parser("gen", help="emit a bundled counterexample drawing")
    family = sp.add_subparsers(dest="family", parser_class=_Parser,
                               required=True)
    _leaf(family, "g2", cmd_gen, [common],
          "the 20-vertex counterexample (k = 2)").set_defaults(k=2)
    sp = _leaf(family, "gk", cmd_gen, [common], "the parametric counterexample")
    sp.add_argument("--k", type=int, required=True, help="at least 3")

    sp = _leaf(sub, "validate", cmd_validate, [common],
               "check properties of a drawing file")
    sp.add_argument("--drawing", required=True, metavar="FILE")
    sp.add_argument("--min-k", dest="min_k", type=int, metavar="K")
    sp.add_argument("--k", type=int, metavar="K",
                    help="check the per-edge crossing cap")
    sp.add_argument("--simple", action="store_true")

    sp = _leaf(sub, "profile", cmd_profile, [common],
               "per-edge and per-pair crossing counts")
    sp.add_argument("--drawing", required=True, metavar="FILE")
    sp.add_argument("--k", type=int, metavar="K",
                    help="also list edges with more than K crossings")

    sp = _leaf(sub, "simplify", cmd_simplify, [common],
               "remove crossings between dependent edge pairs")
    sp.add_argument("--drawing", required=True, metavar="FILE")

    sp = _leaf(sub, "search", cmd_search, [budgeted],
               "decide anchored drawing existence")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--simple", action="store_true",
                    help="restrict to simple drawings")

    sp = _leaf(sub, "frame", cmd_frame, [common],
               "build the caged-wheel frame for a graph")
    sp.add_argument("--graph", required=True, metavar="FILE",
                    help="anchored graph JSON")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=int, help="amplification copies per web "
                                          "class (default 2k+2)")

    sp = _leaf(sub, "compose", cmd_compose, [common],
               "glue a bundled counterexample into its frame")
    sp.add_argument("--k", type=int, default=2,
                    help="source family: 2 for the 20-vertex graph, "
                         ">= 3 for the parametric one")
    sp.add_argument("--t", type=int)

    sp = _leaf(sub, "render", cmd_render, [report],
               "draw a drawing file to SVG")
    sp.add_argument("--drawing", required=True, metavar="FILE")
    sp.add_argument("--svg", required=True, metavar="FILE")
    sp.add_argument("--k", type=int, metavar="K",
                    help="highlight edges with more than K crossings")
    sp.add_argument("--audit", action="store_true",
                    help="re-derive the drawing from the coordinates first")

    sp = sub.add_parser("repro", help="run a canned reproduction pipeline")
    pipeline = sp.add_subparsers(dest="pipeline", parser_class=_Parser,
                                 required=True)
    _leaf(pipeline, "lemma3-g2", _repro_lemma3_g2, [budgeted],
          "Lemma 3 on the 20-vertex counterexample")
    sp = _leaf(pipeline, "lemma3-gk", _repro_lemma3_gk, [budgeted],
               "Lemma 3 on the parametric counterexample")
    sp.add_argument("--k", type=int, default=4)
    sp = _leaf(pipeline, "lemma5-frame", _repro_lemma5_frame, [common],
               "Lemma 5's frame of G2 or of --graph")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--t", type=int, help="default 2k+2")
    sp.add_argument("--graph", metavar="FILE", help="anchored source graph")
    sp = _leaf(pipeline, "thm1-compose", _repro_thm1_compose, [common],
               "Theorem 1's composition")
    sp.add_argument("--k", type=int, default=2, help="as for compose")
    sp.add_argument("--t", type=int, help="default 2k+2")
    sp = _leaf(pipeline, "prop2-simplify", _repro_prop2_simplify, [common],
               "Proposition 2's simplifier on sampled min-1 drawings")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=200, help="at least 1")
    _leaf(pipeline, "open-question", _repro_open_question, [budgeted],
          "is there a simple anchored min-3 drawing of G2")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    words = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(words)
    except SystemExit as ex:  # --help and --version
        return int(ex.code or 0)
    except _UsageError as err:
        # the first word names the command: the top level has no option
        # but --help and --version
        rep = RunReport(command=words[0] if words else "",
                        outcome=f"usage-error: {err}", version=__version__)
        print(json.dumps(rep.to_json(), sort_keys=True), file=sys.stderr)
        return 3

    rep = RunReport(command=args.cmd, version=__version__)
    t0 = time.perf_counter()
    # The cyclic collector is paused while the command runs: its drawings
    # of up to ~10^5 arcs are small tuples, lists and dicts that hold no
    # reference cycles, yet each full collection re-walks all of them.
    # The few cycles a command leaves (the search's closures) wait for
    # the collector's first run after it is back on.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = globals()[args.fn](args, rep)
    except InputError as err:
        print(f"minkplanar: error: {err}", file=sys.stderr)
        rep.outcome = f"input-error: {err}"
        code = 3
    except MinkplanarError as err:
        print(f"minkplanar: error: {err}", file=sys.stderr)
        rep.outcome = f"failed: {err}"
        code = 1
    finally:
        if was_enabled:
            gc.enable()
    rep.stats.setdefault("seconds", round(time.perf_counter() - t0, 3))
    report = json.dumps(rep.to_json(), sort_keys=True)
    try:
        _write(report, args.report, sys.stderr)
    except InputError as err:
        print(f"minkplanar: error: {err}", file=sys.stderr)
        print(report, file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
