"""minkplanar benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload frame|search|scenes --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
The run starts worker processes one after the other (three untraced, one
traced).  Each worker sets up, then repeats the workload's fixed operation
list (a "pass") as often as its share of S seconds holds passes of the
workload's planned length, checking the outputs of every pass outside the
timed region.  Untraced workers scale each operation's time by the speed
that the probe of probe.py saw during it.  With
``--trace 0`` the last line of standard output is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics.  Everything the run
writes goes under ``.bench_out/`` in the checkout: a result document with
machine info and the command line, and with ``--trace 1`` the spans.
NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from probe import Probe, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Untraced runs split their time over this many fresh processes and take
# medians across them, since a process's speed varies with its memory
# layout; their set-up times are the set-up samples.
WORKERS = 3
# One single-threaded client: native thread pools stay at one thread, and
# a fixed string hash seed makes dict and set layouts repeat across runs.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

_clock = time.perf_counter

# (metric, unit) of the untraced run, in BENCHMARK.json's order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)
# per-workload names for the same numbers, printed alongside
ALIASES = {
    "search": {"ops_per_s": "verdicts_per_s", "op_ms_p50": "verdict_ms_p50",
               "op_ms_p99": "verdict_ms_p99"},
    "scenes": {"ops_per_s": "scenes_per_s"},
}


def _require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "minkplanar", "__init__.py")):
        sys.exit(f"bench: no minkplanar sources in {SRC}; "
                 "run from the root of a checkout")


def _load_package():
    """Import minkplanar from this checkout's src/, or exit non-zero."""
    _require_sources()
    sys.path.insert(0, SRC)
    import minkplanar

    where = os.path.dirname(os.path.abspath(minkplanar.__file__))
    if where != os.path.join(SRC, "minkplanar"):
        sys.exit(f"bench: imported minkplanar from {where}, not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("frame", "search", "scenes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", metavar="RUN_ID",
                   help="internal: run passes in this process, print ops")
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- worker


def _passes(args, wl, tracer):
    """Run args.seconds over the workload's PASS_S passes, at least one.

    The count does not depend on how fast the machine runs, so every run
    of a workload measures the same work and takes the same number of
    samples of each op.  Returns the untraced and traced pass walls and
    the ops of every pass.  A traced worker alternates an untraced and a
    traced pass and runs at least one of each; its checks run traced too,
    so that the oracle's spans are recorded.
    """
    import layers

    n = max(1, round(args.seconds / wl.PASS_S))
    walls = {False: [], True: []}
    passes = []
    for i in range(max(2, n) if tracer else n):
        traced = i % 2 == 1 and tracer is not None
        gc.collect()
        if traced:
            tracer.phase = "timed"
            with tracer.installed(layers.TARGETS):
                t0 = _clock()
                ops = wl.run_pass(tracer)
                wall = _clock() - t0
        else:
            t0 = _clock()
            ops = wl.run_pass(None)
            wall = _clock() - t0
        if tracer is None:
            wl.check(ops)
        else:
            tracer.phase = "check"
            with tracer.installed(layers.TARGETS):
                wl.check(ops)
        walls[traced].append(wall)
        passes.append(ops)
    return walls[False], walls[True], passes


def _worker(args) -> int:
    """Set up, run passes, print one JSON document of the ops' times.

    An untraced worker runs the speed probe from before the import to the
    end, and reports each op's time without the probe's ticks, with its
    native share and its speed factor (probe.py).  A traced one runs no
    probe, so that the ticks stay out of the spans: its factors are 1.
    """
    begun = _clock()
    probe = None
    if not args.trace:
        probe = Probe()
        probe.start()
    _load_package()
    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, _workdir(args.worker))
    ready = _clock()
    print("ready", flush=True)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced, passes = _passes(args, wl, tracer)
    if probe is not None:
        probe.stop()

    def measured(t0: float, t1: float) -> tuple[float, float, float]:
        return probe.measure(t0, t1) if probe else (0.0, 0.0, 1.0)

    ops = []
    for op in (op for ops in passes for op in ops):
        ticks, native, factor = measured(op.start, op.start + op.ms / 1e3)
        ops.append([op.name, op.ms - ticks * 1e3, op.problem,
                    native * 1e3, factor])
    ticks, native, factor = measured(begun, ready)
    doc = {
        "ops": ops,
        "setup_probe": {"ticks_s": ticks, "native_s": native,
                        "factor": factor},
        "pass_walls_s": untraced,
        "traced_pass_walls_s": traced,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unchecked_ops_per_pass": wl.unchecked,
        "latency_prefix": wl.LATENCY_PREFIX,
    }
    if probe is not None:
        doc["probe_ticks"] = len(probe.starts)
        doc["probe_tick_ms_median"] = 1e3 * statistics.median(
            e - s for s, e in zip(probe.starts, probe.ends))
    if tracer is not None:
        units = {name: unit for name, unit, _ in layers.METRICS}
        doc["per_layer"] = {
            k: {"value": v, "unit": units[k]}
            for k, v in layers.per_layer(tracer, traced, untraced).items()}
        doc["spans_file"] = _write_spans(args, tracer)
    print(json.dumps(doc))
    return 0


def _workdir(run_id: str) -> str:
    """Scratch space shared by the workers of one run, which run in turn."""
    return os.path.join(OUT, f"work-{run_id}")


def _write_spans(args, tracer) -> str:
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "phase", "start", "end", "parent"],
                   "spans": tracer.spans,
                   "counts": [[p, n, c] for (p, n), c in tracer.counts.items()]},
                  fh)
    return os.path.relpath(path, ROOT)


# ----------------------------------------------------------- coordinator


def _run_workers(args) -> list[tuple[float, dict]]:
    """(set-up seconds, worker document) for each worker, run in turn.

    Set-up is timed from process start until the worker reports ready:
    interpreter start, import and building the inputs.
    """
    n = 1 if args.trace else WORKERS
    run_id = str(os.getpid())
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", run_id,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / n), "--trace", str(args.trace)]
    env = dict(os.environ, **WORKER_ENV)
    out = []
    try:
        for _ in range(n):
            t0 = _clock()
            with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) as proc:
                try:
                    ready = proc.stdout.readline()
                    setup = _clock() - t0
                    stdout, stderr = proc.communicate(timeout=170)
                except BaseException:
                    proc.kill()
                    raise
            if proc.returncode != 0 or ready.strip() != "ready":
                raise RuntimeError(f"worker failed: {stderr.strip()[-3000:]}")
            out.append((setup, json.loads(stdout.splitlines()[-1])))
    finally:
        shutil.rmtree(_workdir(run_id), ignore_errors=True)
    return out


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "worker_env": WORKER_ENV,
    }


def _op_ms(entry, scaled: bool) -> float:
    """An op's time without the probe's ticks, scaled by ``probe.scale``
    or not."""
    _, ms, _, native_ms, factor = entry
    return scale(ms, native_ms, factor) if scaled else ms


def _setup_s(setup: float, doc, scaled: bool) -> float:
    p = doc["setup_probe"]
    own = setup - p["ticks_s"]
    return scale(own, p["native_s"], p["factor"]) if scaled else own


def _end_to_end(runs, scaled: bool) -> dict:
    """End-to-end metrics, with times scaled to the reference speed or not.

    ``wall_s`` sums, over the operations, each one's median over every
    pass of every worker, so a burst of noise in one pass does not move it.
    Set-up is scaled like an op, by the probe's samples during it.
    """
    per_op: dict[str, list[float]] = {}
    setups = []
    for setup, doc in runs:
        setups.append(_setup_s(setup, doc, scaled))
        for entry in doc["ops"]:
            per_op.setdefault(entry[0], []).append(_op_ms(entry, scaled))
    med = {name: statistics.median(ms) for name, ms in per_op.items()}
    wall = sum(med.values()) / 1e3
    prefix = runs[0][1]["latency_prefix"]
    lat = [ms for name, ms in med.items() if name.startswith(prefix)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(med) / wall,
        "op_ms_p50": percentile(lat, 0.50),
        "op_ms_p99": percentile(lat, 0.99),
        "peak_rss_mb": max(doc["rss_mb"] for _, doc in runs),
    }


def _run(args) -> dict:
    import reference

    runs = _run_workers(args)
    docs = [doc for _, doc in runs]
    per_op: dict[str, list[float]] = {}
    native: dict[str, list[float]] = {}
    factors: dict[str, list[float]] = {}
    failures: dict = {}
    for doc in docs:
        for name, ms, problem, native_ms, factor in doc["ops"]:
            per_op.setdefault(name, []).append(ms)
            native.setdefault(name, []).append(native_ms)
            factors.setdefault(name, []).append(factor)
            if problem is not None:
                entry = failures.setdefault(name, {"count": 0, "problem": problem})
                entry["count"] += 1
    unexpected = sorted(set(failures) - reference.KNOWN_DEFECTS)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command_line": [sys.executable] + sys.argv,
        "machine": _machine(),
        "setup_samples_s": [setup for setup, _ in runs],
        "setup_probe": [doc["setup_probe"] for doc in docs],
        "probe_ticks": [doc.get("probe_ticks") for doc in docs],
        "probe_tick_ms_median": [doc.get("probe_tick_ms_median")
                                 for doc in docs],
        "pass_walls_s": [doc["pass_walls_s"] for doc in docs],
        "traced_pass_walls_s": [doc["traced_pass_walls_s"] for doc in docs],
        "op_ms": per_op,
        "op_native_ms": native,
        "op_speed_factor": factors,
        "ops": sum(len(doc["ops"]) for doc in docs),
        "failed_ops": sum(f["count"] for f in failures.values()),
        "failures": failures,
        "unexpected_failures": unexpected,
        "unchecked_ops_per_pass": docs[0]["unchecked_ops_per_pass"],
    }
    if args.trace:
        metrics = docs[0]["per_layer"]
        # layer self times plus the remainder make up the traced wall
        consistent = (metrics["trace.remainder_s"]["value"]
                      >= -1e-6 * metrics["trace.wall_s"]["value"])
        result["spans_file"] = docs[0]["spans_file"]
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in _end_to_end(runs, scaled=True).items()}
        result["unscaled_metrics"] = _end_to_end(runs, scaled=False)
        result["latency_samples"] = sum(
            name.startswith(docs[0]["latency_prefix"]) for name in per_op)
        consistent = True
    result["metrics"] = metrics
    result["correct"] = consistent and not unexpected
    return result


def _report(result: dict) -> None:
    w = result["workload"]
    print(f"minkplanar benchmark: workload {w}, seed {result['seed']}, "
          f"trace {result['trace']}")
    print("command line: " + " ".join(result["command_line"]))
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    raw = result.get("unscaled_metrics", {})
    if raw:
        print("metrics scaled to the reference speed (unscaled in brackets):")
    for name, entry in result["metrics"].items():
        alias = ALIASES.get(w, {}).get(name)
        shown = f"{name} ({alias})" if alias else name
        unscaled = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {shown:44s} {entry['value']:.6g} {entry['unit']}{unscaled}")
    if "latency_samples" in result:
        print(f"  {'latency samples (per-op medians)':44s} "
              f"{result['latency_samples']}")
    print(f"  {'ops':44s} {result['ops']}")
    print(f"  {'failed_ops':44s} {result['failed_ops']}")
    print(f"  {'unchecked ops per pass':44s} {result['unchecked_ops_per_pass']}")
    for name, f in sorted(result["failures"].items()):
        known = "known defect" if name not in result["unexpected_failures"] \
            else "UNEXPECTED"
        print(f"    failed {name} x{f['count']} ({known}): {f['problem']}")


def main(argv=None) -> int:
    args = _parse(argv)
    _require_sources()
    if args.worker:
        return _worker(args)
    os.makedirs(OUT, exist_ok=True)
    result = _run(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    _report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["ops"],
        "failed": result["failed_ops"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
