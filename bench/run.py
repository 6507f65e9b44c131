#!/usr/bin/env python3
"""Paper-workload benchmark of fjerk, timed end to end and per layer.

    python3 bench/run.py --workload sweep-a091 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the library is imported from `src/` next to this
directory. Each run repeats whole rounds of one workload (see workloads.py)
until --seconds have passed, checks the outputs, and prints one line per
metric followed by a JSON object as the last line of standard output. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the public
functions of the library are wrapped (spans.py) and the per-layer metrics are
printed instead, and the spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
}
PER_LAYER = {
    "solver.weights_s": "s",
    "solver.integrate_us_per_step": "us/step",
    "solver.tangent_us_per_step": "us/step",
    "solver.rhs_calls": "count",
    "solver.rhs_s": "s",
    "solver.history_s": "s",
    "solver.history_quarter_s": "s",
    "solver.renorm_count": "count",
    "solver.renorm_rewrite_mb": "MB",
    "solver.history_mb": "MB",
    "chaos.extrema_s": "s",
    "chaos.classify_s": "s",
    "chaos.lane_s_max": "s",
    "chaos.pool_efficiency": "ratio",
    "hopf.commensurate_ms": "ms",
    "hopf.incommensurate_ms": "ms",
    "hopf.classify_ms": "ms",
    "output.csv_s": "s",
    "output.svg_s": "s",
    "output.csv_mb": "MB",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.process_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="sweep-a091, spectrum, hopf-curve, or all")
    p.add_argument("--seed", type=int, default=1, help="seed of the sampled inputs")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args):
    """Child mode: import and draw the inputs, then report when ready."""
    t0 = time.perf_counter()
    import fjerk.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, None)
    print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
    return 0


def measure_setup(name, seed):
    """Median time from a fresh interpreter to the first timed call."""
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        setup.append(probe["ready"] - t0)
        imports.append(probe["import_s"])
    return statistics.median(setup), statistics.median(imports)


def layer_metrics(spans, rounds, extras, workers):
    """Per-layer values of each round (median over rounds) from the spans."""
    windows = [(s["start"], s["end"]) for s in spans if s["name"] == "bench.round"]
    per_round = []
    for (lo, hi), rnd in zip(windows, rounds):
        inside = [s for s in spans if lo <= s["start"] and s["end"] <= hi]

        def named(name):
            return [s for s in inside if s["name"] == name]

        def total(name):
            return sum((s["end"] - s["start"] for s in named(name)), 0.0)

        def per_call_ms(name):
            calls = named(name)
            return 1e3 * total(name) / len(calls) if calls else 0.0

        def us_per_step(name):
            steps = sum(s["steps"] for s in named(name))
            return 1e6 * total(name) / steps if steps else 0.0

        m = dict(rnd.layers)
        m["solver.weights_s"] = total("solver.abm_weights")
        m["solver.integrate_us_per_step"] = us_per_step("solver.integrate")
        m["solver.tangent_us_per_step"] = us_per_step("solver.integrate_with_tangent")
        m["solver.renorm_count"] = sum(s["renorms"] for s in named("solver.integrate_with_tangent"))
        m["chaos.extrema_s"] = total("chaos.extract_extrema")
        m["chaos.classify_s"] = total("chaos.classify_attractor")
        m["hopf.commensurate_ms"] = per_call_ms("hopf.hopf_commensurate")
        m["hopf.incommensurate_ms"] = per_call_ms("hopf.hopf_incommensurate")
        m["hopf.classify_ms"] = per_call_ms("hopf.classify_stability")
        m["output.csv_s"] = total("output.write_sweep_csv")
        m["output.svg_s"] = total("output.render_svg")
        lanes = sweep_lanes(inside)
        if lanes:
            sweep_s = total("chaos.sweep_bifurcation")
            m["chaos.lane_s_max"] = max(lanes)
            m["chaos.pool_efficiency"] = sum(lanes) / (sweep_s * workers)
        per_round.append(m)
    out = {name: statistics.median(m.get(name, 0.0) for m in per_round) for name in PER_LAYER}
    out.update(extras)
    return out


def sweep_lanes(spans):
    """Lane times of each sweep: integrate start to the end of its extrema.

    Lanes are the spans directly under a sweep_bifurcation span (the pool
    workers inherit it as parent); in each process they run one after another.
    """
    sweeps = {s["id"] for s in spans if s["name"] == "chaos.sweep_bifurcation"}
    lanes = []
    by_pid = {}
    for s in spans:
        if s["parent"] in sweeps:
            by_pid.setdefault(s["pid"], []).append(s)
    for children in by_pid.values():
        children.sort(key=lambda s: s["start"])
        for s in children:
            if s["name"] == "solver.integrate":
                lanes.append([s["start"], s["end"]])
            elif lanes:
                lanes[-1][1] = s["end"]
    return [end - start for start, end in lanes]


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name, args):
    from spans import Tracer, install
    from workloads import WORKLOADS

    setup_s, import_s = measure_setup(name, args.seed)
    run_dir = OUT / f"{name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](args.seed, run_dir)
        tracer = None
        if args.trace:
            tracer = Tracer(run_dir)
            install(tracer)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            if tracer:
                with tracer.span("bench.round"):
                    rounds.append(workload.run_round())
            else:
                rounds.append(workload.run_round())
        problems = workload.check(rounds[0].outputs)
        problems += [f"round {i} differs from round 1" for i, r in enumerate(rounds[1:], 2)
                     if not workload.same(rounds[0].outputs, r.outputs)]
        if tracer:
            extras = workload.trace_extras()
            extras["cli.import_s"] = import_s
            spans = tracer.all_spans()
            tracer.uninstall()
            metrics = layer_metrics(spans, rounds, extras, getattr(workload, "workers", 1))
            units = PER_LAYER
            (OUT / f"trace-{name}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(r.wall_s for r in rounds),
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": statistics.median(r.ops_per_s for r in rounds),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "rounds": len(rounds),
        "round_s": statistics.median(r.wall_s for r in rounds),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fjerk" / "__init__.py").is_file():
        print(f"bench: the fjerk sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import fjerk
    if Path(fjerk.__file__).resolve().parent != SRC / "fjerk":
        print(f"bench: imported fjerk from {fjerk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args)
        print(f"{name}: {res.pop('rounds')} rounds of median {res.pop('round_s'):.6g} s, "
              f"attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}")
        for k, m in res["metrics"].items():
            print(f"{name}: {k} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        res = results[names[0]]
    else:
        res = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
