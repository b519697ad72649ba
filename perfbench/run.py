#!/usr/bin/env python3
"""poolruin benchmark: run one workload, check every op, print the metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload figure_curves --seed 1 --seconds 21 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run records (and, when traced, the spans) go to ``.bench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from gauge import REFERENCE_CHUNK_S, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
# in a workload with repeats > 1, an op reruns in later rounds of a pass
# until it has run this long, in at most ``repeats`` rounds
REPEAT_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
    ("accuracy_ratio", "1"),
)


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from workloads import MC_MODELS, deep_op_names

    spec = []
    for op in ("mul", "div", "root_div", "shift"):
        spec += [(f"seriesops.{op}_calls", "count"), (f"seriesops.{op}_s", "s")]
    spec += [("seriesops.max_order", "count"), ("seriesops.coef_mults", "count")]
    spec += [("ladder.engine_builds", "count"), ("ladder.self_s", "s")]
    spec += [(f"ladder.point_ms.{name}", "ms") for name in deep_op_names()]
    spec += [
        ("claims.lst_series_calls", "count"),
        ("claims.lst_series_s", "s"),
        ("claims.lomax_quad_s", "s"),
        ("model.inverse_exponent_calls", "count"),
        ("model.inverse_exponent_s", "s"),
        ("model.killed_max_series_calls", "count"),
        ("model.killed_max_series_s", "s"),
        ("inversion.curve_points", "count"),
        ("inversion.transforms_per_point", "count"),
        ("inversion.self_s", "s"),
        ("overshoot.pi_via_ladders_s", "s"),
        ("overshoot.pi_explicit_chains_s", "s"),
        ("phase_type.running_max_ph_s", "s"),
        ("phase_type.ph_lst_s", "s"),
    ]
    for name in MC_MODELS:
        spec += [
            (f"simulate.paths_per_s.{name}.w1", "1/s"),
            (f"simulate.paths_per_s.{name}.w2", "1/s"),
            (f"simulate.worker_speedup.{name}", "1"),
        ]
    spec += [("setup.import_s", "s"), ("config.load_model_s", "s"), ("trace.overhead_ratio", "1")]
    return spec


@dataclass
class Pass:
    traced: bool
    seconds: float  # sum over the ops of their median scaled latency in the pass
    work_s: float  # scaled time of every run of every op in the pass
    wall_s: float  # measured, every round and tick included
    outputs: list  # one {op name: output} per round
    latency: dict  # op name -> scaled seconds of each round it ran in
    raw: dict  # op name -> measured seconds of each round it ran in


def measure_setup(config_paths) -> list:
    """Wall time of SETUP_RUNS fresh processes, each paying the set-up of
    one CLI call, with the steps each child timed itself.  Not scaled: see
    perfbench/README.md."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in config_paths]
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        wall = time.perf_counter() - t0
        runs.append({"wall_s": wall, **json.loads(done.stdout.splitlines()[-1])})
    return runs


def run_pass(copies, gauge) -> tuple:
    """Run the op list once; with more than one copy of it, rerun in
    further rounds, on fresh copies of their inputs, the ops that have run
    for less than REPEAT_S so far (at most len(copies) rounds).  Return
    ({op name: output} per round, scaled and raw latencies); the gauge's
    timer ticks through the pass."""
    from checker import run_op

    clock = time.perf_counter
    outputs = [{} for _ in copies]
    spans = {op.name: [] for op in copies[0]}  # [(start, end, measured s)] per round
    pending = list(range(len(copies[0])))
    gauge.start()
    try:
        for rnd, ops in enumerate(copies):
            for i in pending:
                op = ops[i]
                ticked, t0 = gauge.ticked_s, clock()
                outputs[rnd][op.name] = run_op(op)
                t1 = clock()
                spans[op.name].append((t0, t1, t1 - t0 - (gauge.ticked_s - ticked)))
            pending = [i for i in pending if sum(r[2] for r in spans[ops[i].name]) < REPEAT_S]
    finally:
        gauge.stop()
    raw = {name: [r[2] for r in runs] for name, runs in spans.items()}
    scaled = {
        name: [r[2] * gauge.factor(r[0], r[1]) for r in runs] for name, runs in spans.items()
    }
    return outputs, scaled, raw


def run_passes(workload, seconds: float, tracer, gauge) -> tuple:
    """Passes over the op list until the next one would take the run's
    scaled time past ``seconds``; at least one (one untraced and one traced
    when tracing).  Counting scaled time, the number of passes follows the
    program's cost and not the machine's speed."""
    passes = []
    done_s = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # traced passes run each op once, so that counts are per op list
        copies = [workload.ops() for _ in range(1 if traced else workload.repeats)]
        gc.collect()
        if traced:
            tracer.install()
        try:
            t_pass = time.perf_counter()
            outputs, scaled, raw = run_pass(copies, gauge)
            wall = time.perf_counter() - t_pass
        finally:
            if traced:
                tracer.uninstall()
        scaled_s = sum(statistics.median(times) for times in scaled.values())
        work_s = sum(sum(times) for times in scaled.values())
        passes.append(Pass(traced, scaled_s, work_s, wall, outputs, scaled, raw))
        done_s += work_s
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and done_s + work_s > seconds:
            return copies[0], passes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checkout's commit, read from .git without running git (which
    would search parent directories); None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args, seed, passes, ops, gauge) -> dict:
    import poolruin

    untraced = [p for p in passes if not p.traced]

    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "ops_per_pass": len(ops),
        "op_latency_samples": len(ops),
        "setup_runs": SETUP_RUNS,
        "reference_chunk_s": REFERENCE_CHUNK_S,
        "measured_chunk_s_median": statistics.median(gauge.tick_s),
        # the time to solution as measured, before scaling
        "raw_solve_s": sum(
            statistics.median(t for p in untraced for t in p.raw[op.name]) for op in ops
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "poolruin": {"version": poolruin.__version__, "commit": git_commit()},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import poolruin from this checkout's src/, never from elsewhere."""
    if not (SRC / "poolruin" / "__init__.py").is_file():
        raise SystemExit(f"error: no poolruin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poolruin

    if SRC not in Path(poolruin.__file__).resolve().parents:
        raise SystemExit(f"error: poolruin imported from {poolruin.__file__}, not {SRC}")


def main(argv=None) -> int:
    import_package()
    args = parse_args(argv)
    from checker import tally
    from poolruin.inversion import default_plan
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    seed = args.seed % 2**32
    workload = WORKLOADS[args.workload](ROOT, seed)
    setup = measure_setup(workload.config_paths)
    gauge = Gauge()
    default_plan()
    warnings.simplefilter("ignore")
    tracer = Tracer() if args.trace else None
    ops, passes = run_passes(workload, args.seconds, tracer, gauge)

    outputs = [out for p in passes for out in p.outputs if out]
    result = tally(ops, outputs, workload.group_failures(outputs[0]))
    untraced = [p for p in passes if not p.traced]
    # One latency per op: the median of its scaled latencies over its runs
    # in the untraced passes.  One value per op keeps the percentiles on the
    # same samples whatever the pass count, and the median, unlike the best,
    # does not fall as the machine's speed lets more runs fit.
    op_latency = {
        op.name: statistics.median(t for p in untraced for t in p.latency[op.name]) for op in ops
    }
    latencies = list(op_latency.values())
    if args.trace:
        traced = [p for p in passes if p.traced]
        values = {name: 0.0 for name, _ in per_layer_spec()}
        values.update(layer_metrics(tracer.summary(), len(traced)))
        values.update(workload.layer_points(op_latency))
        values["setup.import_s"] = statistics.median(r["import_s"] for r in setup)
        values["config.load_model_s"] = statistics.median(r["load_model_s"] for r in setup)
        values["trace.overhead_ratio"] = statistics.median(
            p.seconds for p in traced
        ) / statistics.median(p.seconds for p in untraced)
        spec = per_layer_spec()
    else:
        values = {
            "setup_s": statistics.median(r["wall_s"] for r in setup),
            "solve_s": sum(latencies),
            "op_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
            "op_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": result.pass_ratio,
            "accuracy_ratio": result.accuracy_ratio,
        }
        spec = END_TO_END
    if set(values) != {name for name, _ in spec}:
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ {n for n, _ in spec})}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}

    ctx = context(args, seed, passes, ops, gauge)
    print(
        f"workload {args.workload}  seed {seed}  passes {len(passes)}"
        f"  ops/pass {len(ops)}  trace {args.trace}"
    )
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(
        f"  fail_ratio {result.failed}/{result.attempted}"
        f"  accuracy_miss_ratio {result.missed}/{result.with_ref}"
    )
    for name, status, detail, known in result.findings:
        tag = "known baseline defect" if status in known else "UNEXPECTED"
        print(f"  {status:4s} {name}: {detail} [{tag}]")
    print("context " + json.dumps(ctx, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {
        "context": ctx,
        "metrics": metrics,
        "setup_runs": setup,
        "passes": [
            {
                "traced": p.traced,
                "scaled_s": p.seconds,
                "work_s": p.work_s,
                "wall_s": p.wall_s,
            }
            for p in passes
        ],
        "op_latency_s": op_latency,
        "tick_chunk_s": gauge.tick_s,
        "findings": result.findings,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.npz")

    print(
        json.dumps(
            {
                "correct": not result.unexpected,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
