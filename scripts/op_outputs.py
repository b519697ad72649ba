#!/usr/bin/env python3
"""Record every output a change must keep, or compare two such records.

Writes one JSON object: the ``repr`` of every op output of the four
benchmark workloads at one seed (from ``perfbench/workloads.py``, imported
read-only), the ``deep_pool`` points ``pi_max(deep_model(kind, m, shape),
1, m, 1)`` at m in {30, 60, 100}, and the exit code and stdout md5 of CLI
``transform``, ``transform --beta 0``, ``curves --mode moments``, ``curves
--mode ruin`` and ``simulate`` (fixed seed and path count, at the config's
beta and at ``--beta 0``) on every bundled config, and of ``curves --mode
moments`` on fig2 and fig3 over the time grid of
``scripts/make_figure_tables.py`` and over a grid that repeats a time, where
Stehfest nodes recur.  The ``--beta 0`` routes are those the drift-model
predicate gates.

Usage, from the repository root:

    python scripts/op_outputs.py --seed 301 --out before.json
    python scripts/op_outputs.py --seed 301 --out after.json --root OTHER_CHECKOUT
    python scripts/op_outputs.py --compare before.json after.json

``--root`` takes the package and the workloads from another checkout (by
default the one holding this script).  ``--compare`` prints every entry
that differs, with both values and, for float outputs, the largest
relative difference; it exits 1 when any entry differs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("figure_curves", "deep_pool", "transform_battery", "mc_oracle")
DEEP_POINT_M = (30, 60, 100)
SIMULATE = ("simulate", "--paths", "4000", "--seed", "7")
CLI_COMMANDS = (
    ("transform",),
    ("transform", "--beta", "0"),
    ("curves", "--mode", "moments"),
    ("curves", "--mode", "ruin"),
    SIMULATE,
    (*SIMULATE, "--beta", "0"),
)
FIGURE_T_GRID = ",".join(str(x / 2) for x in range(1, 41))  # as make_figure_tables.py
CLI_MOMENT_GRIDS = tuple(
    (config, ("curves", "--mode", "moments", "--t-grid", grid))
    for config in ("fig2", "fig3")
    for grid in (FIGURE_T_GRID, "1,2,1")
)


def workload_outputs(root: Path, seed: int) -> dict:
    from checker import run_op
    from workloads import WORKLOADS

    out = {}
    for name in WORKLOAD_NAMES:
        for op in WORKLOADS[name](root, seed).ops():
            out[f"{name}/{op.name}"] = repr(run_op(op))
    return out


def deep_points() -> dict:
    from poolruin import ladder
    from workloads import DEEP_KINDS, DEEP_SHAPES, deep_model

    out = {}
    for m in DEEP_POINT_M:
        for shape in DEEP_SHAPES:
            for kind in DEEP_KINDS:
                mdl = deep_model(kind, m, shape)
                out[f"deep/{kind}.m{m}.{shape}"] = repr(ladder.pi_max(mdl, 1.0, m, 1.0))
    return out


def cli_outputs(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    configs = sorted((root / "configs").glob("*.json"))
    runs = [(config, command) for config in configs for command in CLI_COMMANDS]
    runs += [(root / "configs" / f"{name}.json", cmd) for name, cmd in CLI_MOMENT_GRIDS]
    out = {}
    for config, command in runs:
        argv = [sys.executable, "-m", "poolruin.cli", *command, "--config", str(config)]
        done = subprocess.run(argv, capture_output=True, env=env, cwd=root)
        key = f"cli/{' '.join(command)} {config.stem}"
        out[key] = f"exit {done.returncode} md5 {hashlib.md5(done.stdout).hexdigest()}"
    return out


def record(root: Path, seed: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import poolruin

    if root / "src" not in Path(poolruin.__file__).resolve().parents:
        raise SystemExit(f"error: poolruin imported from {poolruin.__file__}")
    warnings.simplefilter("ignore")
    outputs = workload_outputs(root, seed)
    outputs.update(deep_points())
    outputs.update(cli_outputs(root))
    return {"seed": seed, "outputs": outputs}


def _floats(text: str):
    """The floats of an output ``repr``, or None if it holds none."""
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None
    if isinstance(value, float):
        return (value,)
    if isinstance(value, tuple) and all(isinstance(v, float) for v in value):
        return value
    return None


def _rel_diff(a: str, b: str) -> str:
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None or len(fa) != len(fb):
        return ""
    worst = max(
        (abs(x - y) / abs(x) if x != 0.0 else abs(y) for x, y in zip(fa, fb)),
        default=0.0,
    )
    return f"  rel {worst:.2g}" if math.isfinite(worst) else "  rel nan"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["seed"] != b["seed"]:
        print(f"seeds differ: {a['seed']} and {b['seed']}")
        return 1
    oa, ob = a["outputs"], b["outputs"]
    moved = 0
    for key in sorted(set(oa) | set(ob)):
        va, vb = oa.get(key, "<missing>"), ob.get(key, "<missing>")
        if va != vb:
            moved += 1
            print(f"{key}\n  {va}\n  {vb}{_rel_diff(va, vb)}")
    print(f"{moved} of {len(set(oa) | set(ob))} outputs differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--out", help="file for the JSON record (default: stdout)")
    parser.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    text = json.dumps(record(args.root.resolve(), args.seed), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
