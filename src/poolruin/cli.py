"""Command-line surface.

Three subcommands reproduce the package's computations as CSV or JSON
tables: ``transform`` tabulates the running-maximum transform on an alpha
grid through the ladder and (in the drift model) the overshoot route side
by side; ``curves`` emits either moment curves over time or ruin-probability
curves over the reserve with every applicable route in its own column;
``simulate`` runs the Monte Carlo engine and prints a JSON summary.

Every command is deterministic given (config, flags, seed).  Exit codes:
0 success, 2 configuration error, 3 numerical failure, and 141 (128 +
SIGPIPE, as a shell reports a command stopped by a closed pipe) when the
reader closes stdout early, as ``| head`` does; that case prints nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import heavy_tail, inversion, ladder, overshoot, phase_type, simulate
from .config import load_model
from .errors import ConfigError, PoolRuinError
from .model import is_drift_model


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _grid(text: str, what: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid {what} grid: {text!r}")
    if not values:
        raise ConfigError(f"empty {what} grid")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"non-finite value in {what} grid: {text!r}")
    return values


def _require_beta(args, default_beta):
    beta = args.beta if args.beta is not None else default_beta
    if beta is None:
        raise ConfigError("no killing rate: set beta in the config or pass --beta")
    if not math.isfinite(beta):
        raise ConfigError(f"beta must be finite, got {beta}")
    return beta


def _open_out(args):
    return open(args.out, "w", newline="") if args.out else sys.stdout


def cmd_transform(args) -> int:
    model, default_beta = load_model(args.config)
    beta = _require_beta(args, default_beta)
    alphas = _grid(args.alpha_grid, "alpha")
    engine = ladder.engine(model, beta, model.m)
    table = overshoot.OvershootTable(model, beta) if is_drift_model(model) else None
    out = _open_out(args)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["alpha", "pi_ladder", "pi_overshoot", "abs_diff"])
    for a in alphas:
        pi = engine.value(a)
        if table is not None:
            po = table.pi_via_ladders(a)
            writer.writerow([_fmt(a), _fmt(pi), _fmt(po), _fmt(abs(pi - po))])
        else:
            writer.writerow([_fmt(a), _fmt(pi), "", ""])
    if out is not sys.stdout:
        out.close()
    return 0


def _ph_tail_column(model, beta, u_values):
    if beta is None or beta <= 0 or not is_drift_model(model):
        return None
    first = model.claims[0] if model.m else None
    if first is None or any(c != first for c in model.claims[1:]):
        return None
    if first.phase_type() is None:
        return None
    ph = phase_type.running_max_ph(model, beta, model.m)
    return [phase_type.ph_tail(ph, u) for u in u_values]


def _asymptote_column(model, beta, u_values):
    try:
        return [heavy_tail.rv_tail_approx(model, beta, u) for u in u_values]
    except (PoolRuinError, ValueError):
        return None


def cmd_curves(args) -> int:
    model, default_beta = load_model(args.config)
    out = _open_out(args)
    writer = csv.writer(out, lineterminator="\n")
    if args.mode == "moments":
        t_values = _grid(args.t_grid, "t")
        means, variances = inversion.moment_curves(model, t_values)
        writer.writerow(["t", "mean", "var"])
        for t, mean, var in zip(t_values, means, variances):
            writer.writerow([_fmt(t), _fmt(mean), _fmt(var)])
    else:
        beta = _require_beta(args, default_beta)
        u_values = _grid(args.u_grid, "u")
        inverted = inversion.ruin_curve(model, beta, u_values)
        ph_col = _ph_tail_column(model, beta, u_values)
        asym_col = _asymptote_column(model, beta, u_values)
        mc = None
        if args.mc_paths:
            mc = simulate.simulate_paths(
                model,
                beta,
                u_queries=u_values,
                n_paths=args.mc_paths,
                seed=args.seed,
                n_workers=args.workers,
            )
        writer.writerow(
            ["u", "p_inverted", "p_exact_ph", "p_asymptote", "p_montecarlo", "mc_stderr"]
        )
        for i, u in enumerate(u_values):
            freq, se = mc.ruin[float(u)] if mc is not None else (None, None)
            writer.writerow(
                [
                    _fmt(u),
                    _fmt(inverted[i]),
                    _fmt(ph_col[i] if ph_col else None),
                    _fmt(asym_col[i] if asym_col else None),
                    _fmt(freq),
                    _fmt(se),
                ]
            )
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_simulate(args) -> int:
    model, default_beta = load_model(args.config)
    beta = _require_beta(args, default_beta)
    summary = simulate.simulate_paths(
        model,
        beta,
        u_queries=args.u or (),
        n_paths=args.paths,
        seed=args.seed,
        alphas=args.alpha or (),
        horizon_t=args.horizon,
        n_workers=args.workers,
    )
    doc = summary.as_dict()
    if model.m > 0 and beta > 0 and args.horizon is None:
        # goodness of fit of the realized claim counts against the exact
        # thinning distribution
        from scipy import stats

        expected = heavy_tail.m_distribution(model, beta) * summary.n_paths
        observed = summary.claims_count_freq * summary.n_paths
        _, pvalue = stats.chisquare(observed, expected)
        doc["estimates"]["claims_count_pvalue"] = float(pvalue)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolruin",
        description="Ruin computations for a finite pool of major clients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="tabulate the running-maximum transform")
    p.add_argument("--config", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--alpha-grid", default="0,0.25,0.5,1,2,4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("curves", help="moment curves in t or ruin curves in u")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["moments", "ruin"], required=True)
    p.add_argument("--t-grid", default="1,2,5,10")
    p.add_argument("--u-grid", default="1,5,10")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mc-paths", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("simulate", help="Monte Carlo estimates as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--alpha", type=float, action="append")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # keep the interpreter's own flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PoolRuinError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
