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
from .errors import ConfigError, NotPhaseType, PoolRuinError
from .model import is_drift_model, require_killing


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


def _require_beta(args, model, default_beta, horizon=None):
    """The run's killing rate, checked before any route: one message for all."""
    beta = args.beta if args.beta is not None else default_beta
    if beta is None:
        raise ConfigError("no killing rate: set beta in the config or pass --beta")
    if horizon is None:
        require_killing(model, beta, "the running maximum")
    return beta


def _write_table(args, rows) -> int:
    """Write the CSV ``rows`` to ``--out`` or stdout.  Every row is built
    and checked before this is called, so a failed run writes nothing and
    leaves an existing ``--out`` file as it was."""
    if not args.out:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return 0
    with open(args.out, "w", newline="") as out:
        csv.writer(out, lineterminator="\n").writerows(rows)
    return 0


def _require_nonincreasing(name, alphas, values):
    """A transform E exp(-alpha M) cannot rise with alpha: a column that
    does by more than ``ladder.PROB_TOL`` is a numerical failure."""
    pairs = sorted(zip(alphas, values))
    for (a0, v0), (a1, v1) in zip(pairs, pairs[1:]):
        if v1 > v0 + ladder.PROB_TOL:
            raise PoolRuinError(
                f"{name} rises with alpha: {v0!r} at alpha = {a0!r}, "
                f"{v1!r} at alpha = {a1!r}"
            )


def cmd_transform(args) -> int:
    model, default_beta = load_model(args.config)
    beta = _require_beta(args, model, default_beta)
    alphas = _grid(args.alpha_grid, "alpha")
    engine = ladder.engine(model, beta, model.m)
    # every row is computed and checked before any is printed
    pis = [ladder.checked_transform(engine.value(a), a) for a in alphas]
    _require_nonincreasing("pi_ladder", alphas, pis)
    pos = None
    if is_drift_model(model):
        table = overshoot.OvershootTable(model, beta)
        pos = [ladder.checked_transform(table.pi_via_ladders(a), a) for a in alphas]
        _require_nonincreasing("pi_overshoot", alphas, pos)
    rows = [["alpha", "pi_ladder", "pi_overshoot", "abs_diff"]]
    for i, (a, pi) in enumerate(zip(alphas, pis)):
        if pos is None:
            rows.append([_fmt(a), _fmt(pi), "", ""])
        else:
            rows.append([_fmt(a), _fmt(pi), _fmt(pos[i]), _fmt(abs(pi - pos[i]))])
    return _write_table(args, rows)


def _ph_tail_column(model, beta, u_values):
    if model.m == 0 or not is_drift_model(model):
        return None
    try:
        ph = phase_type.running_max_ph(model, beta, model.m)
    except NotPhaseType:  # a law without a phase-type form, or too many phases
        return None
    return [phase_type.ph_tail(ph, u) for u in u_values]


def _asymptote_column(model, beta, u_values):
    try:
        return [heavy_tail.rv_tail_approx(model, beta, u) for u in u_values]
    except (PoolRuinError, ValueError):
        return None


def cmd_curves(args) -> int:
    model, default_beta = load_model(args.config)
    if args.mode == "moments":
        t_values = _grid(args.t_grid, "t")
        means, variances = inversion.moment_curves(model, t_values)
        rows = [["t", "mean", "var"]]
        for t, mean, var in zip(t_values, means, variances):
            if not (math.isfinite(mean) and math.isfinite(var)):
                raise PoolRuinError(f"moments ({mean!r}, {var!r}) at t = {t!r}")
            rows.append([_fmt(t), _fmt(mean), _fmt(var)])
    else:
        beta = _require_beta(args, model, default_beta)
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
        rows = [
            ["u", "p_inverted", "p_exact_ph", "p_asymptote", "p_montecarlo", "mc_stderr"]
        ]
        for i, u in enumerate(u_values):
            freq, se = mc.ruin[float(u)] if mc is not None else (None, None)
            rows.append(
                [
                    _fmt(u),
                    _fmt(inverted[i]),
                    _fmt(ph_col[i] if ph_col else None),
                    _fmt(asym_col[i] if asym_col else None),
                    _fmt(freq),
                    _fmt(se),
                ]
            )
    return _write_table(args, rows)


def _finite_or_null(node, name: str, not_finite: list):
    """``node`` with every non-finite float replaced by None, which JSON
    writes as null; (dotted name, value) of each goes to ``not_finite``."""
    if isinstance(node, dict):
        return {
            k: _finite_or_null(v, f"{name}.{k}" if name else k, not_finite)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_finite_or_null(v, f"{name}[{i}]", not_finite) for i, v in enumerate(node)]
    if isinstance(node, float) and not math.isfinite(node):
        not_finite.append((name, float(node)))
        return None
    return node


def cmd_simulate(args) -> int:
    model, default_beta = load_model(args.config)
    beta = _require_beta(args, model, default_beta, args.horizon)
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
    not_finite = []
    doc = _finite_or_null(doc, "", not_finite)
    for name, value in not_finite:
        print(f"warning: {name} is {value!r}, written as null", file=sys.stderr)
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
