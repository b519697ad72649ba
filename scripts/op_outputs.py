#!/usr/bin/env python3
"""Record every output a change must keep, or compare two such records.

Writes one JSON object: the ``repr`` of every op output of the four
benchmark workloads at one seed (from ``perfbench/workloads.py``, imported
read-only), the ``deep_pool`` points ``pi_max(deep_model(kind, m, shape),
1, m, 1)`` at m in {30, 60, 100, 400}, and the exit code and stdout md5 of CLI
``transform``, ``curves --mode moments``, ``curves --mode ruin`` and
``simulate`` (fixed seed and path count) on every bundled config, each but
the moments also at ``--beta 0``, and of ``curves --mode moments`` on fig2
and fig3 over the time grid of ``scripts/make_figure_tables.py`` and over a
grid that repeats a time, where Stehfest nodes recur.  The ``--beta 0``
runs are those the killing-rate rule (``poolruin.model.require_killing``)
gates.  Four models held here cover what no bundled config has:
``NONDECREASING`` (a subordinator and a flat state between ladder levels),
``EXP_DIFFUSION`` (diffusion with exponential jumps in every state, whose
killed-maximum factors have two poles), ``BROWNIAN_ALONE`` (no clients
and a Brownian state 0) and ``SMALL_RATES`` (arrival and killing rates near
1e-9, where the ladder rates of Exp and Erlang jump regimes are too).  Each
adds ``pi_max`` at plain points and at points within the windows of its
removable points, ``pi_jet``, and the CLI commands listed with it in
``HELD``.  The ``trace`` group holds the ``repr`` of the per-path results of
``simulate_trace`` on fig4 and on the ``cp`` model of ``mc_models`` (300
paths at the record's seed, levels (-1, 0, 1, 1, 5): one below zero and
one repeated).  The ``simulate`` group holds the whole ``SimulationSummary``
of ``simulate_paths`` (moments and their standard errors, ruin, overshoot
means, client counts at ruin, transforms and claim-count frequencies, every
array written out in full) on each ``mc_oracle`` model at 1 and 2 workers,
and on its ``cp`` model at a fixed horizon: 20,000 paths (two blocks, the
second partial) at the record's seed, the same levels and two alphas.
The ``overshoot`` group holds the overshoot route's own values on fig2,
fig4, fig5 and m1_hand, each at its own beta and at beta = 0: the whole
zeta matrix at each of ``OVERSHOOT_ALPHAS`` and at the first level rate,
``survive_zero`` at every n, and ``xi(n, k, alpha, gamma)`` for every
(n, k) at gammas inside the level-rate windows (each level rate, and 1 +
``WINDOW`` / 2 times it), which the battery's single ``pi`` column hides.
The ``phase_type`` group holds the exact law of ``running_max_ph`` on the
same models and betas, each (config, beta) on one model object: its
``delta`` and its ``S`` (flattened by row) as tuples, its ``delta_abs``,
``ph_lst`` at each of ``OVERSHOOT_ALPHAS``, ``ph_tail`` at each of
``PH_TAIL_U``, ``ph_density`` at each of ``PH_TAIL_U`` and each field of
its ``spectral_tail`` (``mu``, ``mult``, ``coeff`` and the Laurent
coefficients ``laurent``); a refused law (fig5's Lomax claims) is recorded
as the error it raised.  It also holds every evaluator of the module on
three laws held here (``held_laws``): the point mass at zero, a law with
phases it never enters, and a convolution with an atom.  The ``killed_max``
group holds the killed-maximum factor itself on one regime of each kind
(``KILLED_MAX_REGIMES``), and the atom of every bundled config's and held
model's engine (:func:`killed_max_outputs`).

Usage, from the repository root:

    python scripts/op_outputs.py --seed 301 --out before.json
    python scripts/op_outputs.py --seed 301 --out after.json --root OTHER_CHECKOUT
    python scripts/op_outputs.py --compare before.json after.json

``--root`` takes the package and the workloads from another checkout (by
default the one holding this script).  ``--compare`` prints every entry
that differs, with both values and, for float outputs, the largest
relative difference; then one summary line per group (each workload,
``deep``, each held model, ``trace``, ``simulate``, ``overshoot``,
``phase_type``, ``killed_max`` and ``cli``): the entries moved, of the group's total, and the worst relative
move with its key.  Each group holding
transform rows (``transform_battery``, whose rows hold ``pi_max``, the two
overshoot routes and the phase-type transform where there is one, and
``cli``, whose ``transform`` runs the record keeps parsed under
``cli_transform``) then gets one route-agreement line: the worst relative
gap of the overshoot routes to ``pi_max`` and to the phase-type transform,
before and after, so a change that moves values shows which way they
moved.  It exits 1 when any entry differs, and 141, printing nothing more,
when the reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("figure_curves", "deep_pool", "transform_battery", "mc_oracle")
# groups whose transform rows get a route-agreement line
TRANSFORM_GROUPS = ("transform_battery", "cli")
DEEP_POINT_M = (30, 60, 100, 400)
SIMULATE = ("simulate", "--paths", "4000", "--seed", "7")
CLI_COMMANDS = (
    ("transform",),
    ("transform", "--beta", "0"),
    ("curves", "--mode", "moments"),
    ("curves", "--mode", "ruin"),
    ("curves", "--mode", "ruin", "--beta", "0"),
    SIMULATE,
    (*SIMULATE, "--beta", "0"),
)
FIGURE_T_GRID = ",".join(str(x / 2) for x in range(1, 41))  # as make_figure_tables.py
CLI_MOMENT_GRIDS = tuple(
    (config, ("curves", "--mode", "moments", "--t-grid", grid))
    for config in ("fig2", "fig3")
    for grid in (FIGURE_T_GRID, "1,2,1")
)
# subordinator (state 1) and flat (state 3) levels between ladder levels
NONDECREASING = {
    "m": 4,
    "lambda_circ": [1.0, 2.0, 0.5, 1.5],
    "beta": 0.8,
    "claims": [
        {"exp": {"mu": 0.8}},
        {"erlang": {"k": 2, "mu": 1.5}},
        {"exp": {"mu": 1.2}},
        {"exp": {"mu": 2.0}},
    ],
    "regimes": [
        {"bm": {"r": 0.5, "sigma2": 1.0}},
        {"sub": {"r": -0.5, "rate": 0.5, "jump": {"exp": {"mu": 2.0}}}},
        {"cp": {"r": 1.5, "sigma2": 0.3, "rate": 1.0, "jump": {"exp": {"mu": 2.0}}}},
        {"drift": {"r": 0.0}},
        {"bm": {"r": 1.0, "sigma2": 0.5}},
    ],
}
# diffusion with exponential jumps: the cubic branch of the product form,
# at the base and on both levels
EXP_DIFFUSION = {
    "m": 2,
    "lambda_circ": [1.0, 1.5],
    "beta": 0.7,
    "claims": [{"exp": {"mu": 1.0}}, {"erlang": {"k": 2, "mu": 2.0}}],
    "regimes": [
        {"cp": {"r": -0.5, "sigma2": 0.4, "rate": 0.8, "jump": {"exp": {"mu": 1.5}}}},
        {"cp": {"r": 1.0, "sigma2": 0.3, "rate": 1.0, "jump": {"exp": {"mu": 2.0}}}},
        {"cp": {"r": 2.0, "sigma2": 0.5, "rate": 0.5, "jump": {"exp": {"mu": 3.0}}}},
    ],
}
# no clients: the ruin curve is the Brownian maximum's, e^{-(1 + sqrt 3) u}
BROWNIAN_ALONE = {
    "m": 0,
    "lambda_circ": [],
    "beta": 1.0,
    "claims": [],
    "regimes": [{"bm": {"r": 1.0, "sigma2": 1.0}}],
}
# rates near 1e-9: ladder rates far below the jump laws' scales, where a
# residual phi(a) - lam with 1 - C(a) as a difference cancels
SMALL_RATES = {
    "m": 2,
    "lambda_circ": [2e-9, 1e-9],
    "beta": 1e-9,
    "claims": [{"exp": {"mu": 1.0}}, {"erlang": {"k": 3, "mu": 2.0}}],
    "regimes": [
        {"cp": {"r": 1.5, "sigma2": 0.0, "rate": 0.8, "jump": {"exp": {"mu": 2.0}}}},
        {"cp": {"r": 2.0, "sigma2": 0.5, "rate": 1.0, "jump": {"erlang": {"k": 3, "mu": 2.0}}}},
        {"cp": {"r": 1.0, "sigma2": 0.0, "rate": 0.5, "jump": {"exp": {"mu": 1.5}}}},
    ],
}
TRACE_PATHS = 300
TRACE_LEVELS = (-1.0, 0.0, 1.0, 1.0, 5.0)
SIM_PATHS = 20_000
SIM_ALPHAS = (0.5, 2.0)
SIM_HORIZON_T = 2.0
OVERSHOOT_CONFIGS = ("fig2", "fig4", "fig5", "m1_hand")
OVERSHOOT_ALPHAS = (0.0, 0.5, 1.0, 4.0)
XI_ALPHAS = (0.0, 1.0)
PH_TAIL_U = (1.0, 5.0, 20.0)
# complex arguments of the held laws' transforms, two with Re z < 0
PH_NODES = (1.0 + 2.0j, -1.0 + 2.0j, -0.5 - 0.5j, 3.0 + 0.0j)
# one regime of each kind, each at two rates, for the killed_max group
KILLED_MAX_REGIMES = {
    "flat": {"drift": {"r": 0.0}},
    "sub_exp": {"sub": {"r": -0.5, "rate": 0.5, "jump": {"exp": {"mu": 2.0}}}},
    "bm": {"bm": {"r": 1.0, "sigma2": 0.5}},
    "cp_exp": {"cp": {"r": 1.5, "rate": 0.8, "jump": {"exp": {"mu": 2.0}}}},
    "cp_exp_bm": {"cp": {"r": 1.0, "sigma2": 0.3, "rate": 1.0, "jump": {"exp": {"mu": 2.0}}}},
    "cp_erlang": {"cp": {"r": 1.2, "rate": 0.7, "jump": {"erlang": {"k": 2, "mu": 3.0}}}},
    "cp_ph": {
        "cp": {
            "r": 2.0,
            "rate": 0.9,
            "jump": {"ph": {"delta": [0.4, 0.6], "S": [[-2.0, 1.0], [0.0, -3.0]]}},
        }
    },
    "cp_point": {"cp": {"r": 1.0, "sigma2": 0.2, "rate": 0.6, "jump": {"point": {"b": 0.7}}}},
}
KILLED_MAX_LAMS = (0.7, 2.0)
KILLED_MAX_X = (0.0, 0.3, 2.5)
# the complex circle |z - 0.8| = 0.5, at eight nodes
KILLED_MAX_CIRCLE = (0.8, 0.5, 8)
MODEL_COMMANDS = (("transform",), ("curves", "--mode", "moments"))
# name -> (config, CLI commands)
HELD = {
    "nondecreasing": (NONDECREASING, MODEL_COMMANDS),
    "exp_diffusion": (EXP_DIFFUSION, MODEL_COMMANDS),
    "brownian_alone": (
        BROWNIAN_ALONE,
        (("transform",), ("curves", "--mode", "ruin", "--u-grid", "0.5,1")),
    ),
    "small_rates": (SMALL_RATES, MODEL_COMMANDS),
}


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


def held_points() -> dict:
    """``pi_max`` of each ``HELD`` model at plain points and at psi of each
    level and of the base and 1.2 times it, each within a window (but the
    base's psi where its killed-maximum factor has a product form), and
    ``pi_jet`` at every n.  A point at a rate is keyed by the regime's state
    and its value holds the rate, so a rate that moves shows as a relative
    difference, not as a renamed entry."""
    from poolruin import ladder
    from poolruin.config import parse_model
    from poolruin.model import inverse_exponent

    out = {}
    for name, (config, _) in HELD.items():
        mdl, beta = parse_model(config)
        rates = {
            k: inverse_exponent(reg, beta + (mdl.rate_for_state(k) if k else 0.0))
            for k, reg in enumerate(mdl.regimes)
            if not reg.nondecreasing
        }
        for n in range(mdl.m + 1):
            for x in (0.0, 0.3, 2.5, 7.0):
                value = ladder.pi_max(mdl, beta, n, x)
                out[f"{name}/pi_max.n{n}.{x!r}"] = repr(value)
            for k, psi in rates.items():
                for label, x in ((f"psi{k}", psi), (f"1.2psi{k}", 1.2 * psi)):
                    value = ladder.pi_max(mdl, beta, n, x)
                    out[f"{name}/pi_max.n{n}.{label}"] = repr((x, value))
            jet = ladder.pi_jet(mdl, beta, n)
            out[f"{name}/pi_jet.n{n}"] = repr((jet.v, jet.d1, jet.d2))
    return out


def trace_outputs(root: Path, seed: int) -> dict:
    from poolruin.config import load_model
    from poolruin.simulate import simulate_trace
    from workloads import mc_models

    models = {
        "fig4": load_model(root / "configs" / "fig4.json"),
        "cp": mc_models(seed)["cp"],
    }
    out = {}
    for name, (mdl, beta) in models.items():
        paths = simulate_trace(mdl, beta, TRACE_LEVELS, n_paths=TRACE_PATHS, seed=seed)
        out[f"trace/{name}"] = repr(paths)
    return out


def _summary_repr(summary) -> str:
    """The ``repr`` of every field of a ``SimulationSummary``, its arrays as
    lists: numpy's own ``repr`` rounds them to eight digits."""
    import numpy as np

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    fields = dataclasses.fields(summary)
    return repr({f.name: plain(getattr(summary, f.name)) for f in fields})


def simulate_outputs(root: Path, seed: int) -> dict:
    from poolruin.config import load_model
    from poolruin.simulate import simulate_paths
    from workloads import MC_MODELS, mc_models

    models = mc_models(seed)
    for name in MC_MODELS:
        if name not in models:
            models[name] = load_model(root / "configs" / f"{name}.json")
    kw = dict(n_paths=SIM_PATHS, seed=seed, alphas=SIM_ALPHAS)
    out = {}
    for name in MC_MODELS:
        mdl, beta = models[name]
        for w in (1, 2):
            s = simulate_paths(mdl, beta, TRACE_LEVELS, n_workers=w, **kw)
            out[f"simulate/{name}.w{w}"] = _summary_repr(s)
    mdl, beta = models["cp"]
    s = simulate_paths(mdl, beta, TRACE_LEVELS, horizon_t=SIM_HORIZON_T, **kw)
    out["simulate/cp.horizon"] = _summary_repr(s)
    return out


def _value_repr(fn) -> str:
    """The ``repr`` of ``fn()``, or of the error it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # a refused pair is an output too
        return f"raised {type(exc).__name__}: {exc}"


def overshoot_outputs(root: Path) -> dict:
    """Zeta matrices (flattened by row), survival at level zero and xi at
    windowed gammas on each ``OVERSHOOT_CONFIGS`` model, each (config,
    beta) on one model object, as the CLI keeps it."""
    from poolruin.config import load_model
    from poolruin.overshoot import OvershootTable
    from poolruin.seriesops import WINDOW

    out = {}
    for name in OVERSHOOT_CONFIGS:
        mdl, own = load_model(root / "configs" / f"{name}.json")
        m = mdl.m
        for beta in dict.fromkeys((own, 0.0)):
            key = f"overshoot/{name}.b{beta!r}"
            try:
                table = OvershootTable(mdl, beta)
            except Exception as exc:
                out[key] = f"raised {type(exc).__name__}: {exc}"
                continue
            rates = [table.nu(n) for n in range(1, m + 1)]
            for alpha in (*OVERSHOOT_ALPHAS, rates[0]):
                out[f"{key}/zeta.a{alpha!r}"] = _value_repr(
                    lambda: tuple(table.zeta(n, k, alpha) for n in range(1, m + 1) for k in range(n))
                )
            out[f"{key}/survive_zero"] = _value_repr(
                lambda: tuple(table.survive_zero(n) for n in range(m + 1))
            )
            gammas = [g for nu in rates[1:] for g in (nu, nu * (1.0 + WINDOW / 2))]
            for alpha in XI_ALPHAS:
                for gamma in gammas:
                    out[f"{key}/xi.a{alpha!r}.g{gamma!r}"] = _value_repr(
                        lambda: tuple(
                            table.xi(n, k, alpha, gamma)
                            for n in range(1, m + 1)
                            for k in range(n)
                        )
                    )
    return out


def held_laws() -> dict:
    """Laws the running-maximum builds do not reach: the point mass at zero
    (no phase), a law whose slowest phase is never entered (its tail is
    e^{-2u}), and an Erlang(2, 1) law convolved with one that has an atom."""
    from poolruin.claims import Erlang
    from poolruin.phase_type import PhaseType, ph_convolve, point_mass_zero

    S = [[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.3, -1.5]]
    atom = PhaseType(delta=[0.6], S=[[-1.5]], delta_abs=0.4)
    return {
        "point_mass": point_mass_zero(),
        "unreached": PhaseType(delta=[0.0, 1.0, 0.0], S=S),
        "convolved": ph_convolve(Erlang(2, 1.0).phase_type(), atom),
    }


def held_law_outputs(key: str, law) -> dict:
    """Every evaluator of :mod:`poolruin.phase_type` on one held law."""
    import numpy as np

    from poolruin import phase_type as pt

    nodes = np.array(PH_NODES)
    out = {
        f"{key}/delta": repr(tuple(law.delta.tolist())),
        f"{key}/S": repr(tuple(law.S.ravel().tolist())),
        f"{key}/delta_abs": repr(law.delta_abs),
        f"{key}/lst_complex": _value_repr(lambda: tuple(pt.ph_lst_complex(law, nodes).tolist())),
        f"{key}/lst_complement_complex": _value_repr(
            lambda: tuple(pt.ph_lst_complement_complex(law, nodes).tolist())
        ),
        f"{key}/abscissa": _value_repr(lambda: pt.ph_abscissa(law)),
        f"{key}/lst_series": _value_repr(lambda: pt.ph_lst_series(law, 0.5, 3).c),
        f"{key}/mean": _value_repr(lambda: pt.ph_mean(law)),
        f"{key}/second_moment": _value_repr(lambda: pt.ph_second_moment(law)),
        f"{key}/sample": _value_repr(
            lambda: tuple(pt.ph_sample(law, np.random.default_rng(7), 5).tolist())
        ),
    }
    for alpha in OVERSHOOT_ALPHAS:
        out[f"{key}/lst.a{alpha!r}"] = _value_repr(lambda: pt.ph_lst(law, alpha))
        out[f"{key}/lst_complement.a{alpha!r}"] = _value_repr(
            lambda: pt.ph_lst_complement(law, alpha)
        )
    for u in (0.0, *PH_TAIL_U):
        out[f"{key}/tail.u{u!r}"] = _value_repr(lambda: pt.ph_tail(law, u))
        out[f"{key}/density.u{u!r}"] = _value_repr(lambda: pt.ph_density(law, u))
    for field in ("mu", "mult", "coeff", "laurent"):
        out[f"{key}/spectral_tail.{field}"] = _value_repr(
            lambda: getattr(pt.spectral_tail(law), field)
        )
    return out


def phase_type_outputs(root: Path) -> dict:
    """The exact phase-type law of the running maximum on each
    ``OVERSHOOT_CONFIGS`` model, its transform, its tail, its density and
    its dominant tail term, each (config, beta) on one model object; and
    every evaluator on each of :func:`held_laws`."""
    from poolruin.config import load_model
    from poolruin.phase_type import ph_density, ph_lst, ph_tail, running_max_ph, spectral_tail

    out = {}
    for name in OVERSHOOT_CONFIGS:
        mdl, own = load_model(root / "configs" / f"{name}.json")
        for beta in dict.fromkeys((own, 0.0)):
            key = f"phase_type/{name}.b{beta!r}"
            try:
                law = running_max_ph(mdl, beta, mdl.m)
            except Exception as exc:
                out[key] = f"raised {type(exc).__name__}: {exc}"
                continue
            out[f"{key}/delta"] = repr(tuple(law.delta.tolist()))
            out[f"{key}/S"] = repr(tuple(law.S.ravel().tolist()))
            out[f"{key}/delta_abs"] = repr(law.delta_abs)
            for alpha in OVERSHOOT_ALPHAS:
                out[f"{key}/lst.a{alpha!r}"] = _value_repr(lambda: ph_lst(law, alpha))
            for u in PH_TAIL_U:
                out[f"{key}/tail.u{u!r}"] = _value_repr(lambda: ph_tail(law, u))
                out[f"{key}/density.u{u!r}"] = _value_repr(lambda: ph_density(law, u))
            for field in ("mu", "mult", "coeff", "laurent"):
                out[f"{key}/spectral_tail.{field}"] = _value_repr(
                    lambda: getattr(spectral_tail(law), field)
                )
    for name, law in held_laws().items():
        out.update(held_law_outputs(f"phase_type/held.{name}", law))
    return out


def killed_max_outputs(root: Path) -> dict:
    """The killed-maximum factor of each ``KILLED_MAX_REGIMES`` regime at
    each of ``KILLED_MAX_LAMS``: ``killed_max`` at ``KILLED_MAX_X``, at
    1.2 psi (within the window of its removable point) and on the circle
    ``KILLED_MAX_CIRCLE``; ``killed_max_series`` of order 2 at zero and at
    2 psi (1 where there is no psi), outside the window; and the atom and
    the values at 0.3, psi and 1.2 psi of the engine of the regime alone (no
    clients, killed at the rate).  Then the atom of the engine of every
    bundled config and held model, at its own beta and at zero where the
    model admits it.  Each value is recorded with its point, (x, value), so
    a psi that moves shows as a relative difference, as in
    :func:`held_points`; a series as (x, *coefficients)."""
    import numpy as np

    from poolruin import ladder
    from poolruin.config import load_model, parse_model, parse_regime
    from poolruin.model import (
        ModelSpec,
        inverse_exponent,
        is_drift_model,
        killed_max,
        killed_max_series,
    )

    centre, radius, count = KILLED_MAX_CIRCLE
    circle = centre + radius * np.exp(2j * np.pi * np.arange(count) / count)
    out = {}
    for name, node in KILLED_MAX_REGIMES.items():
        reg = parse_regime(node, name)
        alone = ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(reg,))
        for lam in KILLED_MAX_LAMS:
            key = f"killed_max/{name}.l{lam!r}"
            psi = None if reg.nondecreasing else inverse_exponent(reg, lam)
            windowed = [] if psi is None else [("1.2psi", 1.2 * psi)]
            at_psi = [] if psi is None else [("psi", psi)]
            for label, x in [(repr(x), x) for x in KILLED_MAX_X] + windowed:
                out[f"{key}/real.{label}"] = _value_repr(lambda: (x, killed_max(reg, x, lam)))
            out[f"{key}/circle"] = _value_repr(
                lambda: tuple(killed_max(reg, circle, lam).tolist())
            )
            for label, x in (("0.0", 0.0), ("far", 1.0 if psi is None else 2.0 * psi)):
                out[f"{key}/series.{label}"] = _value_repr(
                    lambda: (x, *killed_max_series(reg, x, lam, 2).c)
                )
            eng = ladder.engine(alone, lam, 0)
            out[f"{key}/engine.atom"] = _value_repr(eng.atom)
            for label, x in [("0.3", 0.3), *at_psi, *windowed]:
                out[f"{key}/engine.{label}"] = _value_repr(lambda: (x, eng.value(x)))
    held = {name: parse_model(config) for name, (config, _) in HELD.items()}
    configs = {path.stem: load_model(path) for path in sorted((root / "configs").glob("*.json"))}
    for name, (mdl, own) in {**configs, **held}.items():
        for beta in dict.fromkeys((own, 0.0) if is_drift_model(mdl) else (own,)):
            out[f"killed_max/atom.{name}.b{beta!r}"] = _value_repr(
                lambda: ladder.engine(mdl, beta, mdl.m).atom()
            )
    return out


def _transform_rows(stdout: bytes) -> list:
    """(pi_ladder, abs_diff) of each row of ``poolruin transform`` output
    that has an overshoot column."""
    lines = stdout.decode().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    return [(float(r[1]), float(r[3])) for r in rows if len(r) == 4 and r[3]]


def cli_outputs(root: Path, scratch: Path) -> tuple:
    """The CLI entries, and the parsed rows of each ``transform`` run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    configs = sorted((root / "configs").glob("*.json"))
    runs = [(config, command) for config in configs for command in CLI_COMMANDS]
    runs += [(root / "configs" / f"{name}.json", cmd) for name, cmd in CLI_MOMENT_GRIDS]
    for name, (config, commands) in HELD.items():
        held = scratch / f"{name}.json"
        held.write_text(json.dumps(config))
        runs += [(held, command) for command in commands]
    out, rows = {}, {}
    for config, command in runs:
        argv = [sys.executable, "-m", "poolruin.cli", *command, "--config", str(config)]
        done = subprocess.run(argv, capture_output=True, env=env, cwd=root)
        key = f"cli/{' '.join(command)} {config.stem}"
        out[key] = f"exit {done.returncode} md5 {hashlib.md5(done.stdout).hexdigest()}"
        if command[0] == "transform" and done.returncode == 0:
            rows[key] = _transform_rows(done.stdout)
    return out, rows


def record(root: Path, seed: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import poolruin

    if root / "src" not in Path(poolruin.__file__).resolve().parents:
        raise SystemExit(f"error: poolruin imported from {poolruin.__file__}")
    warnings.simplefilter("ignore")
    outputs = workload_outputs(root, seed)
    outputs.update(deep_points())
    outputs.update(held_points())
    outputs.update(trace_outputs(root, seed))
    outputs.update(simulate_outputs(root, seed))
    outputs.update(overshoot_outputs(root))
    outputs.update(phase_type_outputs(root))
    outputs.update(killed_max_outputs(root))
    with tempfile.TemporaryDirectory() as scratch:
        cli, rows = cli_outputs(root, Path(scratch))
    outputs.update(cli)
    return {"seed": seed, "outputs": outputs, "cli_transform": rows}


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


def _rel_diff(a: str, b: str):
    """The largest relative difference of two float outputs (NaN when one
    is not finite), or None when they are not both floats of one shape."""
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None or len(fa) != len(fb):
        return None
    worst = max(
        (abs(x - y) / abs(x) if x != 0.0 else abs(y) for x, y in zip(fa, fb)),
        default=0.0,
    )
    return worst if math.isfinite(worst) else math.nan


def _severity(move: tuple) -> tuple:
    """Order of moved entries (relative difference or None, key): an
    entry that is not a float output below every float one, NaN above."""
    rel = move[0]
    if rel is None:
        return (0, 0.0)
    return (2, 0.0) if math.isnan(rel) else (1, rel)


def _group_line(group: str, total: int, moves: list) -> str:
    """One group's summary; ``moves`` holds (relative difference or None,
    key) per moved entry."""
    line = f"{group}: {len(moves)} of {total} moved"
    if not moves:
        return line
    rel, key = max(moves, key=_severity)
    worst = "not numeric" if rel is None else f"{rel:.2g}"
    return f"{line}, worst rel {worst} at {key}"


def _gap(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def _route_gaps(record: dict, group: str):
    """The worst relative gaps (gap, key) of the overshoot routes to
    ``pi_max`` and to the phase-type transform over ``group``'s transform
    rows, None where it has no such row."""
    worst = {"pi_max": None, "phase type": None}

    def note(route, gap, key):
        if worst[route] is None or gap > worst[route][0]:
            worst[route] = (gap, key)

    if group == "cli":
        for key, rows in record.get("cli_transform", {}).items():
            for pi, diff in rows:  # diff = |pi_overshoot - pi_ladder|
                note("pi_max", diff / abs(pi) if pi != 0.0 else diff, key)
    else:
        for key, text in record["outputs"].items():
            row = _floats(text) if key.startswith(f"{group}/") else None
            if row is None or len(row) < 3:
                continue
            pi, overshoot, ph = row[0], row[1:3], row[3:]
            for value in overshoot:
                note("pi_max", _gap(value, pi), key)
                for ref in ph:
                    note("phase type", _gap(value, ref), key)
    return worst


def _route_line(group: str, before, after) -> str:
    parts = []
    for route in ("pi_max", "phase type"):
        if before[route] is None and after[route] is None:
            continue
        shown = [
            "none" if gap is None else f"{gap[0]:.2g} ({gap[1]})"
            for gap in (before[route], after[route])
        ]
        parts.append(f"overshoot to {route} {shown[0]} -> {shown[1]}")
    return f"{group} routes: " + ", ".join(parts)


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["seed"] != b["seed"]:
        print(f"seeds differ: {a['seed']} and {b['seed']}")
        return 1
    oa, ob = a["outputs"], b["outputs"]
    keys = sorted(set(oa) | set(ob))
    groups: dict = {}  # group -> [entries, moves]
    for key in keys:
        tally = groups.setdefault(key.split("/", 1)[0], [0, []])
        tally[0] += 1
        va, vb = oa.get(key, "<missing>"), ob.get(key, "<missing>")
        if va != vb:
            rel = _rel_diff(va, vb)
            tally[1].append((rel, key))
            shown = "" if rel is None else f"  rel {rel:.2g}"
            print(f"{key}\n  {va}\n  {vb}{shown}")
    moved = sum(len(moves) for _, moves in groups.values())
    print(f"{moved} of {len(keys)} outputs differ")
    for group, (total, moves) in groups.items():
        print(_group_line(group, total, moves))
    for group in TRANSFORM_GROUPS:
        before, after = _route_gaps(a, group), _route_gaps(b, group)
        if before["pi_max"] is not None or after["pi_max"] is not None:
            print(_route_line(group, before, after))
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--out", help="file for the JSON record (default: stdout)")
    parser.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            code = compare(*args.compare)
        else:
            rec = record(args.root.resolve(), args.seed)
            text = json.dumps(rec, indent=1, sort_keys=True)
            code = 0
            if args.out:
                Path(args.out).write_text(text + "\n")
            else:
                print(text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): print nothing more, exit as
        # a shell reports a command stopped by SIGPIPE, and keep the
        # interpreter's own flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
