"""The four benchmark workloads.

Every workload is a fixed list of ops, run closed loop by one caller.
``ops()`` builds fresh model objects on each call, so every pass starts
with cold per-model caches (the Lomax quadrature cache, the overshoot
tables) exactly as a fresh CLI call does.  References are computed once
per run, outside the timed region.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from poolruin import claims, inversion, ladder, model, overshoot, phase_type, simulate
from poolruin.config import parse_model

from checker import Op, Raised, rel_err

# ---------------------------------------------------------------- figure_curves

T_GRID = tuple(x / 2 for x in range(1, 41))  # as scripts/make_figure_tables.py
RUIN_GRIDS = (
    ("fig4", (1, 2, 3, 4, 5, 6, 8, 10, 12, 15)),
    ("fig5", (5, 10, 20, 40, 70, 100, 150, 200)),
    ("fig2", (1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35, 40)),
)
# Stehfest-14 leaves the 1e-3 band of the exact tail from these reserves on
KNOWN_TAIL_MISS = {"fig4": 8, "fig2": 25}
CURVE_RTOL = 1e-3

# ------------------------------------------------------------------- deep_pool

DEEP_M = (5, 10, 20, 30)
DEEP_SHAPES = ("cluster", "spread")
DEEP_KINDS = ("drift", "bm", "cp")
# NaN (cluster) and OverflowError (spread bm) at m = 30
KNOWN_DEEP_FAIL = {"drift.m30.cluster", "bm.m30.cluster", "cp.m30.cluster", "bm.m30.spread"}
DEEP_RTOL = 1e-12

# ----------------------------------------------------------- transform_battery

ALPHAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
RANDOM_PER_M = 21  # drift models per client count m = 1..6
BUNDLED = ("fig2", "fig3", "fig4", "fig5", "m1_hand")
ROUTE_RTOL = 1e-10
# On a few seed-drawn models per seed the routes disagree beyond 1e-10, and
# pi_max can even leave [0, 1] (seed 4: 4.03 at alpha = 1 for r125)
KNOWN_RANDOM = ("fail", "miss")
M1_EXACT_TOL = 1e-15  # pi(alpha = 1) = 5/6 for m1_hand, to rounding

# ------------------------------------------------------------------- mc_oracle

MC_U = (1.0, 2.0, 5.0, 10.0)
MC_ALPHA = 1.0
MC_PATHS = {"cp": 40_000, "cpbm": 40_000}  # per-path Python loop
MC_PATHS_VECTORISED = 400_000
MC_MODELS = ("fig2", "fig3", "fig4", "fig5", "cp", "cpbm", "sub")
MC_SIGMAS = 4.0


class Workload:
    name = ""
    configs: tuple = ()
    # Most rounds of a pass (see run.py); above 1 only where one pass fills
    # the run, since samples spread over passes are the steadiest.
    repeats = 1

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.config_paths = [root / "configs" / f"{c}.json" for c in self.configs]
        self._docs = {
            c: json.loads(p.read_text()) for c, p in zip(self.configs, self.config_paths)
        }

    def model(self, config: str):
        """A fresh (model, beta) from a bundled config."""
        return parse_model(self._docs[config])

    def ops(self) -> list:
        raise NotImplementedError

    def group_failures(self, outputs: dict) -> dict:
        """Cross-op rules on one pass: op name -> failure reason."""
        return {}

    def layer_points(self, latency_s: dict) -> dict:
        """Per-layer metrics read off op latencies (untraced)."""
        return {}


class FigureCurves(Workload):
    """The paper's tables through Stehfest inversion, one curve point per op."""

    name = "figure_curves"
    configs = ("fig2", "fig3", "fig4", "fig5")

    @lru_cache(maxsize=None)
    def _ph(self, fig: str):
        mdl, beta = self.model(fig)
        return phase_type.running_max_ph(mdl, beta, mdl.m)

    def _tail_ref(self, fig, u, out):
        return [(rel_err(out[0], phase_type.ph_tail(self._ph(fig), u)), CURVE_RTOL)]

    def ops(self):
        models = {c: self.model(c) for c in self.configs}
        ops = []
        for fig in ("fig2", "fig3"):
            mdl = models[fig][0]
            for t in T_GRID:
                ops.append(
                    Op(
                        f"{fig}.moments.t{t:g}",
                        partial(_moment_point, mdl, t),
                        bounded=slice(0, 0),
                        sanity=_variance_sane,
                    )
                )
        for fig, grid in RUIN_GRIDS:
            mdl, beta = models[fig]
            for u in grid:
                exact = fig in KNOWN_TAIL_MISS
                ops.append(
                    Op(
                        f"{fig}.ruin.u{u}",
                        partial(_ruin_point, mdl, beta, u),
                        reference=partial(self._tail_ref, fig, u) if exact else None,
                        known=("miss",) if exact and u >= KNOWN_TAIL_MISS[fig] else (),
                    )
                )
        return ops

    def group_failures(self, outputs):
        bad = {}
        for t in T_GRID:
            lo, hi = outputs[f"fig2.moments.t{t:g}"], outputs[f"fig3.moments.t{t:g}"]
            if isinstance(lo, Raised) or isinstance(hi, Raised):
                continue
            if not (hi[0] > lo[0] and hi[1] > lo[1]):
                bad[f"fig3.moments.t{t:g}"] = "fig3 moments not above fig2 moments"
        grid = dict(RUIN_GRIDS)["fig5"]
        for prev, u in zip(grid, grid[1:]):
            a, b = outputs[f"fig5.ruin.u{prev}"], outputs[f"fig5.ruin.u{u}"]
            if not isinstance(a, Raised) and not isinstance(b, Raised) and not b[0] < a[0]:
                bad[f"fig5.ruin.u{u}"] = "fig5 ruin probability not decreasing in u"
        return bad


def _moment_point(mdl, t):
    means, variances = inversion.moment_curves(mdl, [t])
    return float(means[0]), float(variances[0])


def _variance_sane(out):
    return None if out[1] >= 0.0 else f"negative variance {out[1]!r}"


def _ruin_point(mdl, beta, u):
    return (float(inversion.ruin_curve(mdl, beta, [u])[0]),)


def deep_model(kind: str, m: int, shape: str) -> model.ModelSpec:
    """Exp(1) claims; ``cluster`` bunches the ladder rates near 0.25,
    ``spread`` spreads them apart."""
    if shape == "cluster":
        lam = [0.25 * (i + 1) for i in range(m)]
        rates = [float(k) for k in range(m + 1)]
    else:
        lam = [float(i + 1) for i in range(m)]
        rates = [0.0] + [1.0] * m
    if kind == "drift":
        regimes = [model.drift(r) for r in rates]
    elif kind == "bm":
        regimes = [model.brownian_drift(r, 1.0) for r in rates]
    else:
        regimes = [
            model.compound_poisson_drift(r + 1.0, 0.0, 1.0, claims.Exponential(2.0))
            for r in rates
        ]
    return model.ModelSpec(
        m=m,
        lambda_circ=tuple(lam),
        claims=(claims.Exponential(1.0),) * m,
        regimes=tuple(regimes),
    )


def deep_op_names():
    return [f"{k}.m{m}.{s}" for m in DEEP_M for s in DEEP_SHAPES for k in DEEP_KINDS]


class DeepPool(Workload):
    """Scaling in m: one transform point pi_max(model, 1, m, 1) per op."""

    name = "deep_pool"
    repeats = 9  # the m = 30 points fill a run with one pass

    @lru_cache(maxsize=None)
    def _ph_lst(self, m, shape):
        mdl = deep_model("drift", m, shape)
        return phase_type.ph_lst(phase_type.running_max_ph(mdl, 1.0, m), 1.0)

    def ops(self):
        ops = []
        for name in deep_op_names():
            kind, mtag, shape = name.split(".")
            m = int(mtag[1:])
            ref = None
            if kind == "drift":
                ref = lambda out, m=m, s=shape: [(rel_err(out[0], self._ph_lst(m, s)), DEEP_RTOL)]
            ops.append(
                Op(
                    name,
                    partial(_transform_point, deep_model(kind, m, shape), m),
                    reference=ref,
                    known=("fail",) if name in KNOWN_DEEP_FAIL else (),
                )
            )
        return ops

    def layer_points(self, latency_s):
        return {f"ladder.point_ms.{n}": 1e3 * t for n, t in latency_s.items()}


def _transform_point(mdl, m):
    return (ladder.pi_max(mdl, 1.0, m, 1.0),)


def random_drift_model(rng: np.random.Generator, m: int) -> model.ModelSpec:
    """The shape of the test suite's random drift models, for a given m."""
    laws = []
    for _ in range(m):
        if rng.random() < 0.5:
            laws.append(claims.Exponential(float(rng.uniform(0.2, 3.0))))
        else:
            laws.append(claims.Erlang(int(rng.integers(1, 4)), float(rng.uniform(0.2, 3.0))))
    return model.ModelSpec(
        m=m,
        lambda_circ=tuple(float(x) for x in rng.uniform(0.1, 5.0, m)),
        claims=tuple(laws),
        regimes=tuple(model.drift(float(r)) for r in rng.uniform(0.1, 5.0, m + 1)),
    )


def _has_ph_route(mdl, beta):
    first = mdl.claims[0]
    return (
        beta > 0
        and model.is_drift_model(mdl)
        and all(c == first for c in mdl.claims)
        and first.phase_type() is not None
    )


class _Row:
    """One row of ``poolruin transform`` for a model: the ladder route, the
    overshoot routes where the model is a drift model, and the exact
    phase-type transform where the claims share one phase-type law."""

    def __init__(self, mdl, beta):
        self.mdl, self.beta = mdl, beta
        self.drift = model.is_drift_model(mdl)
        self.ph = _has_ph_route(mdl, beta)
        self._table = None

    def __call__(self, alpha):
        mdl, beta = self.mdl, self.beta
        out = [ladder.pi_max(mdl, beta, mdl.m, alpha)]
        if self.drift:
            if self._table is None:  # one table per model, as the CLI keeps it
                self._table = overshoot.OvershootTable(mdl, beta)
            out.append(self._table.pi_via_ladders(alpha))
            out.append(overshoot.OvershootTable(mdl, beta).pi_explicit_chains(alpha))
        if self.ph:
            rmax = phase_type.running_max_ph(mdl, beta, mdl.m)
            out.append(phase_type.ph_lst(rmax, alpha))
        return tuple(out)


def _routes_ref(out):
    return [(rel_err(v, out[0]), ROUTE_RTOL) for v in out[1:]]


def _m1_ref(out):
    return _routes_ref(out) + [(abs(out[0] - 5.0 / 6.0), M1_EXACT_TOL)]


class TransformBattery(Workload):
    """Many cheap small-m transform rows: seed-drawn drift models plus the
    bundled configs, on a fixed alpha grid."""

    name = "transform_battery"
    configs = BUNDLED

    def models(self):
        rng = np.random.default_rng(self.seed)
        out = []
        for i in range(6 * RANDOM_PER_M):
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            out.append((f"r{i:03d}", random_drift_model(rng, 1 + i % 6), beta))
        out += [(c, *self.model(c)) for c in self.configs]
        return out

    def ops(self):
        ops = []
        for tag, mdl, beta in self.models():
            row = _Row(mdl, beta)
            for a in ALPHAS:
                ref = None
                if tag == "m1_hand" and a == 1.0:
                    ref = _m1_ref
                elif row.drift:
                    ref = _routes_ref
                ops.append(
                    Op(
                        f"{tag}.a{a:g}",
                        partial(row, a),
                        reference=ref,
                        known=KNOWN_RANDOM if tag.startswith("r") else (),
                    )
                )
        return ops


def mc_models(seed: int) -> dict:
    """Seed-built m = 5 models for the three non-vectorised regime kinds.

    The seed draws drifts, variances and jump/claim sizes; the rates, which
    set the number of simulated events and so the cost, are fixed."""
    rng = np.random.default_rng([seed, 5])
    lam = (0.5, 1.0, 1.5, 2.0, 2.5)
    laws = tuple(claims.Exponential(float(rng.uniform(0.5, 2.0))) for _ in range(5))

    def jumps():
        return claims.Exponential(float(rng.uniform(1.5, 3.0)))

    cp = tuple(
        model.compound_poisson_drift(float(rng.uniform(1.5, 3.0)), 0.0, 1.0, jumps())
        for _ in range(6)
    )
    cpbm = tuple(
        model.compound_poisson_drift(
            float(rng.uniform(1.5, 3.0)), float(rng.uniform(0.25, 1.0)), 1.0, jumps()
        )
        for _ in range(6)
    )
    sub = tuple(
        model.subordinator(-float(rng.uniform(0.1, 0.5)), 1.0, jumps()) for _ in range(6)
    )
    return {
        name: (model.ModelSpec(m=5, lambda_circ=lam, claims=laws, regimes=regs), 1.0)
        for name, regs in (("cp", cp), ("cpbm", cpbm), ("sub", sub))
    }


def mc_paths(name: str) -> int:
    return MC_PATHS.get(name, MC_PATHS_VECTORISED)


class McOracle(Workload):
    """The Monte Carlo oracle: one simulate_paths call per op, each model at
    1 and 2 workers on the same seed."""

    name = "mc_oracle"
    configs = ("fig2", "fig3", "fig4", "fig5")

    @lru_cache(maxsize=None)
    def _fig4_tail(self):
        mdl, beta = self.model("fig4")
        ph = phase_type.running_max_ph(mdl, beta, mdl.m)
        return [phase_type.ph_tail(ph, u) for u in MC_U]

    def _fig4_ref(self, out):
        n = len(MC_U)
        return [
            (abs(f - ref) / se if se > 0 else (0.0 if f == ref else np.inf), MC_SIGMAS)
            for f, se, ref in zip(out[:n], out[n + 1 : 2 * n + 1], self._fig4_tail())
        ]

    def ops(self):
        models = {c: self.model(c) for c in self.configs}
        models.update(mc_models(self.seed))
        ops = []
        for name in MC_MODELS:
            mdl, beta = models[name]
            for w in (1, 2):
                ops.append(
                    Op(
                        f"{name}.w{w}",
                        partial(_simulate, mdl, beta, mc_paths(name), self.seed, w),
                        # ruin frequencies and the transform estimate
                        bounded=slice(0, len(MC_U) + 1),
                        reference=self._fig4_ref if name == "fig4" else None,
                    )
                )
        return ops

    def group_failures(self, outputs):
        return {
            f"{n}.w2": "2-worker summary differs from 1-worker summary"
            for n in MC_MODELS
            if repr(outputs[f"{n}.w1"]) != repr(outputs[f"{n}.w2"])
        }

    def layer_points(self, latency_s):
        out = {}
        for name in MC_MODELS:
            t1, t2 = latency_s[f"{name}.w1"], latency_s[f"{name}.w2"]
            out[f"simulate.paths_per_s.{name}.w1"] = mc_paths(name) / t1
            out[f"simulate.paths_per_s.{name}.w2"] = mc_paths(name) / t2
            out[f"simulate.worker_speedup.{name}"] = t1 / t2
        return out


def _simulate(mdl, beta, n_paths, seed, workers):
    s = simulate.simulate_paths(
        mdl,
        beta,
        u_queries=MC_U,
        n_paths=n_paths,
        seed=seed,
        alphas=(MC_ALPHA,),
        n_workers=workers,
    )
    ruin = [s.ruin[u] for u in MC_U]
    lst = s.lst[MC_ALPHA]
    return (
        *(f for f, _ in ruin),
        lst[0],
        *(se for _, se in ruin),
        lst[1],
        s.mean_max,
        s.var_max,
    )


WORKLOADS = {
    w.name: w for w in (FigureCurves, DeepPool, TransformBattery, McOracle)
}
