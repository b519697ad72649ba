"""Monte Carlo oracle: exact path simulation of the net claim process.

Paths are simulated without discretization bias by one segment sampler for
every regime kind, vectorised over the paths of a block: the jumps of a
segment split it into pieces, each piece draws its Gaussian endpoint (if
it has a Brownian part) and then its maximum from the exact conditional
(bridge) law, and nondecreasing segments use endpoint = maximum.
Randomness comes from counter-based Philox streams keyed by (seed, block
index) over a fixed block partition of the paths, so results are
bit-identical across runs and across any number of worker threads;
aggregation reduces the per-block partial sums in block order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import RegimeMismatch
from .model import LevyRegime, ModelSpec, is_drift_model

_BLOCK_SIZE = 16384


@dataclass(frozen=True)
class PathResult:
    """Outcome of one simulated path.

    ``overshoot`` entries are NaN when a level was not hit, and also when it
    was first crossed by a within-segment jump of a compound-Poisson regime
    (the engine then knows only that the crossing happened); continuous
    crossings record an exact overshoot of zero.
    """

    max: float
    ruin_level_hit: tuple
    overshoot: tuple
    n_at_ruin: tuple
    claims_count: int


@dataclass
class SimulationSummary:
    """Aggregated estimates with standard errors."""

    n_paths: int
    seed: int
    beta: float
    horizon_t: Optional[float]
    mean_max: float
    se_mean_max: float
    var_max: float
    se_var_max: float
    ruin: dict = field(default_factory=dict)
    overshoot_mean: dict = field(default_factory=dict)
    n_at_ruin_freq: dict = field(default_factory=dict)
    lst: dict = field(default_factory=dict)
    claims_count_freq: np.ndarray = None

    def as_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "seed": self.seed,
            "beta": self.beta,
            "horizon_t": self.horizon_t,
            "estimates": {
                "mean_max": self.mean_max,
                "var_max": self.var_max,
                "ruin": {repr(u): v[0] for u, v in sorted(self.ruin.items())},
                "overshoot_mean": {
                    repr(u): v[0] for u, v in sorted(self.overshoot_mean.items())
                },
                "lst": {repr(a): v[0] for a, v in sorted(self.lst.items())},
                "claims_count_freq": list(self.claims_count_freq),
            },
            "stderr": {
                "mean_max": self.se_mean_max,
                "var_max": self.se_var_max,
                "ruin": {repr(u): v[1] for u, v in sorted(self.ruin.items())},
                "lst": {repr(a): v[1] for a, v in sorted(self.lst.items())},
            },
        }


def _validate(model: ModelSpec, beta: float, horizon_t) -> None:
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if horizon_t is not None and horizon_t <= 0:
        raise ValueError("horizon_t must be positive")
    if horizon_t is None and beta == 0 and not is_drift_model(model):
        raise ValueError(
            "beta = 0 without a fixed horizon needs the drift model "
            "(paths drain out after the last claim)"
        )
    for idx, reg in enumerate(model.regimes):
        if reg.kind == "drift" and reg.r < 0:
            raise RegimeMismatch(
                f"regime {idx}: negative pure drift must be flagged as a "
                "subordinator"
            )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bridge_max(zend, sigma2, dur, rng):
    """Exact running maximum of a drift plus Brownian piece given its
    endpoint; a piece without diffusion is linear and draws nothing."""
    if sigma2 == 0:
        return np.maximum(zend, 0.0)
    u01 = 1.0 - rng.random(zend.shape)  # (0, 1]: log stays finite
    live = dur > 0
    out = np.zeros(zend.shape)
    disc = zend[live] ** 2 - 2.0 * sigma2 * dur[live] * np.log(u01[live])
    out[live] = 0.5 * (zend[live] + np.sqrt(disc))
    return out


def _segment_draws(reg: LevyRegime, dur, rng):
    """Sample (segment maximum, segment endpoint, continuous-crossing flag)
    for every path; paths with zero duration contribute zeros.

    Jump counts, sizes and times are drawn flat for all paths (a zero rate
    draws none).  A nondecreasing regime peaks at its endpoint and needs no
    jump times; any other walks the pieces between its sorted jump times by
    index, each step vectorised over the paths that still have that piece.
    """
    P = dur.shape[0]
    if reg.jump_rate > 0:
        counts = rng.poisson(reg.jump_rate * dur)
    else:
        counts = np.zeros(P, dtype=np.int64)
    total = int(counts.sum())
    sizes = np.empty(0)
    if total:
        sizes = np.asarray(reg.jump_law.sample(rng, total), dtype=float)
    first = np.cumsum(counts) - counts  # each path's first jump in the flat draws
    continuous = reg.jump_rate == 0

    if reg.r <= 0 and reg.sigma2 == 0:
        # nondecreasing path: the maximum is the endpoint
        jsum = np.add.reduceat(np.append(sizes, 0.0), first) * (counts > 0)
        zend = -reg.r * dur + jsum
        return zend.copy(), zend, continuous

    owner = np.repeat(np.arange(P), counts)
    u = rng.random(total)  # an empty draw leaves the stream untouched
    times = u[np.lexsort((u, owner))] * dur[owner]
    level = np.zeros(P)
    peak = np.zeros(P)
    start = np.zeros(P)
    for j in range(int(counts.max()) + 1):
        idx = np.flatnonzero(counts >= j)
        jumps = counts[idx] > j  # piece j ends at a jump, not at the segment end
        at = idx[jumps]
        end = dur[idx]
        end[jumps] = times[first[at] + j]
        sub = end - start[idx]
        ze = -reg.r * sub
        if reg.sigma2 > 0:
            ze = ze + np.sqrt(reg.sigma2 * sub) * rng.standard_normal(idx.size)
        base = level[idx]
        peak[idx] = np.maximum(peak[idx], base + _bridge_max(ze, reg.sigma2, sub, rng))
        level[idx] = base + ze
        level[at] += sizes[first[at] + j]
        peak[at] = np.maximum(peak[at], level[at])
        start[at] = end[jumps]
    return peak, level, continuous


def _run_block(model, beta, horizon_t, u_arr, alphas, seed, block, count):
    rng = _block_rng(seed, block)
    m = model.m
    P = count
    nq = len(u_arr)

    if horizon_t is not None:
        T = np.full(P, float(horizon_t))
    elif beta > 0:
        T = rng.exponential(1.0 / beta, P)
    else:
        T = np.full(P, np.inf)

    if m > 0:
        W = np.empty((P, m))
        for j in range(m):
            W[:, j] = rng.exponential(1.0 / model.lambda_circ[m - j - 1], P)
        A = np.cumsum(W, axis=1)
        B = np.empty((P, m))
        for j in range(m):
            B[:, j] = np.asarray(model.claims[j].sample(rng, P), dtype=float)
        arrived = A <= T[:, None]
        claims_count = arrived.sum(axis=1)
    else:
        A = np.zeros((P, 0))
        arrived = np.zeros((P, 0), dtype=bool)
        claims_count = np.zeros(P, dtype=int)

    y = np.zeros(P)
    ymax = np.zeros(P)
    hit = np.zeros((P, nq), dtype=bool)
    overshoot = np.full((P, nq), np.nan)
    n_at_ruin = np.full((P, nq), -1, dtype=np.int64)

    def record_segment_crossings(cand, n_state, continuous):
        for qi in range(nq):
            newly = (~hit[:, qi]) & (cand > u_arr[qi])
            if not newly.any():
                continue
            hit[newly, qi] = True
            overshoot[newly, qi] = 0.0 if continuous else np.nan
            n_at_ruin[newly, qi] = n_state

    for j in range(m):
        n_state = m - j
        reg = model.regimes[n_state]
        t0 = A[:, j - 1] if j > 0 else np.zeros(P)
        seg_end = np.minimum(A[:, j], T)
        dur = np.maximum(seg_end - np.minimum(t0, T), 0.0)
        smax, zend, continuous = _segment_draws(reg, dur, rng)
        cand = y + smax
        if reg.kind == "drift":
            # a declining or flat segment can never set a new record
            assert not (cand > ymax + 1e-12).any()
        record_segment_crossings(cand, n_state, continuous)
        ymax = np.maximum(ymax, cand)
        y = y + zend
        land = arrived[:, j]
        y_after = y + B[:, j]
        for qi in range(nq):
            newly = land & (~hit[:, qi]) & (y_after > u_arr[qi])
            if newly.any():
                hit[newly, qi] = True
                overshoot[newly, qi] = y_after[newly] - u_arr[qi]
                n_at_ruin[newly, qi] = n_state - 1
        ymax = np.where(land, np.maximum(ymax, y_after), ymax)
        y = np.where(land, y_after, y)

    if np.isfinite(T).all():
        t0 = A[:, m - 1] if m > 0 else np.zeros(P)
        dur = np.maximum(T - np.minimum(t0, T), 0.0)
        smax, zend, continuous = _segment_draws(model.regimes[0], dur, rng)
        cand = y + smax
        record_segment_crossings(cand, 0, continuous)
        ymax = np.maximum(ymax, cand)
    # beta = 0 drain mode: the validated drift model adds nothing after the
    # last claim

    part = {
        "n": P,
        "pow": np.array([ymax.sum(), (ymax**2).sum(), (ymax**3).sum(), (ymax**4).sum()]),
        "hits": hit.sum(axis=0),
        "over_sum": np.nansum(np.where(hit, overshoot, 0.0), axis=0),
        "over_sq": np.nansum(np.where(hit, overshoot, 0.0) ** 2, axis=0),
        "over_n": (hit & ~np.isnan(overshoot)).sum(axis=0),
        "natr": np.stack(
            [np.bincount(n_at_ruin[hit[:, qi], qi], minlength=m + 1) for qi in range(nq)]
        )
        if nq
        else np.zeros((0, m + 1), dtype=np.int64),
        "claims_hist": np.bincount(claims_count, minlength=m + 1),
        "lst": np.array([np.exp(-a * ymax).sum() for a in alphas]),
        "lst_sq": np.array([(np.exp(-a * ymax) ** 2).sum() for a in alphas]),
    }
    paths = {
        "max": ymax,
        "hit": hit,
        "overshoot": overshoot,
        "n_at_ruin": n_at_ruin,
        "claims_count": claims_count,
    }
    return part, paths


def _blocks(n_paths: int, block_size: int):
    full, rem = divmod(n_paths, block_size)
    sizes = [block_size] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def simulate_paths(
    model: ModelSpec,
    beta: float,
    u_queries: Sequence[float] = (),
    n_paths: int = 100_000,
    seed: int = 0,
    alphas: Sequence[float] = (),
    horizon_t: Optional[float] = None,
    n_workers: int = 1,
    block_size: int = _BLOCK_SIZE,
) -> SimulationSummary:
    """Simulate paths and aggregate estimates with standard errors.

    The horizon is exponential with rate ``beta`` by default; pass
    ``horizon_t`` for a deterministic horizon, or ``beta = 0`` in the drift
    model for the infinite horizon (simulate until the last claim and let
    the final segment drain).
    """
    _validate(model, beta, horizon_t)
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    u_arr = np.asarray(list(u_queries), dtype=float)
    alphas = list(alphas)
    blocks = _blocks(n_paths, block_size)

    def work(item):
        block, count = item
        part, _ = _run_block(
            model, beta, horizon_t, u_arr, alphas, seed, block, count
        )
        return part

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(work, blocks))
    else:
        parts = [work(item) for item in blocks]

    return _reduce(model, beta, horizon_t, seed, n_paths, u_arr, alphas, parts)


def _reduce(model, beta, horizon_t, seed, n_paths, u_arr, alphas, parts):
    m = model.m
    n = sum(p["n"] for p in parts)
    pow_sum = sum((p["pow"] for p in parts), np.zeros(4))
    mom = pow_sum / n  # raw moments of the path maximum
    mean = mom[0]
    var = max(mom[1] - mean**2, 0.0)
    se_mean = math.sqrt(var / n)
    # central moments for the variance standard error
    mu4 = mom[3] - 4 * mean * mom[2] + 6 * mean**2 * mom[1] - 3 * mean**4
    se_var = math.sqrt(max(mu4 - var**2, 0.0) / n)

    summary = SimulationSummary(
        n_paths=n,
        seed=seed,
        beta=beta,
        horizon_t=horizon_t,
        mean_max=mean,
        se_mean_max=se_mean,
        var_max=var,
        se_var_max=se_var,
        claims_count_freq=sum((p["claims_hist"] for p in parts), np.zeros(m + 1)) / n,
    )
    hits = sum((p["hits"] for p in parts), np.zeros(len(u_arr)))
    over_sum = sum((p["over_sum"] for p in parts), np.zeros(len(u_arr)))
    over_sq = sum((p["over_sq"] for p in parts), np.zeros(len(u_arr)))
    over_n = sum((p["over_n"] for p in parts), np.zeros(len(u_arr)))
    if len(u_arr):
        natr = sum((p["natr"] for p in parts), np.zeros((len(u_arr), m + 1)))
    for qi, u in enumerate(u_arr):
        freq = hits[qi] / n
        summary.ruin[float(u)] = (freq, math.sqrt(freq * (1 - freq) / n))
        if over_n[qi] > 0:
            om = over_sum[qi] / over_n[qi]
            ov = max(over_sq[qi] / over_n[qi] - om**2, 0.0)
            summary.overshoot_mean[float(u)] = (
                om,
                math.sqrt(ov / over_n[qi]),
                int(over_n[qi]),
            )
        summary.n_at_ruin_freq[float(u)] = natr[qi] / max(hits[qi], 1)
    for ai, a in enumerate(alphas):
        tot = sum(p["lst"][ai] for p in parts)
        tot_sq = sum(p["lst_sq"][ai] for p in parts)
        est = tot / n
        se = math.sqrt(max(tot_sq / n - est**2, 0.0) / n)
        summary.lst[float(a)] = (est, se)
    return summary


def simulate_trace(
    model: ModelSpec,
    beta: float,
    u_queries: Sequence[float] = (),
    n_paths: int = 100,
    seed: int = 0,
    horizon_t: Optional[float] = None,
    block_size: int = _BLOCK_SIZE,
) -> list:
    """Per-path results (same streams as :func:`simulate_paths`)."""
    _validate(model, beta, horizon_t)
    u_arr = np.asarray(list(u_queries), dtype=float)
    out = []
    for block, count in _blocks(n_paths, block_size):
        _, paths = _run_block(model, beta, horizon_t, u_arr, (), seed, block, count)
        for i in range(count):
            out.append(
                PathResult(
                    max=float(paths["max"][i]),
                    ruin_level_hit=tuple(bool(b) for b in paths["hit"][i]),
                    overshoot=tuple(float(v) for v in paths["overshoot"][i]),
                    n_at_ruin=tuple(int(v) for v in paths["n_at_ruin"][i]),
                    claims_count=int(paths["claims_count"][i]),
                )
            )
    return out
