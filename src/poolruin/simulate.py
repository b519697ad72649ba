"""Monte Carlo oracle: exact path simulation of the net claim process.

Paths are simulated without discretization bias by one segment sampler for
every regime, vectorised over the paths of a block: the jumps of a
segment split it into pieces, each piece draws its Gaussian endpoint (if
it has a Brownian part) and then its maximum from the exact conditional
(bridge) law, and nondecreasing segments use endpoint = maximum.  A
jump-free regime is a single piece, drawn for all paths at once.
Randomness comes from counter-based Philox streams keyed by (seed, block
index) over a fixed block partition of the paths, so results are
bit-identical across runs and across any number of worker threads;
aggregation reduces the per-block partial sums in block order.  A block
builds its per-path arrays (crossing flags, the state at ruin) only for
:func:`simulate_trace`; the overshoot sums of :func:`simulate_paths` add
each level's positive overshoots down the paths in order.

First crossings are found on new records only.  A path has crossed
exactly the levels below the largest value it has recorded (segment maxima
and post-claim values), so each path keeps its lowest uncrossed level, and
only a value above it is checked against the sorted levels.  That
threshold is a level, not the running maximum: the running maximum starts
at 0, so a level below zero, which every path crosses at its first
recorded value, would never be seen through it.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import SimulationError
from .model import LevyRegime, ModelSpec, require_beta, require_killing

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


def _validate(
    model: ModelSpec, beta: float, horizon_t, u_arr, n_paths, seed, alphas=()
) -> None:
    _require_integer("n_paths", n_paths, 1)
    _require_integer("seed", seed, 0, 2**64)  # the Philox key is a uint64
    if horizon_t is None:
        require_killing(model, beta, "simulation without a fixed horizon")
    else:
        require_beta(beta)
        if not 0 < horizon_t < math.inf:
            raise ValueError(f"horizon_t must be positive and finite, got {horizon_t}")
    if not np.isfinite(u_arr).all():
        raise ValueError(f"levels must be finite, got {u_arr.tolist()}")
    if not all(math.isfinite(a) for a in alphas):
        raise ValueError(f"alphas must be finite, got {list(alphas)}")
    if any(a < 0 for a in alphas):
        raise ValueError(f"alpha must be nonnegative, got {list(alphas)}")


def _require_integer(name: str, value, low: int, high: Optional[int] = None) -> None:
    """Refuse a ``value`` that is not an integer in [low, high): a float, even
    an integral one, and a bool are no counts."""
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
        or (high is not None and value >= high)
    ):
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bridge_max(zend, sigma2, dur, rng):
    """Exact running maximum of a drift plus Brownian piece given its
    endpoint; a piece without diffusion is linear and draws nothing."""
    if sigma2 == 0:
        return np.maximum(zend, 0.0)
    u01 = 1.0 - rng.random(zend.shape)  # (0, 1]: log stays finite
    # a piece of zero duration has a finite discriminant zend**2 >= 0
    disc = zend**2 - 2.0 * sigma2 * dur * np.log(u01)
    return np.where(dur > 0, 0.5 * (zend + np.sqrt(disc)), 0.0)


def _piece(reg: LevyRegime, sub, rng):
    """Endpoint and running maximum of jump-free pieces of lengths ``sub``."""
    ze = -reg.r * sub
    if reg.sigma2 > 0:
        ze = ze + np.sqrt(reg.sigma2 * sub) * rng.standard_normal(sub.size)
    return ze, _bridge_max(ze, reg.sigma2, sub, rng)


def _segment_draws(reg: LevyRegime, dur, rng):
    """Sample (segment maximum, segment endpoint, continuous-crossing flag)
    for every path; paths with zero duration contribute zeros.

    Jump counts, sizes and times are drawn flat for all paths.  A
    nondecreasing regime peaks at its endpoint and needs no jump times; any
    other walks the pieces between its sorted jump times by index, each
    step vectorised over the paths that still have that piece.  A jump-free
    regime is that walk's single piece, computed on all paths at once.
    """
    P = dur.shape[0]
    monotone = reg.nondecreasing
    if reg.jump_rate == 0:
        if monotone:
            zend = -reg.r * dur + 0.0  # the empty jump sum
            return zend.copy(), zend, True
        rng.random(0)  # the walk's draw of no jump times
        ze, bmax = _piece(reg, dur, rng)
        # 0.0 + x as the walk adds to its zero start: no -0.0 leaks out
        return np.maximum(0.0, 0.0 + bmax), 0.0 + ze, True

    counts = rng.poisson(reg.jump_rate * dur)
    total = int(counts.sum())
    sizes = np.empty(0)
    if total:
        sizes = np.asarray(reg.jump_law.sample(rng, total), dtype=float)
    first = np.cumsum(counts) - counts  # each path's first jump in the flat draws

    if monotone:
        # nondecreasing path: the maximum is the endpoint
        jsum = np.add.reduceat(np.append(sizes, 0.0), first) * (counts > 0)
        zend = -reg.r * dur + jsum
        return zend.copy(), zend, False

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
        ze, bmax = _piece(reg, end - start[idx], rng)
        base = level[idx]
        peak[idx] = np.maximum(peak[idx], base + bmax)
        level[idx] = base + ze
        level[at] += sizes[first[at] + j]
        peak[at] = np.maximum(peak[at], level[at])
        start[at] = end[jumps]
    return peak, level, False


def _run_block(model, beta, horizon_t, u_arr, alphas, seed, block, count, trace=False):
    """One block's partial sums, and with ``trace`` its per-path arrays
    (else None)."""
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

    # per-client rows: row j holds the j-th arrival time and claim of every
    # path; the waiting times add up in order, as a cumsum would
    A = np.empty((m, P))
    for j in range(m):
        A[j] = rng.exponential(1.0 / model.lambda_circ[m - j - 1], P)
        if j:
            A[j] += A[j - 1]
    B = np.empty((m, P))
    for j in range(m):
        B[j] = np.asarray(model.claims[j].sample(rng, P), dtype=float)
    arrived = A <= T
    claims_count = np.count_nonzero(arrived, axis=0)

    y = np.zeros(P)
    ymax = np.zeros(P)
    overshoot = np.full((P, nq), np.nan)
    n_at_ruin = np.full((P, nq), -1, dtype=np.int64) if trace else None
    natr = np.zeros((nq, m + 1), dtype=np.int64)
    over_n = np.zeros(nq, dtype=np.int64)
    # A path has crossed exactly the levels below the largest value it has
    # recorded, so only a value above its lowest uncrossed level (nxt) can
    # cross a level for the first time.
    order = np.argsort(u_arr, kind="stable")
    u_sorted = np.append(u_arr[order], np.inf)
    nxt_i = np.zeros(P, dtype=np.intp)
    nxt = np.full(P, u_sorted[0])

    def record(value, paths, n_state, over):
        """Mark the levels first crossed by ``value`` on ``paths`` (all
        paths if None), with overshoot ``over`` (None: the value's excess
        over the level; NaN: unknown)."""
        if paths is None:
            p = np.flatnonzero(value > nxt)
            v = value[p]
        else:
            k = np.flatnonzero(value > nxt[paths])
            p, v = paths[k], value[k]
        if not p.size:
            return
        lo = nxt_i[p]
        hi = np.searchsorted(u_sorted, v)  # the levels below v
        nxt_i[p] = hi
        nxt[p] = u_sorted[hi]
        cnt = hi - lo
        # one entry per newly crossed level, paths in order: each path's
        # sorted positions lo, ..., hi - 1
        rows = np.repeat(p, cnt)
        first = np.repeat(np.cumsum(cnt) - cnt, cnt)  # the path's first entry
        q = order[np.repeat(lo, cnt) + np.arange(rows.size) - first]
        if trace:
            n_at_ruin[rows, q] = n_state
        overshoot[rows, q] = np.repeat(v, cnt) - u_arr[q] if over is None else over
        new = np.bincount(q, minlength=nq)
        natr[:, n_state] += new
        if over is None or not math.isnan(over):
            over_n[:] += new

    def segment(reg, dur, n_state):
        smax, zend, continuous = _segment_draws(reg, dur, rng)
        cand = y + smax
        # a declining pure drift can never set a new record
        if reg.pure_drift and reg.r > 0 and (cand > ymax + 1e-12).any():
            raise SimulationError(
                f"drift segment at n = {n_state} rose above the running maximum"
            )
        if nq:
            record(cand, None, n_state, 0.0 if continuous else np.nan)
        np.maximum(ymax, cand, out=ymax)
        return zend

    # a segment runs from the last arrival to the next, both capped at T
    start = np.zeros(P)
    for j in range(m):
        n_state = m - j
        end = np.minimum(A[j], T)
        y += segment(model.regimes[n_state], end - start, n_state)
        start = end
        land = np.flatnonzero(arrived[j])
        y_after = y[land] + B[j, land]
        if nq:
            record(y_after, land, n_state - 1, None)
        ymax[land] = np.maximum(ymax[land], y_after)
        y[land] = y_after

    if np.isfinite(T).all():
        segment(model.regimes[0], T - start, 0)
    # beta = 0 drain mode: the validated drift model adds nothing after the
    # last claim

    lst = [np.exp(-a * ymax) for a in alphas]
    # Both sums run down the paths in order over the positive overshoots: a
    # zero overshoot adds nothing, and NaN (no crossing, or a jump
    # crossing) counts as zero.  A running sum, since numpy sums a
    # contiguous run pairwise, in another order.
    over_sum = np.zeros(nq)
    over_sq = np.zeros(nq)
    for q in range(nq):
        col = overshoot[:, q]
        pos = col[col > 0.0]
        if pos.size:
            over_sum[q] = np.add.accumulate(pos)[-1]
            over_sq[q] = np.add.accumulate(np.square(pos))[-1]
    part = {
        "n": P,
        "pow": np.array([ymax.sum(), (ymax**2).sum(), (ymax**3).sum(), (ymax**4).sum()]),
        "hits": natr.sum(axis=1),
        "over_sum": over_sum,
        "over_sq": over_sq,
        "over_n": over_n,
        "natr": natr,
        "claims_hist": np.bincount(claims_count, minlength=m + 1),
        "lst": np.array([e.sum() for e in lst]),
        "lst_sq": np.array([(e**2).sum() for e in lst]),
    }
    if not trace:
        return part, None
    paths = {
        "max": ymax,
        "hit": n_at_ruin >= 0,
        "overshoot": overshoot,
        "n_at_ruin": n_at_ruin,
        "claims_count": claims_count,
    }
    return part, paths


def _blocks(n_paths: int):
    full, rem = divmod(n_paths, _BLOCK_SIZE)
    sizes = [_BLOCK_SIZE] * full + ([rem] if rem else [])
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
) -> SimulationSummary:
    """Simulate paths and aggregate estimates with standard errors.

    The horizon is exponential with rate ``beta`` by default; pass
    ``horizon_t`` for a deterministic horizon, or ``beta = 0`` in the drift
    model for the infinite horizon (simulate until the last claim and let
    the final segment drain).
    """
    u_arr = np.asarray(list(u_queries), dtype=float)
    alphas = list(alphas)
    _validate(model, beta, horizon_t, u_arr, n_paths, seed, alphas)
    _require_integer("n_workers", n_workers, 1)
    blocks = _blocks(n_paths)

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
) -> list:
    """Per-path results (same streams as :func:`simulate_paths`)."""
    u_arr = np.asarray(list(u_queries), dtype=float)
    _validate(model, beta, horizon_t, u_arr, n_paths, seed)
    out = []
    for block, count in _blocks(n_paths):
        _, paths = _run_block(
            model, beta, horizon_t, u_arr, (), seed, block, count, trace=True
        )
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
