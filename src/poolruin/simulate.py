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

The workers of :func:`simulate_paths` (the calling thread and n - 1 pool
threads) take every n-th block.  Each allocates its block arrays once per
call and every block it runs reuses their leading entries: a path-sized
float array is 131,072 bytes, glibc's mmap threshold, so a fresh one per
block would be mapped and page-faulted again.  The overshoot table is
level-major, one contiguous row of paths per level, so a level's positive
overshoots are one gather.

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
    # zend**2 - 2 sigma2 dur log(u01) with u01 = 1 - U in (0, 1], so the
    # log stays finite, built in place; a piece of zero duration has a
    # finite discriminant zend**2 >= 0
    w = rng.random(zend.shape)
    np.log(np.subtract(1.0, w, out=w), out=w)
    w *= 2.0 * sigma2 * dur
    disc = np.square(zend)
    disc -= w
    bmax = np.sqrt(disc, out=disc)
    bmax += zend
    bmax *= 0.5
    np.putmask(bmax, ~(dur > 0), 0.0)
    return bmax


def _piece(reg: LevyRegime, sub, rng):
    """Endpoint and running maximum of jump-free pieces of lengths ``sub``."""
    ze = -reg.r * sub
    if reg.sigma2 > 0:
        step = np.sqrt(reg.sigma2 * sub)
        step *= rng.standard_normal(sub.size)
        ze += step
    return ze, _bridge_max(ze, reg.sigma2, sub, rng)


def _segment_draws(reg: LevyRegime, dur, rng):
    """Sample (segment maximum, segment endpoint, continuous-crossing flag)
    for every path; paths with zero duration contribute zeros.  The maximum
    of a nondecreasing regime is its endpoint array itself.

    Jump counts, sizes and times are drawn flat for all paths.  A
    nondecreasing regime peaks at its endpoint and needs no jump times; any
    other walks the pieces between its sorted jump times by index, each
    step vectorised over the paths that still have that piece, which it
    carries compacted in ascending path order.  A jump-free regime is that
    walk's single piece, computed on all paths at once.
    """
    P = dur.shape[0]
    monotone = reg.nondecreasing
    if reg.jump_rate == 0:
        if monotone:
            zend = -reg.r * dur
            zend += 0.0  # the empty jump sum
            return zend, zend, True
        rng.random(0)  # the walk's draw of no jump times
        ze, bmax = _piece(reg, dur, rng)
        # 0.0 + x as the walk adds to its zero start: no -0.0 leaks out
        bmax += 0.0
        ze += 0.0
        return np.maximum(0.0, bmax, out=bmax), ze, True

    counts = rng.poisson(reg.jump_rate * dur)
    total = int(counts.sum())
    sizes = np.empty(0)
    if total:
        sizes = np.asarray(reg.jump_law.sample(rng, total), dtype=float)
    first = np.cumsum(counts) - counts  # each path's first jump in the flat draws

    if monotone:
        # nondecreasing path: the maximum is the endpoint
        jsum = np.add.reduceat(np.append(sizes, 0.0), first) * (counts > 0)
        zend = -reg.r * dur
        zend += jsum
        return zend, zend, False

    owner = np.repeat(np.arange(P), counts)
    u = rng.random(total)  # an empty draw leaves the stream untouched
    # each path's jump times in ascending order: numpy sorts complex numbers
    # by real, then imaginary part, so (path, draw) pairs sort exactly
    pairs = np.empty(total, dtype=complex)
    pairs.real = owner
    pairs.imag = u
    pairs.sort()
    times = pairs.imag * dur[owner]
    # the paths with a piece j, ascending (None: all): their index, jump
    # count, next jump in the flat draws, duration, level, peak and start
    idx, cnt, nj, du = None, counts, first, dur
    lv = pk = st = 0.0
    for j in range(int(counts.max()) + 1):
        # piece j ends at a jump, not at the segment end
        jumps = np.flatnonzero(cnt > j)
        at = nj[jumps]
        end = du.copy()
        end[jumps] = times[at]
        ze, bmax = _piece(reg, end - st, rng)
        pk = np.maximum(pk, lv + bmax)
        lv = lv + ze
        if idx is None:  # every path's result so far; the open ones move on
            peak, level, idx = pk, lv, jumps
        else:
            stop = np.flatnonzero(cnt == j)
            peak[idx[stop]] = pk[stop]
            level[idx[stop]] = lv[stop]
            idx = idx[jumps]
        if not jumps.size:
            break
        lv = lv[jumps]
        lv += sizes[at]
        pk = np.maximum(pk[jumps], lv)
        cnt, nj, du, st = cnt[jumps], at + 1, du[jumps], end[jumps]
    return peak, level, False


class _Buffers:
    """A worker's block arrays; a block of ``count`` paths works on the
    leading ``count`` entries of each (:meth:`views`)."""

    def __init__(self, m: int, nq: int, size: int):
        # no chunk larger than the (m, P) rows: a larger one, once freed,
        # would raise glibc's dynamic mmap threshold for the whole process
        self.rows = [np.empty(size) for _ in range(7)]
        self.A = np.empty((m, size))
        self.B = np.empty((m, size))
        self.over = np.empty((nq, size))
        self.nxt_i = np.empty(size, dtype=np.intp)
        self.mask = np.empty(size, dtype=bool)

    def views(self, count: int):
        """(T, y, ymax, nxt, dur, cand, tmp), A and B as (m, count), the
        overshoot table as (nq, count), nxt_i and a boolean mask."""
        return (
            tuple(row[:count] for row in self.rows),
            self.A[:, :count],
            self.B[:, :count],
            self.over[:, :count],
            self.nxt_i[:count],
            self.mask[:count],
        )


def _run_block(
    model, beta, horizon_t, u_arr, alphas, seed, block, count, trace=False, buf=None
):
    """One block's partial sums, and with ``trace`` its per-path arrays
    (else None).  ``buf`` holds the block arrays (default: fresh ones)."""
    rng = _block_rng(seed, block)
    m = model.m
    P = count
    nq = len(u_arr)
    if buf is None:
        buf = _Buffers(m, nq, P)
    (T, y, ymax, nxt, dur, cand, tmp), A, B, overshoot, nxt_i, mask = buf.views(P)

    if horizon_t is not None:
        T.fill(float(horizon_t))
    elif beta > 0:
        # the draws and products of rng.exponential(1.0 / beta, P)
        rng.standard_exponential(out=T)
        T *= 1.0 / beta
    else:
        T.fill(np.inf)

    # per-client rows: row j holds the j-th arrival time and claim of every
    # path; the waiting times add up in order, as a cumsum would
    for j in range(m):
        rng.standard_exponential(out=A[j])
        A[j] *= 1.0 / model.lambda_circ[m - j - 1]
        if j:
            A[j] += A[j - 1]
    for j, law in enumerate(model.claims):
        law.sample(rng, P, out=B[j])

    y.fill(0.0)
    ymax.fill(0.0)
    overshoot.fill(np.nan)  # level-major: row q holds level q of every path
    n_at_ruin = np.full((nq, P), -1, dtype=np.int64) if trace else None
    claims_count = np.zeros(P, dtype=np.int64) if trace else None
    natr = np.zeros((nq, m + 1), dtype=np.int64)
    over_n = np.zeros(nq, dtype=np.int64)
    # A path has crossed exactly the levels below the largest value it has
    # recorded, so only a value above its lowest uncrossed level (nxt) can
    # cross a level for the first time.
    order = np.argsort(u_arr, kind="stable")
    u_sorted = np.append(u_arr[order], np.inf)
    nxt_i.fill(0)
    nxt.fill(u_sorted[0])

    def record(value, paths, n_state, over):
        """Mark the levels first crossed by ``value`` on ``paths`` (all
        paths if None), with overshoot ``over`` (None: the value's excess
        over the level; NaN: unknown)."""
        if paths is None:
            p = np.flatnonzero(np.greater(value, nxt, out=mask))
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
        cnt = hi - lo  # at least one level each
        if int(cnt.sum()) == p.size:  # one level per path
            rows, q = p, order[lo]
        else:
            # one entry per newly crossed level, paths in order: each path's
            # sorted positions lo, ..., hi - 1
            rows = np.repeat(p, cnt)
            # entry e of a path whose entries start at f is position lo + e - f
            shift = lo - (np.cumsum(cnt) - cnt)
            q = order[np.repeat(shift, cnt) + np.arange(rows.size)]
            v = np.repeat(v, cnt)
        if trace:
            n_at_ruin[q, rows] = n_state
        overshoot[q, rows] = v - u_arr[q] if over is None else over
        new = np.bincount(q, minlength=nq)
        natr[:, n_state] += new
        if over is None or not math.isnan(over):
            over_n[:] += new

    def segment(reg, dur, n_state):
        smax, zend, continuous = _segment_draws(reg, dur, rng)
        np.add(y, smax, out=cand)
        # a declining pure drift can never set a new record
        if reg.pure_drift and reg.r > 0:
            np.add(ymax, 1e-12, out=tmp)
            if np.greater(cand, tmp, out=mask).any():
                raise SimulationError(
                    f"drift segment at n = {n_state} rose above the running maximum"
                )
        if nq:
            record(cand, None, n_state, 0.0 if continuous else np.nan)
        np.maximum(ymax, cand, out=ymax)
        return zend

    # a segment runs from the last arrival to the next, both capped at T:
    # row j of A turns into segment j's end once its arrivals are known
    start = 0.0
    arrivals = []
    for j in range(m):
        n_state = m - j
        land = np.flatnonzero(np.less_equal(A[j], T, out=mask))
        arrivals.append(land.size)
        end = np.minimum(A[j], T, out=A[j])
        y += segment(model.regimes[n_state], np.subtract(end, start, out=dur), n_state)
        start = end
        if trace:
            claims_count[land] += 1
        if land.size == P:  # every path's claim (beta = 0): no gathers
            y += B[j]
            if nq:
                record(y, None, n_state - 1, None)
            np.maximum(ymax, y, out=ymax)
            continue
        y_after = y[land] + B[j, land]
        if nq:
            record(y_after, land, n_state - 1, None)
        ymax[land] = np.maximum(ymax[land], y_after)
        y[land] = y_after

    if np.isfinite(T).all():
        segment(model.regimes[0], np.subtract(T, start, out=dur), 0)
    # beta = 0 drain mode: the validated drift model adds nothing after the
    # last claim

    # a heavy tail may overflow a power sum: it reads inf
    with np.errstate(over="ignore"):
        # pairwise sums over the whole block; the powers above the square
        # are taken on the nonzero maxima only (a zero is slow in pow)
        nz = np.flatnonzero(ymax)
        top = ymax[nz]
        pow_sums = [ymax.sum(), np.square(ymax, out=tmp).sum()]
        tmp.fill(0.0)
        for k in (3, 4):
            tmp[nz] = top**k
            pow_sums.append(tmp.sum())
        lst, lst_sq = [], []
        for a in alphas:
            e = np.exp(np.multiply(-a, ymax, out=tmp), out=tmp)
            lst.append(e.sum())
            lst_sq.append(np.square(e, out=e).sum())
        # Both sums run down the paths in order over the positive
        # overshoots: a zero overshoot adds nothing, and NaN (no crossing,
        # or a jump crossing) counts as zero.  A running sum, since numpy
        # sums a contiguous run pairwise, in another order.
        over_sum = np.zeros(nq)
        over_sq = np.zeros(nq)
        for q in range(nq):
            row = overshoot[q]
            pos = row.take(np.flatnonzero(np.greater(row, 0.0, out=mask)))
            if pos.size:
                sq = np.square(pos)
                over_sum[q] = np.add.accumulate(pos, out=pos)[-1]
                over_sq[q] = np.add.accumulate(sq, out=sq)[-1]
    # the arrivals of a path come in order, so a path with k claims is in
    # the first k rows: -diff of the row counts is the histogram
    part = {
        "n": P,
        "pow": np.array(pow_sums),
        "hits": natr.sum(axis=1),
        "over_sum": over_sum,
        "over_sq": over_sq,
        "over_n": over_n,
        "natr": natr,
        "claims_hist": -np.diff([P, *arrivals, 0]),
        "lst": np.array(lst),
        "lst_sq": np.array(lst_sq),
    }
    if not trace:
        return part, None
    paths = {
        "max": ymax,
        "hit": n_at_ruin.T >= 0,
        "overshoot": overshoot.T,
        "n_at_ruin": n_at_ruin.T,
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
    workers = min(n_workers, len(blocks))

    def work(w):
        # blocks w, w + workers, ...: one set of block arrays serves them all
        buf = _Buffers(model.m, len(u_arr), blocks[0][1])
        return [
            _run_block(
                model, beta, horizon_t, u_arr, alphas, seed, block, count, buf=buf
            )[0]
            for block, count in blocks[w::workers]
        ]

    if workers > 1:
        # the calling thread runs the first share: one thread, and the
        # memory its allocator arena would keep, fewer
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            rest = pool.map(work, range(1, workers))
            shares = [work(0), *rest]
    else:
        shares = [work(0)]
    parts = [None] * len(blocks)
    for w, share in enumerate(shares):
        parts[w::workers] = share

    return _reduce(model, beta, horizon_t, seed, n_paths, u_arr, alphas, parts)


def _reduce(model, beta, horizon_t, seed, n_paths, u_arr, alphas, parts):
    m = model.m
    n = sum(p["n"] for p in parts)
    pow_sum = sum((p["pow"] for p in parts), np.zeros(4))
    # A power sum that overflowed (a heavy tail) makes its moment and every
    # standard error built on it inf, as is one whose terms overflow.
    finite = np.isfinite(pow_sum)
    with np.errstate(over="ignore", invalid="ignore"):
        mom = pow_sum / n  # raw moments of the path maximum
        mean = mom[0]
        var = max(mom[1] - mean**2, 0.0) if finite[:2].all() else math.inf
        se_mean = math.sqrt(var / n)
        # central moments for the variance standard error
        mu4 = mom[3] - 4 * mean * mom[2] + 6 * mean**2 * mom[1] - 3 * mean**4
        spread = mu4 - var**2
    if finite.all() and math.isfinite(spread):
        se_var = math.sqrt(max(spread, 0.0) / n)
    else:
        se_var = math.inf

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
            with np.errstate(over="ignore", invalid="ignore"):
                ov = over_sq[qi] / over_n[qi] - om**2
            se = math.sqrt(max(ov, 0.0) / over_n[qi]) if math.isfinite(ov) else math.inf
            summary.overshoot_mean[float(u)] = (om, se, int(over_n[qi]))
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
