import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from poolruin import claims, heavy_tail, inversion, ladder, model, simulate
from poolruin.config import load_model
from poolruin.errors import SimulationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_no_clients_no_ruin():
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(2.0),))
    s = simulate.simulate_paths(none, 1.0, u_queries=(0.5,), n_paths=5000, seed=1)
    assert s.mean_max == 0.0
    assert s.ruin[0.5][0] == 0.0


def test_killed_max_transform_m1(m1_model):
    s = simulate.simulate_paths(m1_model, 1.0, n_paths=400_000, seed=42, alphas=(1.0,))
    est, se = s.lst[1.0]
    assert abs(est - 5.0 / 6.0) < 3 * se


def _jump_regimes_model():
    """Compound-Poisson, compound-Poisson plus Brownian and subordinator
    regimes: every branch of the segment sampler in one model."""
    return model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.5),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 2.0)),
        regimes=(
            model.compound_poisson_drift(2.0, 0.0, 1.5, claims.Exponential(2.0)),
            model.compound_poisson_drift(1.5, 0.6, 2.0, claims.Erlang(2, 3.0)),
            model.subordinator(r=-0.3, jump_rate=0.8, jump_law=claims.Exponential(2.0)),
        ),
    )


@pytest.mark.parametrize("name", ["m1", "jumps"])
def test_reproducible_across_runs_and_workers(m1_model, name):
    mdl = m1_model if name == "m1" else _jump_regimes_model()
    kw = dict(u_queries=(0.2, 1.0), n_paths=50_000, seed=7, alphas=(0.5,))
    a = simulate.simulate_paths(mdl, 1.0, **kw)
    b = simulate.simulate_paths(mdl, 1.0, **kw)
    c = simulate.simulate_paths(mdl, 1.0, n_workers=8, **kw)
    assert a.as_dict() == b.as_dict() == c.as_dict()


def _bits(summary):
    """The summary's repr with every array written out to the last bit."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return repr({k: plain(v) for k, v in vars(summary).items()})


def test_concurrent_calls_keep_their_own_block_arrays(monkeypatch):
    # two calls at once, each with two workers (more threads than cores),
    # many blocks per worker and a partial last block: each reads as alone
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", 2500)
    fig4, beta4 = load_model(CONFIGS / "fig4.json")
    calls = {"fig4": (fig4, beta4), "jumps": (_jump_regimes_model(), 1.0)}
    kw = dict(u_queries=(-1.0, 0.0, 1.0, 1.0, 5.0), n_paths=24_321, seed=47, alphas=(0.5, 2.0))
    serial = {name: _bits(simulate.simulate_paths(*call, **kw)) for name, call in calls.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                name: pool.submit(simulate.simulate_paths, *call, n_workers=2, **kw)
                for name, call in calls.items()
            }
            together = {name: _bits(f.result(timeout=120)) for name, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    assert together == serial


def test_fewer_blocks_than_workers_start_no_pool(m1_model, monkeypatch):
    kw = dict(u_queries=(0.5,), n_paths=1000, seed=3, alphas=(1.0,))
    serial = simulate.simulate_paths(m1_model, 1.0, **kw)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool for a single block")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    assert _bits(simulate.simulate_paths(m1_model, 1.0, n_workers=4, **kw)) == _bits(serial)


def test_seed_changes_results(m1_model):
    a = simulate.simulate_paths(m1_model, 1.0, n_paths=10_000, seed=1, alphas=(1.0,))
    b = simulate.simulate_paths(m1_model, 1.0, n_paths=10_000, seed=2, alphas=(1.0,))
    assert a.lst[1.0] != b.lst[1.0]


def test_claims_count_matches_thinning_distribution():
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 2.5, 0.6),
        claims=(claims.Exponential(1.0),) * 3,
        regimes=(model.drift(1.0),) * 4,
    )
    beta = 0.8
    s = simulate.simulate_paths(mdl, beta, n_paths=1_000_000, seed=3)
    expected = heavy_tail.m_distribution(mdl, beta) * s.n_paths
    observed = s.claims_count_freq * s.n_paths
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def test_drift_ruin_only_at_claim_instants(m1_model):
    paths = simulate.simulate_trace(
        m1_model, 1.0, u_queries=(0.3,), n_paths=20_000, seed=11
    )
    hits = [p for p in paths if p.ruin_level_hit[0]]
    assert hits
    for p in hits:
        # claim-driven exceedance: a strictly positive overshoot and the
        # post-claim client count recorded
        assert p.overshoot[0] > 0.0
        assert p.n_at_ruin[0] == 0
        assert p.max > 0.3
    for p in paths:
        assert p.max >= 0.0
        assert p.claims_count in (0, 1)


def test_overshoot_law_exponential_claims(m1_model):
    # memoryless claims make the overshoot over any level Exp(1) given a hit
    paths = simulate.simulate_trace(
        m1_model, 1.0, u_queries=(0.5,), n_paths=200_000, seed=13
    )
    over = np.array([p.overshoot[0] for p in paths if p.ruin_level_hit[0]])
    assert len(over) > 1000
    assert abs(over.mean() - 1.0) < 4 * over.std() / math.sqrt(len(over))


def test_brownian_killed_max_lst():
    reg = model.brownian_drift(1.0, 1.0)
    bm = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(reg,))
    s = simulate.simulate_paths(bm, 1.0, n_paths=400_000, seed=7, alphas=(0.5, 1.0, 2.0))
    for a in (0.5, 1.0, 2.0):
        est, se = s.lst[a]
        assert abs(est - ladder.engine(bm, 1.0, 0).value(a)) < 3 * se


def test_fixed_horizon_mean_monotone(m1_model):
    means = []
    for t in (0.5, 2.0, 8.0):
        s = simulate.simulate_paths(m1_model, 0.0, horizon_t=t, n_paths=50_000, seed=5)
        means.append(s.mean_max)
    assert means[0] < means[1] < means[2]


def test_non_identical_claims_against_transform():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.5),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 0.7)),
        regimes=(model.drift(0.5), model.drift(1.0), model.drift(2.0)),
    )
    s = simulate.simulate_paths(mdl, 1.0, n_paths=400_000, seed=17, alphas=(0.4, 1.3))
    for a in (0.4, 1.3):
        est, se = s.lst[a]
        assert abs(est - ladder.pi_max(mdl, 1.0, 2, a)) < 3 * se


def test_subordinator_simulation_with_jumps():
    mdl = model.ModelSpec(
        m=1,
        lambda_circ=(1.0,),
        claims=(claims.Exponential(1.0),),
        regimes=(
            model.drift(1.0),
            model.subordinator(r=-0.3, jump_rate=0.8, jump_law=claims.Exponential(2.0)),
        ),
    )
    s = simulate.simulate_paths(mdl, 1.0, n_paths=300_000, seed=23, alphas=(0.7,))
    est, se = s.lst[0.7]
    assert abs(est - ladder.pi_max(mdl, 1.0, 1, 0.7)) < 3 * se


def test_unlabelled_nondecreasing_regime_is_its_subordinator():
    # the shape of a regime follows from its parameters: each unlabelled
    # nondecreasing regime computes exactly as its subordinator spelling, at
    # state 0 and at a client state, on the ladder, the inversion and the
    # simulator
    jumps = claims.Exponential(2.0)
    spellings = {
        "drift": (model.drift(-0.4), model.subordinator(-0.4)),
        "cp": (
            model.compound_poisson_drift(-0.4, 0.0, 0.5, jumps),
            model.subordinator(-0.4, 0.5, jumps),
        ),
        "cp without premium": (
            model.compound_poisson_drift(0.0, 0.0, 0.5, jumps),
            model.subordinator(0.0, 0.5, jumps),
        ),
    }

    def results(reg, state):
        regimes = [model.drift(1.0), model.drift(1.0)]
        regimes[state] = reg
        mdl = model.ModelSpec(
            m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),), regimes=regimes
        )
        sim = simulate.simulate_paths(
            mdl, 1.0, u_queries=(0.5, 2.0), n_paths=2000, seed=5, alphas=(0.7,)
        )
        return repr((
            ladder.pi_max(mdl, 1.0, 1, 0.7),
            ladder.engine(mdl, 1.0, 1).jet(0.0),
            inversion.ruin_curve(mdl, 1.0, [1.5]).tolist(),
            sim.as_dict(),
        ))

    for name, (plain, sub) in spellings.items():
        for state in (0, 1):
            assert plain == sub
            assert results(plain, state) == results(sub, state), (name, state)


def test_infinite_horizon_requires_drift_model():
    bm = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    with pytest.raises(ValueError):
        simulate.simulate_paths(bm, 0.0, n_paths=10, seed=0)


def test_trace_matches_aggregate_streams(m1_model):
    s = simulate.simulate_paths(
        m1_model, 1.0, u_queries=(0.5,), n_paths=5000, seed=99
    )
    paths = simulate.simulate_trace(
        m1_model, 1.0, u_queries=(0.5,), n_paths=5000, seed=99
    )
    assert len(paths) == 5000
    assert math.isclose(
        s.mean_max, sum(p.max for p in paths) / 5000, rel_tol=1e-12
    )
    assert s.ruin[0.5][0] == sum(p.ruin_level_hit[0] for p in paths) / 5000


@pytest.mark.parametrize("sigma2", [0.0, 0.5])
def test_pure_jump_compound_poisson_regime(sigma2):
    # sigma2 > 0 bridges Brownian pieces between the jumps
    mdl = model.ModelSpec(
        m=1,
        lambda_circ=(1.0,),
        claims=(claims.Exponential(1.0),),
        regimes=(
            model.drift(2.0),
            model.compound_poisson_drift(2.0, sigma2, 1.2, claims.Erlang(2, 3.0)),
        ),
    )
    s = simulate.simulate_paths(mdl, 1.0, n_paths=150_000, seed=19, alphas=(0.6, 1.5))
    for a in (0.6, 1.5):
        est, se = s.lst[a]
        assert abs(est - ladder.pi_max(mdl, 1.0, 1, a)) < 3 * se


def test_levels_below_zero_are_crossed_at_the_first_segment():
    # every path records a value >= 0 in its first segment, which the
    # running maximum (0 from the start) does not count as a new record
    mdl, beta = load_model(CONFIGS / "fig2.json")
    s = simulate.simulate_paths(mdl, beta, u_queries=(-1.0, 0.0), n_paths=40_000, seed=4)
    assert s.ruin[-1.0] == (1.0, 0.0)
    assert list(s.n_at_ruin_freq[-1.0]) == [0.0] * mdl.m + [1.0]
    assert s.overshoot_mean[-1.0][:2] == (0.0, 0.0)  # drift: crossed continuously
    assert s.ruin[0.0][0] < 1.0
    for p in simulate.simulate_trace(mdl, beta, u_queries=(-1.0,), n_paths=2000, seed=4):
        assert p.ruin_level_hit == (True,)
        assert p.n_at_ruin == (mdl.m,)
        assert p.overshoot == (0.0,)


def test_level_below_zero_without_a_segment_is_never_crossed():
    # no clients and the infinite horizon: no value is ever recorded
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(2.0),))
    s = simulate.simulate_paths(none, 0.0, u_queries=(-1.0,), n_paths=100, seed=1)
    assert s.ruin[-1.0][0] == 0.0
    s = simulate.simulate_paths(none, 1.0, u_queries=(-1.0,), n_paths=100, seed=1)
    assert s.ruin[-1.0][0] == 1.0
    assert list(s.n_at_ruin_freq[-1.0]) == [1.0]


LEVELS = (5.0, 1.0, 1.0, -1.0, 0.0, 1e9, 0.5, -0.0)


def _level_models():
    fig2, _ = load_model(CONFIGS / "fig2.json")
    fig3, _ = load_model(CONFIGS / "fig3.json")
    return {"drift": fig2, "brownian": fig3, "jumps": _jump_regimes_model()}


@pytest.mark.parametrize("name", ["drift", "brownian", "jumps"])
def test_first_crossings_agree_with_the_path_maximum(name):
    # unsorted and repeated levels, zero, a level below zero and one above
    # every maximum, on one trace
    mdl = _level_models()[name]
    paths = simulate.simulate_trace(mdl, 1.0, u_queries=LEVELS, n_paths=3000, seed=31)
    seen = set()
    for p in paths:
        for q, u in enumerate(LEVELS):
            hit = p.ruin_level_hit[q]
            assert hit == (p.max > u if u >= 0 else True)
            if not hit:
                assert p.n_at_ruin[q] == -1 and math.isnan(p.overshoot[q])
                continue
            seen.add(u)
            assert 0 <= p.n_at_ruin[q] <= mdl.m
            assert math.isnan(p.overshoot[q]) or p.overshoot[q] >= 0.0
        # a repeated level is the same level
        assert repr(p.overshoot[1]) == repr(p.overshoot[2])
        assert p.n_at_ruin[1] == p.n_at_ruin[2]
        assert p.n_at_ruin[4] == p.n_at_ruin[7]
        # a higher level is crossed no earlier, so with no more clients left
        crossed = sorted((u, p.n_at_ruin[q]) for q, u in enumerate(LEVELS) if p.ruin_level_hit[q])
        assert all(a[1] >= b[1] for a, b in zip(crossed, crossed[1:]))
    assert seen == {5.0, 1.0, -1.0, 0.0, 0.5}


@pytest.mark.parametrize("name", ["drift", "brownian", "jumps"])
def test_level_order_does_not_change_the_estimates(name, monkeypatch):
    mdl = _level_models()[name]
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", 7000)
    kw = dict(n_paths=20_000, seed=37)
    a = simulate.simulate_paths(mdl, 1.0, u_queries=LEVELS, **kw)
    b = simulate.simulate_paths(mdl, 1.0, u_queries=sorted(set(LEVELS)), **kw)
    for u in set(LEVELS):
        assert a.ruin[u] == b.ruin[u]
        assert a.overshoot_mean.get(u) == b.overshoot_mean.get(u)
        assert list(a.n_at_ruin_freq[u]) == list(b.n_at_ruin_freq[u])


@pytest.mark.parametrize("name", ["drift", "jumps"])
def test_summary_matches_the_trace(name, monkeypatch):
    mdl = _level_models()[name]
    n = 6000
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", 2500)
    s = simulate.simulate_paths(mdl, 1.0, u_queries=LEVELS, n_paths=n, seed=41)
    paths = simulate.simulate_trace(mdl, 1.0, u_queries=LEVELS, n_paths=n, seed=41)
    for q, u in enumerate(LEVELS):
        hit = [p for p in paths if p.ruin_level_hit[q]]
        assert s.ruin[u][0] == len(hit) / n
        counts = np.bincount([p.n_at_ruin[q] for p in hit], minlength=mdl.m + 1)
        assert list(s.n_at_ruin_freq[u]) == list(counts / max(len(hit), 1))
        over = np.array([p.overshoot[q] for p in hit if not math.isnan(p.overshoot[q])])
        if not over.size:
            assert u not in s.overshoot_mean
            continue
        mean, se, count = s.overshoot_mean[u]
        assert count == over.size
        assert math.isclose(mean, over.mean(), rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(se, over.std() / math.sqrt(over.size), rel_tol=1e-6, abs_tol=1e-12)


@pytest.mark.parametrize("name", ["drift", "jumps"])
def test_overshoot_sums_repeat_the_dense_block_reduction(name, monkeypatch):
    # each block's overshoot sums are those of the dense per-path reduction
    # (NaN as zero, summed down the paths), to the bit
    mdl = _level_models()[name]
    n, block = 6000, 2500
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", block)
    s = simulate.simulate_paths(mdl, 1.0, u_queries=LEVELS, n_paths=n, seed=43)
    paths = simulate.simulate_trace(mdl, 1.0, u_queries=LEVELS, n_paths=n, seed=43)
    over = np.fmax(np.array([p.overshoot for p in paths]), 0.0)
    known = np.array([[not math.isnan(v) for v in p.overshoot] for p in paths])
    total = np.zeros(len(LEVELS))
    total_sq = np.zeros(len(LEVELS))
    for lo in range(0, n, block):
        total = total + over[lo : lo + block].sum(axis=0)
        total_sq = total_sq + np.square(over[lo : lo + block]).sum(axis=0)
    for q, u in enumerate(LEVELS):
        count = int(known[:, q].sum())
        if not count:
            continue
        mean = total[q] / count
        se = math.sqrt(max(total_sq[q] / count - mean**2, 0.0) / count)
        assert s.overshoot_mean[u] == (mean, se, count)


def test_power_sums_repeat_the_dense_block_reduction(monkeypatch):
    # each block sums the powers of every path maximum, zeros included,
    # pairwise down the block, as the dense x**k of the whole block would
    mdl = _level_models()["drift"]
    n, block = 6000, 2500
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", block)
    s = simulate.simulate_paths(mdl, 1.0, n_paths=n, seed=45)
    mx = np.array([p.max for p in simulate.simulate_trace(mdl, 1.0, n_paths=n, seed=45)])
    assert (mx == 0.0).any() and (mx > 0.0).any()
    pow_sum = np.zeros(4)
    for lo in range(0, n, block):
        part = mx[lo : lo + block]
        pow_sum = pow_sum + np.array([part.sum(), (part**2).sum(), (part**3).sum(), (part**4).sum()])
    mom = pow_sum / n
    var = max(mom[1] - mom[0] ** 2, 0.0)
    mu4 = mom[3] - 4 * mom[0] * mom[2] + 6 * mom[0] ** 2 * mom[1] - 3 * mom[0] ** 4
    assert (s.mean_max, s.se_mean_max) == (mom[0], math.sqrt(var / n))
    assert (s.var_max, s.se_var_max) == (var, math.sqrt(max(mu4 - var**2, 0.0) / n))


def test_overflowed_power_sums_read_inf_without_warnings():
    # a Lomax tail this heavy overflows the fourth power sum: its standard
    # error is inf, not NaN, and numpy warns of nothing
    lomax = claims.Lomax(1.0, 0.05)
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.0),
        claims=(lomax, lomax),
        regimes=tuple(model.drift(r) for r in (0.0, 1.0, 2.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = simulate.simulate_paths(mdl, 1.0, u_queries=(1.0,), n_paths=200_000, seed=0)
    assert s.se_var_max == math.inf
    assert math.isfinite(s.mean_max) and math.isfinite(s.var_max)
    assert math.isfinite(s.overshoot_mean[1.0][1])


def test_jump_crossings_inside_a_segment_have_unknown_overshoot():
    # every regime jumps: a level is crossed inside a segment (overshoot
    # NaN) or by a claim (overshoot > 0), never continuously
    mdl = _jump_regimes_model()
    levels = (0.5, 2.0)
    paths = simulate.simulate_trace(mdl, 1.0, u_queries=levels, n_paths=5000, seed=21)
    inside = {u: 0 for u in levels}
    by_claim = {u: 0 for u in levels}
    for p in paths:
        for q, u in enumerate(levels):
            if not p.ruin_level_hit[q]:
                continue
            if math.isnan(p.overshoot[q]):
                inside[u] += 1
            else:
                assert p.overshoot[q] > 0.0
                by_claim[u] += 1
    assert all(inside.values()) and all(by_claim.values())
    s = simulate.simulate_paths(mdl, 1.0, u_queries=levels, n_paths=5000, seed=21)
    for u in levels:
        assert s.overshoot_mean[u][2] == by_claim[u]
        assert s.ruin[u][0] == (inside[u] + by_claim[u]) / 5000


def test_bridge_maximum_repeats_its_formula():
    # the in-place bridge maximum against the expression it evaluates
    rng = np.random.default_rng(3)
    dur = rng.exponential(1.0, 4000)
    dur[::5] = 0.0
    zend = -1.5 * dur + np.sqrt(0.7 * dur) * rng.standard_normal(dur.size)
    got = simulate._bridge_max(zend, 0.7, dur, simulate._block_rng(4, 0))
    u01 = 1.0 - simulate._block_rng(4, 0).random(dur.size)
    disc = zend**2 - 2.0 * 0.7 * dur * np.log(u01)
    want = np.where(dur > 0, 0.5 * (zend + np.sqrt(disc)), 0.0)
    assert got.tobytes() == want.tobytes()


def _indexed_walk(reg, dur, rng):
    """The jump walk over whole path arrays, finding the paths that still
    have piece j anew at every piece, with each path's jump times ordered by
    ``np.lexsort``: the reference for the compacted walk of
    ``simulate._segment_draws``."""
    P = dur.shape[0]
    counts = rng.poisson(reg.jump_rate * dur)
    total = int(counts.sum())
    sizes = np.asarray(reg.jump_law.sample(rng, total), dtype=float) if total else np.empty(0)
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(P), counts)
    u = rng.random(total)
    times = u[np.lexsort((u, owner))] * dur[owner]
    level, peak, start = np.zeros(P), np.zeros(P), np.zeros(P)
    for j in range(int(counts.max()) + 1):
        idx = np.flatnonzero(counts >= j)
        jumps = counts[idx] > j
        at = idx[jumps]
        end = dur[idx]
        end[jumps] = times[first[at] + j]
        ze, bmax = simulate._piece(reg, end - start[idx], rng)
        base = level[idx]
        peak[idx] = np.maximum(peak[idx], base + bmax)
        level[idx] = base + ze
        level[at] += sizes[first[at] + j]
        peak[at] = np.maximum(peak[at], level[at])
        start[at] = end[jumps]
    return peak, level


@pytest.mark.parametrize("sigma2", [0.0, 0.6])
def test_compacted_jump_walk_repeats_the_indexed_walk(sigma2):
    reg = model.compound_poisson_drift(1.5, sigma2, 2.0, claims.Erlang(2, 3.0))
    dur = np.random.default_rng(5).exponential(1.0, 5000)
    dur[::7] = 0.0  # segments cut to nothing by the horizon
    for block in range(3):
        rng, ref_rng = simulate._block_rng(9, block), simulate._block_rng(9, block)
        peak, level, continuous = simulate._segment_draws(reg, dur, rng)
        ref_peak, ref_level = _indexed_walk(reg, dur, ref_rng)
        assert not continuous
        assert peak.tobytes() == ref_peak.tobytes()
        assert level.tobytes() == ref_level.tobytes()
        assert rng.random() == ref_rng.random()  # the same draws, in order


@pytest.mark.parametrize("kind", ["brownian", "drift"])
def test_jump_free_regimes_against_the_transform(kind):
    def regime(r):
        return model.brownian_drift(r, 0.8) if kind == "brownian" else model.drift(r)

    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.5),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 2.0)),
        regimes=(regime(0.5), regime(1.0), regime(2.0)),
    )
    s = simulate.simulate_paths(mdl, 1.0, n_paths=200_000, seed=29, alphas=(0.5, 1.5))
    for a in (0.5, 1.5):
        est, se = s.lst[a]
        assert abs(est - ladder.pi_max(mdl, 1.0, 2, a)) < 3 * se


def test_drift_segment_above_the_record_raises(m1_model, monkeypatch):
    real = simulate._segment_draws

    def rising(offset):
        def draws(reg, dur, rng):
            smax, zend, continuous = real(reg, dur, rng)
            return smax + offset, zend, continuous

        return draws

    monkeypatch.setattr(simulate, "_segment_draws", rising(1e-6))
    with pytest.raises(SimulationError, match="drift segment"):
        simulate.simulate_paths(m1_model, 1.0, n_paths=100, seed=0)
    # within the 1e-12 tolerance a drift segment may round above the record
    monkeypatch.setattr(simulate, "_segment_draws", rising(1e-13))
    simulate.simulate_paths(m1_model, 1.0, n_paths=100, seed=0)


@pytest.mark.parametrize(
    "kw",
    [
        {"u_queries": (1.0, math.nan)},
        {"u_queries": (math.inf,)},
        {"u_queries": (-math.inf,)},
        {"alphas": (math.inf,)},
        {"alphas": (math.nan,)},
        {"horizon_t": math.nan},
        {"horizon_t": math.inf},
        {"beta": math.nan},
        {"beta": math.inf},
    ],
)
def test_non_finite_inputs_rejected(m1_model, kw):
    kw = {"beta": 1.0, "n_paths": 10, "seed": 0, **kw}
    with pytest.raises(ValueError, match="finite"):
        simulate.simulate_paths(m1_model, **kw)
    if "alphas" not in kw:
        with pytest.raises(ValueError, match="finite"):
            simulate.simulate_trace(m1_model, **kw)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"alphas": (1.0, -60.0)}, "alpha must be nonnegative"),
        ({"alphas": (-1.0,)}, "alpha must be nonnegative"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"n_paths": 0}, "n_paths"),
        ({"n_paths": 1000.0}, "n_paths"),
        ({"n_paths": True}, "n_paths"),
        ({"n_workers": 0}, "n_workers"),
        ({"n_workers": -3}, "n_workers"),
        ({"n_workers": 1.5}, "n_workers"),
        ({"n_workers": True}, "n_workers"),
    ],
)
def test_bad_arguments_rejected_by_name(m1_model, kw, match):
    kw = {"beta": 1.0, "n_paths": 10, "seed": 0, **kw}
    with pytest.raises(ValueError, match=match):
        simulate.simulate_paths(m1_model, **kw)
    if "alphas" not in kw and "n_workers" not in kw:
        with pytest.raises(ValueError, match=match):
            simulate.simulate_trace(m1_model, **kw)


def test_integer_arguments_of_any_integer_type(m1_model):
    # numpy integers and the largest seed are integers like any other
    kw = dict(u_queries=(0.5,), alphas=(0.0, 1.0))
    plain = simulate.simulate_paths(m1_model, 1.0, n_paths=300, seed=5, **kw)
    numpy = simulate.simulate_paths(
        m1_model, 1.0, n_paths=np.int64(300), seed=np.uint64(5), n_workers=np.int32(1), **kw
    )
    for key in ("estimates", "stderr"):
        assert repr(numpy.as_dict()[key]) == repr(plain.as_dict()[key])
    top = simulate.simulate_trace(m1_model, 1.0, n_paths=2, seed=2**64 - 1)
    assert len(top) == 2
