import math

import numpy as np
import pytest
from scipy import stats

from poolruin import claims, heavy_tail, ladder, model, simulate
from poolruin.errors import RegimeMismatch


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
        assert abs(est - model.killed_max_series(reg, a, 1.0, 0).c[0]) < 3 * se


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


def test_unflagged_negative_drift_rejected():
    mdl = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.drift(-1.0),)
    )
    with pytest.raises(RegimeMismatch):
        simulate.simulate_paths(mdl, 1.0, n_paths=10, seed=0)


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
