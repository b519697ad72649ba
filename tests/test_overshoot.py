import math

import mpmath as mp
import numpy as np
import pytest

from poolruin import claims, ladder, model, overshoot, phase_type, simulate
from poolruin.errors import ChainBudgetExceeded, KillingRequired, RegimeMismatch
from poolruin.ladder import _Recursion

from conftest import random_drift_model


def test_zeta_hand_values(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    # (lam_circ / r)(B(nu) - B(a)) / (a - nu) with nu = 2, B = Exp(1)
    assert math.isclose(table.zeta(1, 0, 0.0), 1.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(table.zeta(1, 0, 1.0), 1.0 / 6.0, rel_tol=1e-14)
    # transform of a strictly positive overshoot vanishes at large argument
    assert table.zeta(1, 0, 1e9) < 1e-8


def test_zeta_confluent_at_ladder_rate(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    nu = 2.0
    center = table.zeta(1, 0, nu)
    # continuity across the removable point: compare against close arguments
    left = table.zeta(1, 0, nu - 1e-6)
    right = table.zeta(1, 0, nu + 1e-6)
    assert math.isclose(center, 0.5 * (left + right), rel_tol=1e-9)
    # exact limit: -(lam_circ / r) B'(nu) = (1/(1+nu)^2)
    assert math.isclose(center, 1.0 / 9.0, rel_tol=1e-12)


def test_xi_level_zero_limit(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    # exponential level with a huge rate is essentially level zero
    assert math.isclose(table.xi(1, 0, 0.0, 1e8), 1.0 / 3.0, rel_tol=1e-6)
    # an enormous level is never exceeded before the kill
    assert table.xi(1, 0, 0.0, 1e-9) < 1e-8


def test_xi_diagonal_continuity(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    g = 0.7
    center = table.xi(1, 0, g, g)
    near_lo = table.xi(1, 0, g - 1e-5, g)
    near_hi = table.xi(1, 0, g + 1e-5, g)
    assert math.isclose(center, 0.5 * (near_lo + near_hi), rel_tol=1e-8)


def test_xi_monotone_in_level_rate():
    # a larger rate means a stochastically smaller exponential level, which
    # makes exceedance before the kill easier: the aggregate over k is
    # nondecreasing, as is the first-claim slice k = n-1.  Individual k < n-1
    # slices need not be monotone (a low level tends to be crossed earlier,
    # while more clients remain).
    rng = np.random.default_rng(17)
    mdl = random_drift_model(rng, m_max=4)
    table = overshoot.OvershootTable(mdl, 1.0)
    gammas = [0.1, 0.5, 1.0, 3.0, 10.0]
    agg = []
    for g in gammas:
        vals = [table.xi(mdl.m, k, 0.0, g) for k in range(mdl.m)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        agg.append(sum(vals))
    assert (np.diff(agg) >= -1e-12).all()
    assert max(agg) <= 1.0 + 1e-12
    first = [table.xi(mdl.m, mdl.m - 1, 0.0, g) for g in gammas]
    assert (np.diff(first) >= -1e-12).all()


def test_zeta_completely_monotone_in_alpha():
    rng = np.random.default_rng(23)
    mdl = random_drift_model(rng, m_max=4)
    table = overshoot.OvershootTable(mdl, 1.0)
    grid = np.linspace(0.0, 6.0, 25)
    for k in range(mdl.m):
        vals = np.array([table.zeta(mdl.m, k, a) for a in grid])
        assert (vals >= -1e-14).all()
        assert (np.diff(vals) <= 1e-12).all()
        assert (np.diff(vals, 2) >= -1e-10).all()


def test_ladder_probabilities_sum_below_one():
    rng = np.random.default_rng(29)
    for _ in range(10):
        mdl = random_drift_model(rng, m_max=5)
        beta = float(rng.uniform(0.2, 2.0))
        table = overshoot.OvershootTable(mdl, beta)
        for n in range(1, mdl.m + 1):
            total = sum(table.zeta(n, k, 0.0) for k in range(n))
            assert -1e-12 <= total <= 1.0 + 1e-12


def test_pi_via_ladders_hand_value(m1_model):
    assert math.isclose(
        overshoot.pi_via_ladders(m1_model, 1.0, 1.0), 5.0 / 6.0, rel_tol=1e-13
    )
    assert overshoot.pi_via_ladders(m1_model, 1.0, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_pi_explicit_chains_m1(m1_model):
    table = overshoot.OvershootTable(m1_model, 1.0)
    want = (1.0 - table.zeta(1, 0, 0.0)) + table.zeta(1, 0, 1.0)
    got = overshoot.pi_explicit_chains(m1_model, 1.0, 1.0)
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(got, 5.0 / 6.0, rel_tol=1e-13)
    assert overshoot.pi_explicit_chains(m1_model, 1.0, 0.0) == pytest.approx(
        1.0, abs=1e-13
    )


def test_three_way_agreement_random_models():
    rng = np.random.default_rng(31)
    for _ in range(12):
        mdl = random_drift_model(rng)
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        table = overshoot.OvershootTable(mdl, beta)
        for a in (0.0, 0.3, 1.0, 2.7, 8.0):
            pd = ladder.pi_max(mdl, beta, mdl.m, a)
            assert abs(pd - table.pi_via_ladders(a)) < 1e-10
            assert abs(pd - table.pi_explicit_chains(a)) < 1e-10


def test_chain_budget():
    rng = np.random.default_rng(37)
    mdl = random_drift_model(rng, m_max=4)
    with pytest.raises(ChainBudgetExceeded):
        overshoot.pi_explicit_chains(mdl, 1.0, 1.0, budget=2 ** (mdl.m) - 1)


def test_killing_required_on_public_wrappers(m1_model):
    with pytest.raises(KillingRequired):
        overshoot.xi(m1_model, 1, 0, 0.0, 0.0, 1.0)
    with pytest.raises(KillingRequired):
        overshoot.zeta(m1_model, 1, 0, 0.0, 0.0)
    with pytest.raises(KillingRequired):
        overshoot.pi_via_ladders(m1_model, 0.0, 1.0)


def test_regime_mismatch():
    mdl = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.brownian_drift(1.0, 1.0)),
    )
    with pytest.raises(RegimeMismatch):
        overshoot.OvershootTable(mdl, 1.0)


def test_ruin_prob_at_zero_hand_value(m1_model):
    # beta = 0: nu = 1, B(1) = 1/2, zeta_{1,0}(0,0) = 1/2
    assert math.isclose(overshoot.ruin_prob_at_zero(m1_model), 0.5, rel_tol=1e-13)


def test_ruin_prob_at_zero_point_mass_claims():
    mdl = model.ModelSpec(
        m=2, lambda_circ=(1.0, 2.0), claims=(claims.PointMass(0.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    assert overshoot.ruin_prob_at_zero(mdl) == pytest.approx(0.0, abs=1e-14)


def test_ruin_prob_at_zero_against_monte_carlo():
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 1.5, 0.7),
        claims=(claims.Exponential(0.9), claims.Erlang(2, 2.0), claims.Exponential(1.5)),
        regimes=(model.drift(0.5), model.drift(1.0), model.drift(2.0), model.drift(0.8)),
    )
    p0 = overshoot.ruin_prob_at_zero(mdl)
    sim = simulate.simulate_paths(mdl, 0.0, u_queries=(0.0,), n_paths=400_000, seed=101)
    freq, se = sim.ruin[0.0]
    assert abs(p0 - freq) < 3 * se


def test_overshoot_transform_against_monte_carlo(m1_model):
    # E e^{-a overshoot(0)} on the hit event, split by the remaining count:
    # the transform at level zero is exactly zeta
    table = overshoot.OvershootTable(m1_model, 1.0)
    paths = simulate.simulate_trace(m1_model, 1.0, u_queries=(0.0,), n_paths=200_000, seed=5)
    vals = np.array([
        math.exp(-1.0 * p.overshoot[0]) if p.ruin_level_hit[0] else 0.0
        for p in paths
    ])
    est = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(est - table.zeta(1, 0, 1.0)) < 3 * se


def test_xi_against_monte_carlo_level_integral():
    # integrate the simulated fixed-level overshoot transform against the
    # exponential level density: that is the definition of xi
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.2, 0.8),
        claims=(claims.Erlang(2, 1.0), claims.Exponential(0.7)),
        regimes=(model.drift(0.6), model.drift(1.0), model.drift(1.5)),
    )
    beta, alpha, gamma = 0.9, 0.5, 1.3
    table = overshoot.OvershootTable(mdl, beta)
    u_grid = np.linspace(0.02, 8.0, 80)
    paths = simulate.simulate_trace(
        mdl, beta, u_queries=u_grid, n_paths=100_000, seed=71
    )
    hit = np.array([p.ruin_level_hit for p in paths])
    over = np.array([p.overshoot for p in paths])
    natr = np.array([p.n_at_ruin for p in paths])
    dens = gamma * np.exp(-gamma * u_grid)
    for k in (0, 1):
        weight = np.where(hit & (natr == k), np.exp(-alpha * over), 0.0)
        eta = np.nan_to_num(weight).mean(axis=0)
        est = np.trapezoid(eta * dens, u_grid)
        est += eta[0] * (1.0 - math.exp(-gamma * u_grid[0]))
        exact = table.xi(2, k, alpha, gamma)
        assert abs(est - exact) < 0.05 * exact + 1e-4


def _ph_two_phase():
    return phase_type.PhaseType(
        delta=np.array([0.6, 0.4]), S=np.array([[-2.0, 1.0], [0.0, -0.5]])
    )


def _mp_ph_lst(x):
    ph = _ph_two_phase()
    S = mp.matrix(ph.S.tolist())
    s = -S * mp.matrix([1, 1])
    inv = (x * mp.eye(2) - S) ** -1
    return (mp.matrix([ph.delta.tolist()]) * inv * s)[0]


# claim law and its transform in mpmath
SLOPE_LAWS = {
    "exp": (claims.Exponential(1.5), lambda x: mp.mpf(1.5) / (mp.mpf(1.5) + x)),
    "erlang": (claims.Erlang(3, 2.0), lambda x: (2 / (2 + x)) ** 3),
    "ph": (claims.PhaseTypeClaim(_ph_two_phase()), _mp_ph_lst),
    "point": (claims.PointMass(0.8), lambda x: mp.exp(-mp.mpf(0.8) * x)),
    "lomax": (
        claims.Lomax(1.0, 1.5),
        lambda x: mp.mpf(1.5) * x**1.5 * mp.exp(x) * mp.gammainc(-1.5, x) if x else mp.mpf(1),
    ),
}


@pytest.mark.parametrize("law", sorted(SLOPE_LAWS))
@pytest.mark.parametrize("c", [0.4, 2.5])
@pytest.mark.parametrize("offset", ["same", "+1e-9", "-1e-4", "+0.3c", "-0.3c", "far", "zero"])
def test_slope_against_mpmath(law, c, offset):
    # B[alpha, c] = (C(alpha) - C(c)) / (alpha - c), removable at alpha = c
    claim, ref = SLOPE_LAWS[law]
    alpha = {
        "same": c, "+1e-9": c + 1e-9, "-1e-4": c - 1e-4, "+0.3c": 1.3 * c,
        "-0.3c": 0.7 * c, "far": 6.0 * c, "zero": 0.0,
    }[offset]
    got = _Recursion(overshoot._Slope(claim, c), ()).value(alpha)
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(c)
        want = mp.diff(ref, b) if alpha == c else (ref(a) - ref(b)) / (a - b)
    assert math.isclose(got, float(want), rel_tol=1e-13)
