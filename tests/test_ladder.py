import gc
import math
import sys
import threading
import weakref
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolruin import claims, inversion, ladder, model, phase_type, simulate
from poolruin.config import load_model
from poolruin.errors import KillingRequired, PoolRuinError, RegimeMismatch

from conftest import cold, random_drift_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_pi_generic_base_and_hand_value():
    spec = ladder.GenericLadderSpec(
        n=1, nu=(2.0,), c_lsts=(claims.Exponential(1.0),), p0=(0.0,)
    )
    # one step, no atom: nu/(nu-a) (C(a) - (a/nu) C(nu)) at a=1
    assert math.isclose(ladder.pi_generic(spec, 1.0), 2.0 / 3.0, rel_tol=1e-14)
    assert ladder.pi_generic(spec, 0.0) == 1.0
    empty = ladder.GenericLadderSpec(n=0, nu=(), c_lsts=(), p0=())
    assert ladder.pi_generic(empty, 3.7) == 1.0


def test_pi_generic_alpha_zero_any_spec():
    spec = ladder.GenericLadderSpec(
        n=3,
        nu=(2.0, 0.7, 5.0),
        c_lsts=(claims.Exponential(1.0), claims.Erlang(2, 2.0), claims.PointMass(0.3)),
        p0=(0.1, 0.5, 0.0),
    )
    assert ladder.pi_generic(spec, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_atom_at_zero():
    spec = ladder.GenericLadderSpec(
        n=1, nu=(2.0,), c_lsts=(claims.Exponential(1.0),), p0=(0.5,)
    )
    assert math.isclose(ladder.atom_at_zero(spec, 1), 2.0 / 3.0, rel_tol=1e-14)
    assert ladder.atom_at_zero(spec, 0) == 1.0
    # transform limit at a huge argument approaches the atom
    assert abs(ladder.pi_generic(spec, 1e8) - 2.0 / 3.0) < 1e-6


@pytest.mark.parametrize("fig", ["fig2", "fig4", "m1_hand"])
def test_atom_is_the_exact_mass_at_zero(fig):
    # P(M = 0) from the anchors the engine holds, against the exact
    # phase-type law's atom
    mdl, beta = load_model(CONFIGS / f"{fig}.json")
    atom = ladder.engine(cold(mdl), beta, mdl.m).atom()
    assert abs(atom - phase_type.running_max_ph(mdl, beta, mdl.m).delta_abs) <= 1e-14


def test_atom_with_diffusion_is_zero():
    mdl, beta = load_model(CONFIGS / "fig3.json")
    assert ladder.engine(mdl, beta, mdl.m).atom() == 0.0
    alone = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    assert ladder.engine(alone, 1.0, 0).atom() == 0.0


def test_atom_of_jump_levels_against_monte_carlo():
    # compound-Poisson levels with Erlang jumps (the defining formula of
    # the killed maximum) and Exp jumps (its product form), and a level of
    # jumps alone, without a ladder rate
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 1.5, 0.7),
        claims=(claims.Exponential(0.9), claims.Erlang(2, 2.0), claims.Exponential(1.5)),
        regimes=(
            model.compound_poisson_drift(0.5, 0.0, 0.4, claims.Erlang(2, 3.0)),
            model.compound_poisson_drift(1.0, 0.0, 0.5, claims.Exponential(2.0)),
            model.subordinator(0.0, 0.3, claims.Exponential(1.0)),
            model.compound_poisson_drift(2.0, 0.0, 0.8, claims.Erlang(3, 2.0)),
        ),
    )
    beta = 0.8
    atom = ladder.engine(mdl, beta, mdl.m).atom()
    # the transform's limit
    assert 0.0 < atom < ladder.pi_max(mdl, beta, mdl.m, 1e6) < atom + 1e-5
    sim = simulate.simulate_paths(mdl, beta, u_queries=(0.0,), n_paths=100_000, seed=3)
    freq, se = sim.ruin[0.0]
    assert abs(1.0 - atom - freq) < 3 * se


def test_atom_is_the_transform_at_infinity():
    # every kind of level: a subordinator with upward drift (no atom), a
    # flat state (atom one), diffusion with Exp jumps (product form) and a
    # Brownian base; the transform at 1e12 is within 1e-11 of the atom
    mdl = model.ModelSpec(
        m=4,
        lambda_circ=(1.0, 2.0, 0.5, 1.5),
        claims=(claims.Exponential(0.8), claims.Erlang(2, 1.5), claims.PointMass(0.0), claims.Exponential(2.0)),
        regimes=(
            model.brownian_drift(0.5, 1.0),
            model.subordinator(r=-0.5, jump_rate=0.5, jump_law=claims.Exponential(2.0)),
            model.compound_poisson_drift(1.5, 0.3, 1.0, claims.Exponential(2.0)),
            model.drift(0.0),
            model.drift(1.0),
        ),
    )
    for n in range(mdl.m + 1):
        eng = ladder.engine(mdl, 0.8, n)
        assert abs(eng.atom() - eng.value(1e12)) <= 1e-11, n
    assert ladder.engine(mdl, 0.8, 3).atom() > 0.5  # the flat state keeps its atom


def test_pi_drift_hand_values(m1_model):
    assert math.isclose(ladder.pi_max(m1_model, 1.0, 1, 1.0), 5.0 / 6.0, rel_tol=1e-14)
    assert ladder.pi_max(m1_model, 1.0, 1, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert ladder.pi_max(m1_model, 1.0, 0, 2.3) == 1.0


def test_pi_drift_requires_positive_drifts(m1_model):
    bad = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.brownian_drift(1.0, 1.0)),
    )
    # the infinite horizon and the generic realization need the drift model
    with pytest.raises(KillingRequired):
        ladder.pi_max(bad, 0.0, 1, 1.0)
    with pytest.raises(RegimeMismatch):
        ladder.generic_spec_from_drift(bad, 1.0, 1)
    # a positive drift gets a plain ladder level, a Brownian state its
    # ladder level times the killed-maximum series
    assert ladder.engine(m1_model, 1.0, 1).levels[0].post is None
    assert ladder.engine(bad, 1.0, 1).levels[0].post is not None


def test_pi_drift_matches_generic_realization(m1_model):
    rng = np.random.default_rng(42)
    for _ in range(10):
        mdl = random_drift_model(rng)
        beta = float(rng.uniform(0.2, 2.0))
        spec = ladder.generic_spec_from_drift(mdl, beta, mdl.m)
        for a in (0.0, 0.3, 1.0, 5.0):
            assert math.isclose(
                ladder.pi_generic(spec, a),
                ladder.pi_max(mdl, beta, mdl.m, a),
                rel_tol=1e-13,
            )


def test_ruin_transform(m1_model):
    eng = ladder.engine(m1_model, 1.0, 1)
    assert math.isclose(ladder.ruin_transform(eng, 1.0), 1.0 / 6.0, rel_tol=1e-13)
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(1.0),))
    for a in (0.5, 1.0, 3.0):
        assert ladder.ruin_transform(ladder.engine(none, 1.0, 0), a) == 0.0
    with pytest.raises(ValueError):
        ladder.ruin_transform(eng, 0.0)
    # the small-argument limit of the transform is the expected maximum
    jet = ladder.pi_jet(m1_model, 1.0, 1)
    small = ladder.ruin_transform(eng, 1e-7)
    assert math.isclose(small, -jet.d1, rel_tol=1e-5)


def test_pi_jet_values(m1_model):
    jet = ladder.pi_jet(m1_model, 1.0, 1)
    assert jet.v == 1.0
    # E max = E (B - U)+ / 2 with B ~ Exp(1), U ~ Exp(2): equals 1/3
    assert math.isclose(jet.d1, -1.0 / 3.0, rel_tol=1e-12)
    none = model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(model.drift(1.0),))
    jet0 = ladder.pi_jet(none, 1.0, 0)
    assert (jet0.v, jet0.d1, jet0.d2) == (1.0, 0.0, 0.0)


def _unwindowed(eng, x) -> bool:
    """True when ``x`` lies outside the window of every removable point of
    ``eng``, where its jet is taken."""
    return eng._window_level(x) == math.inf


def test_pi_jet_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        mdl = random_drift_model(rng, m_max=4)
        beta = float(rng.uniform(0.3, 2.0))

        def f(a):
            return ladder.pi_max(mdl, beta, mdl.m, a)

        # jet at zero against one-sided second-order differences
        jet = ladder.pi_jet(mdl, beta, mdl.m)
        d1 = (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
        assert math.isclose(jet.d1, d1, rel_tol=1e-6, abs_tol=1e-8)
        # jet at an interior point outside every window against centered
        # differences
        eng = ladder.engine(mdl, beta, mdl.m)
        x = next(x for x in (0.5, 0.25, 1.2, 0.1, 3.0, 0.03) if _unwindowed(eng, x))
        jet_in = eng.jet(x)
        d1c = (f(x + h) - f(x - h)) / (2 * h)
        d2c = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
        assert math.isclose(jet_in.d1, d1c, rel_tol=1e-6, abs_tol=1e-9)
        # the second difference carries an eps/h^2 ~ 1e-6 roundoff floor
        assert math.isclose(jet_in.d2, d2c, rel_tol=1e-3, abs_tol=2e-5)


def test_levy_collapses_to_drift_on_drift_models():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mdl = random_drift_model(rng)
        beta = float(rng.uniform(0.3, 2.0))
        # the killed maximum of a positive drift is zero: its series is one
        for reg in mdl.regimes:
            one = model.killed_max_series(reg, 0.7, 1.0 + beta, 3)
            assert one.c == (1.0, 0.0, 0.0, 0.0)
        spec = ladder.generic_spec_from_drift(mdl, beta, mdl.m)
        for a in (0.0, 0.4, 1.1, 3.0, 9.0):
            assert abs(
                ladder.pi_max(mdl, beta, mdl.m, a) - ladder.pi_generic(spec, a)
            ) <= 1e-12


def test_levy_base_case_is_killed_max_factor():
    mdl = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    # Brownian motion with drift 1 and variance 1 killed at rate 1: its
    # maximum is exponential with rate eta = 1 + sqrt(3)
    eta = 1.0 + math.sqrt(3.0)
    for a in (0.0, 0.5, 2.0):
        got = ladder.pi_max(mdl, 1.0, 0, a)
        assert math.isclose(got, eta / (eta + a), rel_tol=1e-13)
    # a subordinator at state 0: Z(t) = t killed at rate 1 ends at an Exp(1) level
    sub = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.subordinator(r=-1.0),)
    )
    for a in (0.0, 0.5, 2.0):
        got = ladder.pi_max(sub, 1.0, 0, a)
        assert math.isclose(got, 1.0 / (1.0 + a), rel_tol=1e-14)


def test_levy_requires_killing():
    mdl = model.ModelSpec(
        m=0, lambda_circ=(), claims=(), regimes=(model.brownian_drift(1.0, 1.0),)
    )
    with pytest.raises(KillingRequired):
        ladder.pi_max(mdl, 0.0, 0, 1.0)


def test_levy_against_monte_carlo_brownian():
    # two clients, Brownian regimes: transform vs simulated killed maximum
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(0.25, 0.5),
        claims=(claims.Exponential(0.25),) * 2,
        regimes=(
            model.brownian_drift(0.0, 1.0),
            model.brownian_drift(1.0, 1.0),
            model.brownian_drift(2.0, 1.0),
        ),
    )
    sim = simulate.simulate_paths(mdl, 1.0, n_paths=400_000, seed=2024, alphas=(1.0,))
    est, se = sim.lst[1.0]
    exact = ladder.pi_max(mdl, 1.0, 2, 1.0)
    assert abs(est - exact) < 3 * se


def test_levy_subordinator_chain_against_monte_carlo():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Exponential(0.8), claims.Erlang(2, 1.5)),
        regimes=(
            model.drift(1.0),
            model.subordinator(r=-0.5, jump_rate=0.5, jump_law=claims.Exponential(2.0)),
            model.brownian_drift(1.0, 1.0),
        ),
    )
    sim = simulate.simulate_paths(mdl, 1.0, n_paths=300_000, seed=77, alphas=(0.5, 1.0))
    for a in (0.5, 1.0):
        est, se = sim.lst[a]
        exact = ladder.pi_max(mdl, 1.0, 2, a)
        assert abs(est - exact) < 3 * se


def test_monotone_in_alpha_and_beta():
    rng = np.random.default_rng(5)
    mdl = random_drift_model(rng)
    alphas = np.linspace(0.0, 6.0, 13)
    vals = [ladder.pi_max(mdl, 1.0, mdl.m, a) for a in alphas]
    assert all(0 < v <= 1 for v in vals)
    assert (np.diff(vals) <= 1e-12).all()
    # shorter horizons (larger beta) push the maximum down, the transform up
    betas = np.linspace(0.1, 4.0, 9)
    vals_b = [ladder.pi_max(mdl, b, mdl.m, 1.0) for b in betas]
    assert (np.diff(vals_b) >= -1e-12).all()


def test_normalization_all_paths_including_subordinator():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Exponential(1.0),) * 2,
        regimes=(
            model.drift(1.0),
            model.subordinator(r=-0.3),
            model.brownian_drift(0.5, 1.0),
        ),
    )
    assert abs(ladder.pi_max(mdl, 0.7, 2, 0.0) - 1.0) <= 1e-12


def test_nondecreasing_level_is_the_division_step():
    # a level without a ladder rate, (p0 + w C F_{k-1}) K with
    # K = lam / (lam - phi), is the division step of a nondecreasing path,
    # here a subordinator (k = 1) and a flat state (k = 3) between ladder
    # levels
    mdl = model.ModelSpec(
        m=4,
        lambda_circ=(1.0, 2.0, 0.5, 1.5),
        claims=(
            claims.Exponential(0.8),
            claims.Erlang(2, 1.5),
            claims.Exponential(1.2),
            claims.Exponential(2.0),
        ),
        regimes=(
            model.brownian_drift(0.5, 1.0),
            model.subordinator(r=-0.5, jump_rate=0.5, jump_law=claims.Exponential(2.0)),
            model.compound_poisson_drift(1.5, 0.3, 1.0, claims.Exponential(2.0)),
            model.drift(0.0),
            model.brownian_drift(1.0, 0.5),
        ),
    )
    beta = 0.8
    eng = ladder.engine(mdl, beta, mdl.m)
    for k in (1, 3):
        assert eng.levels[k - 1].nu is None
        lam_circ = mdl.rate_for_state(k)
        lam = lam_circ + beta
        for x in (0.0, 0.3, 2.5, 7.0):
            assert _unwindowed(eng, x)
            prev = eng.level_value(k - 1, x)
            c = mdl.claim_for_state(k).lst(x)
            phi = model.laplace_exponent(mdl.regimes[k], x)
            want = (beta + lam_circ * c * prev) / (lam - phi)
            assert math.isclose(eng.level_value(k, x), want, rel_tol=1e-15)


def _purity_models():
    yield random_drift_model(np.random.default_rng(9)), 1.0
    for name in ("fig2", "fig3", "fig4", "fig5", "m1_hand"):
        yield load_model(CONFIGS / f"{name}.json")
    yield model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 2.0, 0.5),
        claims=(
            claims.Exponential(0.8), claims.Erlang(2, 1.5), claims.Exponential(1.2)
        ),
        regimes=(
            model.brownian_drift(0.5, 1.0),
            model.subordinator(r=-0.5, jump_rate=0.5, jump_law=claims.Exponential(2.0)),
            model.compound_poisson_drift(1.5, 0.3, 1.0, claims.Exponential(2.0)),
            model.brownian_drift(1.0, 0.5),
        ),
    ), 1.0
    # clustered ladder rates: a memo that truncates higher-order expansions
    # gave -2.66 at alpha = 1 after alpha = 0.25 and 0.5, -2.81 fresh
    yield model.ModelSpec(
        m=6,
        lambda_circ=(1.796, 0.775, 0.295, 4.298, 1.022, 1.219),
        claims=tuple(
            claims.Exponential(mu) for mu in (0.663, 1.769, 0.469, 1.054, 2.88, 2.463)
        ),
        regimes=tuple(
            model.drift(r) for r in (2.428, 4.938, 2.173, 1.1, 3.121, 2.872, 3.28)
        ),
    ), 1.0


def test_memoization_purity():
    # one engine over a grid, in either direction, gives a fresh engine's
    # value bit for bit
    grid = (0.0, 0.25, 0.5, 0.7, 1.0, 2.0, 2.9, 8.0)
    for mdl, beta in _purity_models():
        fresh = [ladder.pi_max(cold(mdl), beta, mdl.m, a) for a in grid]
        for order in (grid, grid[::-1]):
            eng = ladder.engine(cold(mdl), beta, mdl.m)
            shared = {a: eng.value(a) for a in order}
            assert [shared[a] for a in grid] == fresh


def test_coincident_rates_against_phase_type_route():
    # equal rates at every level: all ladder rates coincide
    mdl = model.ModelSpec(
        m=5,
        lambda_circ=(1.0,) * 5,
        claims=(claims.Erlang(2, 1.3),) * 5,
        regimes=(model.drift(1.0),) * 6,
    )
    ph = phase_type.running_max_ph(mdl, 1.0, 5)
    nu = 2.0
    for a in (nu, nu + 1e-9, nu - 1e-6, nu + 1e-3, nu - 0.05, 0.9, 7.0):
        assert abs(
            phase_type.ph_lst(ph, a) - ladder.pi_max(mdl, 1.0, 5, a)
        ) < 1e-12


def _deep_pool(kind, m, shape="spread"):
    """Exp(1) claims.  ``spread``: lambda_circ[i] = i + 1 and r = (0, 1, ...,
    1), ladder rates spread up to m; ``cluster``: lambda_circ[i] = (i + 1)/4
    and r_k = k, ladder rates bunched towards 1/4."""
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


def test_spread_pool_of_forty_clients():
    # forty spread ladder rates, each within the window of its neighbours
    drift = _deep_pool("drift", 40)
    want = phase_type.ph_lst(phase_type.running_max_ph(drift, 1.0, 40), 1.0)
    got = ladder.pi_max(drift, 1.0, 40, 1.0)
    assert abs(got - want) <= 1e-15 * want
    cp = ladder.pi_max(_deep_pool("cp", 40), 1.0, 40, 1.0)
    assert math.isfinite(cp) and 0.0 <= cp <= 1.0


def _mp_direct(mdl, beta, alpha):
    """pi_max by the recursion's defining formula in mpmath at the working
    precision: every killed-maximum factor is (psi - z) / (lam - phi(z))
    lam / psi with psi from ``findroot``, every point is evaluated
    directly, no contour and no product form.  Exp claims and jumps only."""

    def lst(law, z):
        return law.mu / (law.mu + z)

    def phi(reg, a):
        val = reg.r * a + mp.mpf(reg.sigma2) / 2 * a * a
        if reg.jump_rate > 0:
            val -= reg.jump_rate * (1 - lst(reg.jump_law, a))
        return val

    def factor(reg, lam):
        if reg.pure_drift and reg.r >= 0:
            return None, lambda z: 1
        start = mp.mpf(model.inverse_exponent(reg, lam))
        psi = mp.findroot(lambda a: phi(reg, a) - lam, start)
        return psi, lambda z: (psi - z) / (lam - phi(reg, z)) * lam / psi

    beta = mp.mpf(beta)
    levels = []
    for k in range(1, mdl.m + 1):
        lam = mdl.rate_for_state(k) + beta
        nu, post = factor(mdl.regimes[k], lam)
        claim = mdl.claim_for_state(k)
        levels.append((nu, claim, beta / lam, mdl.rate_for_state(k) / lam, post))
    base = factor(mdl.regimes[0], beta)[1]
    memo = {}

    def f(k, z):
        if k == 0:
            return base(z)
        if (k, z) not in memo:
            nu, claim, p0, w, post = levels[k - 1]
            anchor = lst(claim, nu) * f(k - 1, nu)
            step = lst(claim, z) * f(k - 1, z) - z / nu * anchor
            memo[(k, z)] = (p0 + w * nu / (nu - z) * step) * post(z)
        return memo[(k, z)]

    return f(mdl.m, mp.mpf(alpha))


@pytest.mark.parametrize("m", [5, 10])
@pytest.mark.parametrize("shape", ["cluster", "spread"])
@pytest.mark.parametrize("kind", ["bm", "cp"])
def test_deep_pools_against_a_direct_recursion(kind, shape, m):
    # Brownian and exponential-jump regimes: product-form factors on every
    # level and at the base, against the defining formula at 60 digits
    mdl = _deep_pool(kind, m, shape)
    with mp.workdps(60):
        want = float(_mp_direct(mdl, 1.0, 1.0))
    assert abs(ladder.pi_max(mdl, 1.0, m, 1.0) - want) <= 1e-14 * want


def test_contour_mean_refuses_a_circle_its_own_estimate_refutes(monkeypatch):
    # The top-level circle of this pool at radius 0.97 x has a tracked
    # error bound of 1.2e-14, but F grows like |C(z)|^m left of the centre,
    # beyond the |F| <= 1 the bound assumes, and its mean is 1.6% off.
    # Forced by the ring selection to that circle alone, tracked, the point
    # is refused.
    m = 60
    rings = ladder._Recursion._rings

    def widest_only(self, blocks):
        out = rings(self, blocks)
        return [
            (ladder.RADII[-1:] * x, None) if (level, x) == (m, 1.0) else ring
            for (level, x), ring in zip(blocks, out)
        ]

    mdl = _deep_pool("cp", m)
    monkeypatch.setattr(ladder._Recursion, "_rings", widest_only)
    with pytest.raises(PoolRuinError, match="own error estimate"):
        ladder.pi_max(mdl, 1.0, m, 1.0)
    monkeypatch.undo()
    # the choice among all radii passes its estimate
    assert 0.0 < ladder.pi_max(_deep_pool("cp", m), 1.0, m, 1.0) < 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_pi_drift_is_probability_lst(seed, beta):
    rng = np.random.default_rng(seed)
    mdl = random_drift_model(rng, m_max=4)
    vals = [ladder.pi_max(mdl, beta, mdl.m, a) for a in (0.0, 0.5, 1.5, 4.0)]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(0 < v <= 1 + 1e-12 for v in vals)
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_levy_identical_regimes_singular_cluster():
    # identical Brownian states: every killed-max critical point coincides,
    # exercising contour means through the killed-maximum factors
    reg = model.brownian_drift(1.0, 1.0)
    m = 4
    mdl = model.ModelSpec(
        m=m,
        lambda_circ=(1.0,) * m,
        claims=(claims.Exponential(0.8),) * m,
        regimes=(reg,) * (m + 1),
    )
    beta = 1.0
    psi = model.inverse_exponent(reg, 1.0 + beta)
    grid = psi + np.linspace(-0.2, 0.2, 41)
    vals = np.array([ladder.pi_max(mdl, beta, m, float(a)) for a in grid])
    assert (np.diff(vals) <= 1e-12).all()
    # smooth through the removable point: third differences at grid scale
    assert np.max(np.abs(np.diff(vals, 3))) < 1e-6
    assert ladder.pi_max(mdl, beta, m, 0.0) == pytest.approx(1.0, abs=1e-13)
    sim = simulate.simulate_paths(
        mdl, beta, n_paths=200_000, seed=55, alphas=(float(psi),)
    )
    est, se = sim.lst[float(psi)]
    assert abs(ladder.pi_max(mdl, beta, m, float(psi)) - est) < 3 * se


@pytest.mark.parametrize("shape", ["cluster", "spread"])
@pytest.mark.parametrize("m", [30, 60, 100])
def test_deep_drift_pools_match_the_phase_type_law(m, shape):
    # clustered rates need large circles, spread ones small circles
    mdl = _deep_pool("drift", m, shape)
    want = phase_type.ph_lst(phase_type.running_max_ph(mdl, 1.0, m), 1.0)
    got = ladder.pi_max(mdl, 1.0, m, 1.0)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("shape", ["cluster", "spread"])
@pytest.mark.parametrize("kind", ["bm", "cp"])
def test_deep_levy_pools_against_monte_carlo(kind, shape):
    m = 60
    mdl = _deep_pool(kind, m, shape)
    exact = ladder.pi_max(mdl, 1.0, m, 1.0)
    sim = simulate.simulate_paths(mdl, 1.0, n_paths=200_000, seed=606, alphas=(1.0,))
    est, se = sim.lst[1.0]
    assert abs(est - exact) < 3 * se


# transform_battery seed 4 model r125 (perfbench/workloads.py): six clients
# whose ladder rates 0.57 to 1.70 lie within the window of one another
R125 = model.ModelSpec(
    m=6,
    lambda_circ=(
        1.795786592956297, 0.7745489930839382, 0.2952338662505706,
        4.297633078577266, 1.0221846484281414, 1.2193805991819893,
    ),
    claims=(
        claims.Erlang(1, 0.6631897735290351),
        claims.Exponential(1.7694241321358124),
        claims.Exponential(0.4686492821266019),
        claims.Exponential(1.0539551145345774),
        claims.Exponential(2.8801586295530845),
        claims.Exponential(2.463192191563136),
    ),
    regimes=tuple(
        model.drift(r)
        for r in (
            2.428346288516, 4.938156067973213, 2.17268495113941, 1.10002176193055,
            3.1212065075021282, 2.871937347666952, 3.2801675179696774,
        )
    ),
)
R125_AT_ONE = 0.780777453279751  # the phase-type law, one block per client


def test_r125_pinned_on_every_route():
    from poolruin import overshoot, phase_type

    exact = phase_type.ph_lst(phase_type.running_max_ph(R125, 1.0, 6), 1.0)
    assert abs(exact - R125_AT_ONE) <= 1e-15
    routes = (
        ladder.pi_max(R125, 1.0, 6, 1.0),
        overshoot.pi_via_ladders(R125, 1.0, 1.0),
        overshoot.pi_explicit_chains(R125, 1.0, 1.0),
    )
    for got in routes:
        assert abs(got - R125_AT_ONE) <= 1e-12 * R125_AT_ONE


def _order_models():
    yield R125, 1.0
    yield _deep_pool("bm", 8, "cluster"), 1.0
    yield _deep_pool("cp", 8, "spread"), 1.0
    yield load_model(CONFIGS / "fig5.json")
    yield next(_purity_models())
    # stacks of windowed anchors past numpy's temporary-elision threshold
    yield _deep_pool("bm", 100, "cluster"), 1.0
    yield _deep_pool("drift", 60, "cluster"), 1.0
    # Lomax claims, whose series and continued fraction stop at each node's
    # own convergence, with ladder rates near 1 and near 3
    yield model.ModelSpec(
        m=4,
        lambda_circ=(0.8, 1.0, 4.6, 5.0),
        claims=(claims.Lomax(1.0, 1.5),) * 4,
        regimes=(model.drift(1.0),) + (model.drift(2.0),) * 4,
    ), 1.0


def test_values_do_not_depend_on_request_order():
    # windowed and plain points, the ladder rates themselves among them
    for mdl, beta in _order_models():
        # every anchor stacked in the sweeps of one request, against one
        # anchor per request, from the bottom level up
        stacked = ladder.engine(cold(mdl), beta, mdl.m)
        stepped = ladder.engine(cold(mdl), beta, mdl.m)
        for k, lv in enumerate(stepped.levels, start=1):
            if lv.nu is not None:
                stepped.level_value(k - 1, lv.nu)
        assert repr(stacked.value(1.0)) == repr(stepped.value(1.0))
        eng = ladder.engine(mdl, beta, mdl.m)
        rates = [lv.nu for lv in eng.levels if lv.nu is not None]
        points = [0.0, 1e-3, 0.3, 1.0, 4.0] + rates + [1.01 * x for x in rates]
        forward = ladder.engine(cold(mdl), beta, mdl.m)
        backward = ladder.engine(cold(mdl), beta, mdl.m)
        ahead = {x: repr(forward.value(x)) for x in points}
        behind = {x: repr(backward.value(x)) for x in reversed(points)}
        assert ahead == behind
        # jets are taken outside every window only
        plain = [x for x in points if _unwindowed(eng, x)]
        assert plain
        jets = [repr(ladder.engine(cold(mdl), beta, mdl.m).jet(x, order=1)) for x in plain]
        assert jets == [repr(forward.jet(x, order=1)) for x in plain]


def _stack_spy(monkeypatch, refuse=False) -> list:
    """The blocks of every contour stack built from now on; with
    ``refuse``, building one fails the test instead."""
    stacked = []
    stack = ladder._Recursion._stack

    def spy(self, blocks):
        if refuse:
            raise AssertionError(f"contour means at {blocks}")
        stacked.extend(blocks)
        return stack(self, blocks)

    monkeypatch.setattr(ladder._Recursion, "_stack", spy)
    return stacked


def test_a_certified_windowed_point_builds_no_contour(monkeypatch):
    # fig2: five levels, with ladder rates 1.25, 0.75, 0.58, 0.5 and 0.45;
    # 1.1 times the first lies in its window, where the direct formula's
    # amplification bound is 2, and so do the anchors below it
    mdl, beta = load_model(CONFIGS / "fig2.json")
    eng = ladder.engine(mdl, beta, mdl.m)
    assert len(eng.levels) <= ladder._FLOAT_LEVELS
    x = 1.1 * eng.levels[0].nu
    assert eng._window_level(x) <= mdl.m
    with monkeypatch.context() as patch:
        _stack_spy(patch, refuse=True)
        value = eng.value(x)
    want = phase_type.ph_lst(phase_type.running_max_ph(mdl, beta, mdl.m), x)
    assert abs(value - want) <= 1e-15
    # on a ladder rate, or within 1e-8 of one, the bound is refused
    stacked = _stack_spy(monkeypatch)
    for lv in eng.levels:
        for y in (lv.nu, lv.nu * (1.0 + 1e-8), lv.nu * (1.0 - 1e-8)):
            eng.value(y)
            assert (mdl.m, y) in stacked, y


def test_a_certified_point_has_one_value_however_asked():
    mdl, beta = load_model(CONFIGS / "fig2.json")
    rates = [lv.nu for lv in ladder.engine(mdl, beta, mdl.m).levels]
    x = 1.1 * rates[0]
    alone = ladder.engine(cold(mdl), beta, mdl.m)
    prefetched = ladder.engine(cold(mdl), beta, mdl.m)
    prefetched._prefetch([*inversion._abscissae(2.0)[1], x])
    after = ladder.engine(cold(mdl), beta, mdl.m)
    for y in [*rates, 0.3, 1.2 * rates[-1], 0.9 * rates[1]]:
        after.value(y)
    assert not alone._contour(mdl.m, x)
    assert repr(alone.value(x)) == repr(prefetched.value(x)) == repr(after.value(x))


# pi_max of the deep pools at alpha in (0.3, 1.0, 2.6), all contour means
# in the windows, as before small engines took direct values there
LARGE_ENGINE_VALUES = {
    (10, "drift", "spread"): (0.4116703822417267, 0.2029964002998647, 0.13936829383907995),
    (10, "drift", "cluster"): (0.9389468714253916, 0.8763085040734944, 0.8304561366254373),
    (10, "bm", "spread"): (0.38643795428306155, 0.17334151637754353, 0.09780515579373827),
    (10, "bm", "cluster"): (0.9221918587509232, 0.829669038570402, 0.7297115896842828),
    (10, "cp", "spread"): (0.42800067366297934, 0.21273789730758735, 0.1444876821525371),
    (10, "cp", "cluster"): (0.9354344795279264, 0.8675633800743341, 0.8160128712612127),
    (30, "drift", "spread"): (0.145172513947941, 0.06675306676795445, 0.04617678854056978),
    (30, "drift", "cluster"): (0.932333581916746, 0.8640887130480329, 0.81484116138116),
    (30, "bm", "spread"): (0.14041389904125692, 0.060242863342739705, 0.03612026371434817),
    (30, "bm", "cluster"): (0.9266438334483861, 0.848024986682655, 0.7787017842036748),
    (30, "cp", "spread"): (0.14776163310798074, 0.06758856955051248, 0.04657569985997691),
    (30, "cp", "cluster"): (0.9312481053312299, 0.8612809168783424, 0.8100856268847343),
}


@pytest.mark.parametrize("m, kind, shape", list(LARGE_ENGINE_VALUES), ids=str)
def test_large_engines_keep_contour_means(m, kind, shape):
    mdl = _deep_pool(kind, m, shape)
    eng = ladder.engine(mdl, 1.0, m)
    assert len(eng.levels) > ladder._FLOAT_LEVELS
    contour_only = ladder._Recursion(eng.base, eng.levels)
    got = tuple(eng.value(x) for x in (0.3, 1.0, 2.6))
    assert repr(got) == repr(tuple(contour_only.value(x) for x in (0.3, 1.0, 2.6)))
    assert repr(got) == repr(LARGE_ENGINE_VALUES[(m, kind, shape)])


def test_direct_values_in_the_windows_against_the_phase_type_law():
    # seeded drift models with Exp and Erlang claims: every windowed point
    # near a ladder rate that takes the direct formula is within the
    # certificate's level of the exact transform
    direct = 0
    for seed in range(60):
        for beta in (0.5, 1.0, 2.0):
            mdl = random_drift_model(np.random.default_rng(seed))
            eng = ladder.engine(mdl, beta, mdl.m)
            ph = phase_type.running_max_ph(mdl, beta, mdl.m)
            for lv in eng.levels:
                for x in (0.7 * lv.nu, 0.9 * lv.nu, 1.1 * lv.nu, 1.3 * lv.nu):
                    if eng._window_level(x) > mdl.m or eng._contour(mdl.m, x):
                        continue
                    direct += 1
                    err = abs(eng.value(x) - phase_type.ph_lst(ph, x))
                    assert err <= ladder.MAX_BOUND * ladder._DIRECT_SHARE, (seed, beta, x)
    assert direct > 1000


def test_generic_spec_takes_claim_laws_only():
    with pytest.raises(TypeError):
        ladder.GenericLadderSpec(n=1, nu=(2.0,), c_lsts=(lambda a: 1.0 / (1.0 + a),), p0=(0.0,))


def test_no_jet_inside_a_window(m1_model):
    # contour means give values only: a jet at a removable point is refused
    eng = ladder.engine(m1_model, 1.0, 1)
    nu = eng.levels[0].nu
    assert 0.0 <= eng.value(nu) <= 1.0
    with pytest.raises(ValueError, match="window"):
        eng.jet(nu)
    with pytest.raises(ValueError, match="window"):
        eng.jet(1.2 * nu, order=1)


@pytest.mark.parametrize("piece", ["slope", "overshoot_base", "overshoot_form"])
def test_no_jet_of_a_base_without_series(piece):
    # the overshoot route's bases give values only: a jet is refused up
    # front, naming the base, at any point
    from poolruin.overshoot import _OvershootBase, _OvershootForm, _Slope

    law = claims.Exponential(1.3)
    base = {
        "slope": _Slope(law, 2.0),
        "overshoot_base": _OvershootBase(law, alpha=1.0, nu=2.0, scale=0.8, dd=-0.3),
        "overshoot_form": _OvershootForm(law.divided_difference(1.0, 2.0), 0.8, law.mu),
    }[piece]
    eng = ladder._Recursion(base, ())
    for x in (0.0, 5.0):
        with pytest.raises(ValueError, match=type(base).__name__):
            eng.jet(x)


def test_unresolved_contour_is_an_error(monkeypatch):
    # a point on a ladder rate is a contour mean; with no acceptable bound
    # the engine refuses rather than returning an unchecked value
    from poolruin.errors import PoolRuinError

    monkeypatch.setattr(ladder, "MAX_BOUND", 0.0)
    eng = ladder.engine(cold(R125), 1.0, 6)
    with pytest.raises(PoolRuinError, match="no contour"):
        eng.value(1.0)


def _cp_pool(m, s2, jump_law):
    return model.ModelSpec(
        m=m,
        lambda_circ=tuple(float(i + 1) for i in range(m)),
        claims=(claims.Exponential(1.0),) * m,
        regimes=tuple(
            model.compound_poisson_drift(1.0 + 0.1 * k, s2, 1.0, jump_law)
            for k in range(m + 1)
        ),
    )


@pytest.mark.parametrize("s2", [0.0, 0.5])
def test_exponential_jump_levels_take_no_exponent_series(s2):
    # psi in closed form and the killed maximum in product form: no Newton
    # with series derivatives, no series of the exponent, at any level
    forbidden = mock.patch.object(
        model, "exponent_series", side_effect=AssertionError("exponent_series")
    )
    mdl = _cp_pool(30, s2, claims.Exponential(2.0))
    with forbidden:
        eng = ladder.engine(mdl, 1.0, 30)
        value = ladder.pi_max(mdl, 1.0, 30, 1.0)
        jet = ladder.pi_jet(mdl, 1.0, 30)
    assert len(eng.levels) == 30 and 0.0 < value < 1.0
    assert math.isclose(jet.v, 1.0, rel_tol=1e-14) and jet.d1 < 0.0 < jet.d2
    # the patch holds: a jump law without a product form takes the series
    with forbidden, pytest.raises(AssertionError, match="exponent_series"):
        ladder.engine(_cp_pool(30, s2, claims.Erlang(2, 2.0)), 1.0, 30)


def test_one_engine_per_model_object_beta_and_n():
    mdl = _deep_pool("bm", 4, "cluster")
    eng = ladder.engine(mdl, 1.0, 4)
    assert ladder.engine(mdl, 1.0, 4) is eng
    assert ladder.engine(mdl, 1.0, 3) is not eng
    assert ladder.engine(mdl, 1.0, 4) is eng
    # matched by identity: an equal copy has engines of its own
    copy = cold(mdl)
    assert copy == mdl
    assert ladder.engine(copy, 1.0, 4) is not eng
    assert ladder.engine(mdl, 1.0, 4) is not eng  # the copy took the slot


def test_threads_do_not_share_engines():
    mdl = _deep_pool("drift", 4, "cluster")
    eng = ladder.engine(mdl, 1.0, 4)
    got = []
    worker = threading.Thread(target=lambda: got.append(ladder.engine(mdl, 1.0, 4)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got[0] is not eng
    assert repr(got[0].value(1.0)) == repr(eng.value(1.0))
    # the other thread's request left this thread's slot alone
    assert ladder.engine(mdl, 1.0, 4) is eng


def test_one_pair_is_kept_per_thread():
    mdl = _deep_pool("drift", 4, "cluster")
    held = weakref.ref(ladder.engine(mdl, 1.0, 4))
    gc.collect()
    assert held() is not None
    ladder.pi_max(mdl, 2.0, 4, 1.0)  # another beta replaces the slot
    gc.collect()
    assert held() is None
    # the slot holds no strong reference to its model
    other = _deep_pool("cp", 4, "cluster")
    ladder.pi_max(other, 1.0, 4, 1.0)
    kept = weakref.ref(other)
    del other
    gc.collect()
    assert kept() is None


def test_a_kept_engine_skips_the_contours_it_holds(monkeypatch):
    # clustered ladder rates: every anchor is a contour mean
    mdl = _deep_pool("drift", 8, "cluster")
    calls = []
    lst_complex = claims.Exponential.lst_complex

    def counted(self, z):
        calls.append(z.shape)
        return lst_complex(self, z)

    monkeypatch.setattr(claims.Exponential, "lst_complex", counted)
    ladder.pi_max(mdl, 1.0, 8, 1.0)
    assert calls
    calls.clear()
    ladder.pi_max(mdl, 1.0, 8, 2.0)  # outside every window
    assert calls == []


def test_a_kept_engine_keeps_no_failed_result(monkeypatch):
    from poolruin import overshoot
    from poolruin.errors import PoolRuinError

    fresh = cold(R125)
    want = ladder.pi_max(fresh, 1.0, 6, 1.0), overshoot.pi_via_ladders(fresh, 1.0, 1.0)
    mdl = cold(R125)
    monkeypatch.setattr(ladder, "MAX_BOUND", 0.0)
    eng = ladder.engine(mdl, 1.0, 6)
    for _ in range(2):
        with pytest.raises(PoolRuinError, match="no contour"):
            ladder.pi_max(mdl, 1.0, 6, 1.0)
        with pytest.raises(PoolRuinError, match="no contour"):
            overshoot.pi_via_ladders(mdl, 1.0, 1.0)
    monkeypatch.undo()
    # the same kept state, now with every contour accepted
    got = eng.value(1.0), overshoot.pi_via_ladders(mdl, 1.0, 1.0)
    assert ladder.engine(mdl, 1.0, 6) is eng
    assert repr(got) == repr(want)


FIGURE_GRID = [x / 2 for x in range(1, 41)]  # as scripts/make_figure_tables.py


def _count_builds(monkeypatch) -> list:
    """The betas of the model engines built from now on, in every thread."""
    builds = []
    model_engine = ladder._model_engine

    def counted(mdl, beta, n):
        builds.append(beta)
        return model_engine(mdl, beta, n)

    monkeypatch.setattr(ladder, "_model_engine", counted)
    return builds


def _moments(mdl, grid) -> str:
    """Per-t (mean, variance) of ``mdl``, as a repr that pins every bit."""
    return repr([_moment(mdl, t) for t in grid])


def _moment(mdl, t) -> tuple:
    return tuple(float(c[0]) for c in inversion.moment_curves(mdl, [t]))


def _distinct_nodes(grid) -> set:
    return {s for t in grid for s in inversion._abscissae(t)[1]}


def test_one_engine_per_distinct_stehfest_node(monkeypatch):
    mdl, _ = load_model(CONFIGS / "fig2.json")
    nodes = _distinct_nodes(FIGURE_GRID)
    n_terms = len(inversion.default_plan())
    assert len(nodes) < len(FIGURE_GRID) * n_terms  # times share nodes
    builds = _count_builds(monkeypatch)
    inversion.moment_curves(mdl, FIGURE_GRID)
    assert len(builds) == len(nodes)
    assert set(builds) == nodes
    # every jet stays kept while the model object is the thread's most recent
    builds.clear()
    inversion.moment_curves(mdl, FIGURE_GRID[::-1])
    ladder.pi_max(mdl, 1.0, mdl.m, 1.0)  # a new beta keeps the jets
    inversion.moment_curves(mdl, FIGURE_GRID)
    assert builds == [1.0]
    # a new model object drops them
    ladder.pi_max(cold(mdl), 1.0, mdl.m, 1.0)
    builds.clear()
    inversion.moment_curves(mdl, FIGURE_GRID[:1])
    assert len(builds) == n_terms


def test_kept_jets_equal_cold_ones():
    mdl, _ = load_model(CONFIGS / "fig3.json")
    grid = [0.5, 1.0, 1.5, 2.0, 4.0, 1.0, 0.5]
    warm = _moments(mdl, grid)
    assert warm == repr([_moment(cold(mdl), t) for t in grid])


def test_threads_keep_jets_of_their_own(monkeypatch):
    mdl, _ = load_model(CONFIGS / "fig2.json")
    grid = FIGURE_GRID[:6]
    here = _moments(mdl, grid)
    builds = _count_builds(monkeypatch)
    got = []
    workers = [
        threading.Thread(target=lambda: got.append(_moments(mdl, grid))) for _ in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers' requests finely
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [here] * 3
    # each worker built an engine per node of its own
    assert sorted(builds) == sorted(list(_distinct_nodes(grid)) * 3)
    builds.clear()
    assert _moments(mdl, grid) == here
    assert builds == []  # and left this thread's jets alone


def test_a_kept_jet_does_not_skip_the_argument_checks():
    mdl = _deep_pool("bm", 3)
    ladder.pi_jet(mdl, 1.0, 3)
    ladder.pi_jet(mdl, 2.0, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="beta must be finite"):
            ladder.pi_jet(mdl, math.nan, 3)
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            ladder.pi_jet(mdl, -1.0, 3)
        for n in (-1, 4):
            with pytest.raises(ValueError, match="n must lie"):
                ladder.pi_jet(mdl, 1.0, n)
        with pytest.raises(KillingRequired):
            ladder.pi_jet(mdl, 0.0, 3)
    assert repr(ladder.pi_jet(mdl, 1.0, 3)) == repr(ladder.pi_jet(cold(mdl), 1.0, 3))


def test_a_failed_jet_is_not_kept(monkeypatch):
    from poolruin.errors import PoolRuinError

    # clustered ladder rates: every anchor of the jet is a contour mean
    mdl = _deep_pool("drift", 8, "cluster")
    want = ladder.pi_jet(cold(mdl), 1.0, 8)
    ladder.pi_jet(mdl, 2.0, 8)
    monkeypatch.setattr(ladder, "MAX_BOUND", 0.0)
    for _ in range(2):
        with pytest.raises(PoolRuinError, match="no contour"):
            ladder.pi_jet(mdl, 1.0, 8)
    monkeypatch.undo()
    builds = _count_builds(monkeypatch)
    assert repr(ladder.pi_jet(mdl, 1.0, 8)) == repr(want)
    assert ladder.pi_jet(mdl, 2.0, 8) is ladder.pi_jet(mdl, 2.0, 8)
    assert builds == []  # the engine of the failed request is still kept


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_non_finite_arguments_are_refused(bad):
    mdl = _deep_pool("drift", 3)
    with pytest.raises(ValueError, match="beta must be finite"):
        ladder.engine(mdl, bad, 3)
    with pytest.raises(ValueError, match="alpha must be finite"):
        ladder.engine(mdl, 1.0, 3).value(bad)


def test_one_sweep_per_request(monkeypatch):
    # a claim law per client, so each level evaluates its own transform at
    # the nodes: one upward sweep costs one call per level, where a contour
    # per anchor, each from the base, cost m (m + 1) / 2
    pools = (
        (30, lambda k: claims.Exponential(1.0 + 1e-3 * k)),
        (12, lambda k: claims.Lomax(1.0 + 1e-3 * k, 1.5)),
    )
    for m, law in pools:
        mdl = _deep_pool("drift", m, "cluster")
        mdl = model.ModelSpec(
            m=m,
            lambda_circ=mdl.lambda_circ,
            claims=tuple(law(k) for k in range(m)),
            regimes=mdl.regimes,
        )
        cls = type(mdl.claims[0])
        calls = []
        lst_complex = cls.lst_complex

        def counted(self, z):
            calls.append(z.shape)
            return lst_complex(self, z)

        monkeypatch.setattr(cls, "lst_complex", counted)
        ladder.pi_max(mdl, 1.0, m, 1.0)
        assert len(calls) <= m + 2, (cls.__name__, len(calls))


NODE_LAWS = {
    "exp": claims.Exponential(1.3),
    "erlang": claims.Erlang(3, 2.0),
    "point": claims.PointMass(0.7),
    "ph2": claims.PhaseTypeClaim(
        phase_type.PhaseType(delta=np.array([0.6, 0.4]), S=np.array([[-2.0, 1.0], [0.0, -3.0]]))
    ),
    "lomax": claims.Lomax(1.0, 1.5),
}


def _node_pieces(law):
    """Every node evaluation the ladder stacks, with ``law`` as the claim or
    jump law: name -> function of the nodes returning arrays."""
    from poolruin.overshoot import _OvershootBase, _OvershootForm, _Slope

    bm = model.brownian_drift(1.0, 1.0)
    cp = model.compound_poisson_drift(1.5, 0.2, 0.8, law)
    # a division level (state 1) under a ladder level with a Brownian
    # killed-maximum factor (state 2)
    eng = ladder.engine(
        model.ModelSpec(
            m=2,
            lambda_circ=(1.0, 2.0),
            claims=(law, law),
            regimes=(bm, model.subordinator(r=-0.5, jump_rate=0.3, jump_law=law), bm),
        ),
        1.0,
        2,
    )
    eng._fill_anchors(2)

    def steps(z):
        f, amp = eng.base.nodes(z)
        out = []
        for k, lv in enumerate(eng.levels, start=1):
            f, amp = eng._step_nodes(k, z, f, amp, lv.claim.lst_complex(z))
            out += [f, amp]
        return out

    pieces = {
        "lst_complex": lambda z: [law.lst_complex(z)],
        "slope": _Slope(law, 2.0).nodes,
        "overshoot_base": _OvershootBase(law, alpha=1.0, nu=2.0, scale=0.8, dd=-0.3).nodes,
        "killed_max_bm": ladder._KilledMax(bm, 2.0, model.inverse_exponent(bm, 2.0)).nodes,
        "killed_max_cp": ladder._KilledMax(cp, 2.0, model.inverse_exponent(cp, 2.0)).nodes,
        "levels": steps,
    }
    dd = law.divided_difference(1.0, 2.0)
    if dd is not None:
        pieces["overshoot_form"] = _OvershootForm(dd, 0.8, law.left_singularity).nodes
    return pieces


@pytest.mark.parametrize("law", NODE_LAWS.values(), ids=list(NODE_LAWS))
def test_every_node_is_computed_on_its_own(law):
    # the circles the ladder stacks around 70 centres: 70 x 8 x 32 = 17,920
    # nodes, 280 KiB of complex values, past numpy's temporary-elision
    # threshold of 256 KiB.  Whole circles, since the ladder never makes a
    # smaller array.
    centres = np.linspace(0.3, 6.0, 70)
    radii = ladder.RADII * centres[:, None]
    z = (centres[:, None, None] + radii[:, :, None] * ladder._UNIT).reshape(-1, ladder.NODES // 2)
    rows = len(ladder.RADII)
    with np.errstate(all="ignore"):
        for name, piece in _node_pieces(law).items():
            stacked = piece(z)
            for i in range(0, len(z), rows):
                alone = piece(z[i : i + rows])
                for a, b in zip(alone, stacked):
                    assert a.tobytes() == b[i : i + rows].tobytes(), (name, float(centres[i // rows]))


def _bound_law(kind, rng):
    mu = float(rng.uniform(0.3, 3.0))
    if kind == "exp":
        return claims.Exponential(mu)
    if kind == "erlang":
        return claims.Erlang(int(rng.integers(2, 4)), mu)
    if kind == "ph":
        p = float(rng.uniform(0.1, 0.9))
        S = np.array([[-mu, mu * p], [0.0, -2.0 * mu]])
        return claims.PhaseTypeClaim(phase_type.PhaseType(delta=np.array([0.5, 0.5]), S=S))
    return claims.Lomax(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.2, 3.5)))


def _bound_regime(kind, rng):
    r = float(rng.uniform(0.3, 3.0))
    if kind == "drift":
        return model.drift(r)
    if kind == "bm":
        return model.brownian_drift(r, float(rng.uniform(0.2, 2.0)))
    if kind == "sub":
        return model.subordinator(r=-0.5 * r, jump_rate=1.0, jump_law=claims.Exponential(2.0))
    jump = claims.Exponential(2.0) if kind == "cp_exp" else claims.Erlang(2, 3.0)
    s2 = float(rng.choice([0.0, 0.4]))
    return model.compound_poisson_drift(r, s2, float(rng.uniform(0.2, 1.5)), jump)


def _tracked_amp(eng, level, x):
    """The rounding amplification tracked on the nodes of every radius of
    ``RADII`` around ``x``, up to ``level``: its largest over each circle."""
    z = x + (ladder.RADII * x)[:, None] * ladder._UNIT
    f, amp = eng.base.nodes(z)
    for k in range(1, level + 1):
        f, amp = eng._step_nodes(k, z, f, amp, eng.levels[k - 1].claim.lst_complex(z))
    return amp.max(axis=1)


def _assert_bound_covers(eng, blocks):
    eng._fill_anchors(blocks[-1][0])
    centres = np.array([x for _, x in blocks])[:, None]
    radii = ladder.RADII * centres
    with np.errstate(all="ignore"):
        base = np.zeros(radii.shape) + eng.base.amp_bound(centres, radii)
        bound = eng._amp_bounds(blocks, centres, radii, base)
        # the array form, in runs of one level or of all, and the float
        # form agree bit for bit
        with mock.patch.object(ladder, "_CHUNK", 1):
            assert eng._amp_bounds(blocks, centres, radii, base).tobytes() == bound.tobytes()
        rows = zip(blocks, radii.tolist(), base.tolist())
        floats = [
            [eng._amp_walk(lv, x, r, a)[-1] for r, a in zip(rs, amps)]
            for (lv, x), rs, amps in rows
        ]
        assert np.array(floats).tobytes() == bound.tobytes()
        for (level, x), row in zip(blocks, bound):
            amp = _tracked_amp(eng, level, x)
            seen = np.isfinite(amp)
            # equal in exact arithmetic only where no factor varies on the
            # circle; the slack is the rounding of the two recurrences
            assert np.all(row[seen] >= amp[seen] * (1.0 - 1e-12)), (level, x, row, amp)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["exp", "erlang", "ph", "lomax"]),
    st.lists(st.sampled_from(["drift", "bm", "sub", "cp_exp", "cp_erlang"]), min_size=2, max_size=5),
)
def test_a_priori_bound_covers_the_tracked_amplification(seed, law, kinds):
    # every factor of the amplification recurrence replaced by its largest
    # modulus on the circle: at least the amplification tracked at the
    # nodes, at every radius, on every level, for every piece
    rng = np.random.default_rng(seed)
    m = len(kinds) - 1
    mdl = model.ModelSpec(
        m=m,
        lambda_circ=tuple(float(v) for v in rng.uniform(0.3, 3.0, m)),
        claims=tuple(_bound_law(law, rng) for _ in range(m)),
        regimes=tuple(_bound_regime(kind, rng) for kind in kinds),
    )
    eng = ladder.engine(mdl, float(rng.uniform(0.3, 2.0)), m)
    centres = [p * (1.0 + float(rng.uniform(-0.3, 0.3))) for p, _ in eng._removable]
    centres += [float(rng.uniform(0.05, 5.0))]
    _assert_bound_covers(eng, [(level, x) for level in range(m + 1) for x in centres])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["exp", "erlang", "ph", "lomax"]))
def test_a_priori_bound_covers_the_overshoot_bases(seed, law):
    from poolruin.overshoot import OvershootTable, _Slope

    rng = np.random.default_rng(seed)
    m = 3
    mdl = model.ModelSpec(
        m=m,
        lambda_circ=tuple(float(v) for v in rng.uniform(0.3, 3.0, m)),
        claims=tuple(_bound_law(law, rng) for _ in range(m)),
        regimes=tuple(model.drift(float(r)) for r in rng.uniform(0.3, 3.0, m + 1)),
    )
    c = float(rng.uniform(0.3, 3.0))
    slope = ladder._Recursion(_Slope(mdl.claims[0], c), ())
    _assert_bound_covers(slope, [(0, c * (1.0 + float(rng.uniform(-0.3, 0.3))))])
    table = OvershootTable(mdl, float(rng.uniform(0.3, 2.0)))
    alpha = float(rng.uniform(0.1, 3.0))
    xi = table._xi_engine(0, alpha)
    # the base's own points, removable in the quotient form only
    points = [p for p, _ in xi._removable] + [alpha, table.nu(1)]
    centres = [p * (1.0 + float(rng.uniform(-0.3, 0.3))) for p in points]
    _assert_bound_covers(xi, [(level, x) for level in range(len(xi.levels) + 1) for x in centres])
