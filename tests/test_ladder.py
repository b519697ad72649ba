import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolruin import claims, ladder, model, simulate
from poolruin.config import load_model
from poolruin.errors import KillingRequired, RegimeMismatch

from conftest import random_drift_model

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
        # jet at an interior point against centered differences
        jet_in = ladder.engine(mdl, beta, mdl.m).series(mdl.m, 0.5, 2).jet()
        d1c = (f(0.5 + h) - f(0.5 - h)) / (2 * h)
        d2c = (f(0.5 + h) - 2 * f(0.5) + f(0.5 - h)) / h**2
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
        fresh = [ladder.pi_max(mdl, beta, mdl.m, a) for a in grid]
        for order in (grid, grid[::-1]):
            eng = ladder.engine(mdl, beta, mdl.m)
            shared = {a: eng.value(a) for a in order}
            assert [shared[a] for a in grid] == fresh


def test_coincident_rates_against_phase_type_route():
    # equal rates at every level: all ladder rates coincide
    from poolruin import phase_type

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
    # exercising the shared-anchor path through the post factors
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
