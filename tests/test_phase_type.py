import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from poolruin import claims, ladder, model, phase_type, simulate
from poolruin.config import load_model
from poolruin.errors import NoConvergence, NotPhaseType, RegimeMismatch
from poolruin.phase_type import (
    PhaseType,
    ph_convolve,
    ph_density,
    ph_lst,
    ph_mean,
    ph_sample,
    ph_tail,
    point_mass_zero,
    running_max_ph,
    spectral_tail,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def exp_ph(mu):
    return PhaseType(delta=np.array([1.0]), S=np.array([[-mu]]))


def fig4_like_model(beta_ignored=None):
    return model.ModelSpec(
        m=5,
        lambda_circ=(1.0, 2.0, 3.0, 4.0, 5.0),
        claims=(claims.Erlang(2, 1.0),) * 5,
        regimes=tuple(model.drift(r) for r in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)),
    )


def test_ph_lst_exponential():
    ph = exp_ph(2.0)
    for a in (0.0, 0.5, 3.0):
        assert math.isclose(ph_lst(ph, a), 2.0 / (2.0 + a), rel_tol=1e-14)


def test_ph_lst_erlang_cross_module():
    er = claims.Erlang(2, 1.0)
    assert math.isclose(ph_lst(er.phase_type(), 1.0), 0.25, rel_tol=1e-13)
    assert ph_lst(er.phase_type(), 0.0) == pytest.approx(1.0, abs=1e-13)


def test_validation_rejects_bad_generators():
    with pytest.raises(ValueError):
        PhaseType(delta=np.array([0.5]), S=np.array([[-1.0]]))  # mass deficit
    with pytest.raises(ValueError):
        PhaseType(delta=np.array([1.0]), S=np.array([[1.0]]))  # positive diagonal
    with pytest.raises(ValueError):
        PhaseType(delta=np.array([1.0, 0.0]), S=np.array([[-1.0, 2.0], [0.0, -1.0]]))


def test_stability_is_relative_to_the_rate_scale():
    # a slow law is stable however small its rates; a singular generator is
    # refused at every scale
    for mu in (1e-15, 1e-300):
        assert claims.Exponential(mu).phase_type().S[0, 0] == -mu
    for scale in (1.0, 1e-20):
        with pytest.raises(ValueError, match="stable"):
            PhaseType(
                delta=np.array([1.0, 0.0]),
                S=scale * np.array([[-1.0, 1.0], [1.0, -1.0]]),
            )


def test_row_sum_tolerance_is_relative_to_the_rate_scale():
    # the diagonal is minus its row's rates, and the row sum rounds on their
    # scale: +1.16e-10 for these rates, and more at 1e3 times them
    a, b, c = 280408.7579860399, 485190.97443163506, 980737.1998012386
    for scale in (1.0, 1e3):
        rates = [scale * a, scale * b, scale * c]
        S = np.diag([-sum(rates), -1.0, -1.0, -1.0])
        S[0, 1:] = rates
        ph = PhaseType(delta=np.array([1.0, 0.0, 0.0, 0.0]), S=S)
        assert ph.S[0, 0] == -sum(rates)
    # at unit scale a positive row sum is still refused
    with pytest.raises(ValueError, match="row sums"):
        PhaseType(delta=np.array([1.0, 0.0]), S=np.array([[-1.0, 1.0 + 1e-6], [0.0, -1.0]]))


def test_running_max_refuses_more_phases_than_the_dense_bound(monkeypatch):
    huge = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Erlang(10**6, 1.0),),
        regimes=(model.drift(1.0),) * 2,
    )
    with pytest.raises(NotPhaseType, match="k = 1000000"):
        running_max_ph(huge, 1.0, 1)
    # the bound is on the stacked blocks: five Erlang(2) laws stack 10 phases
    monkeypatch.setattr(phase_type, "MAX_DENSE_PHASES", 9)
    assert running_max_ph(fig4_like_model(), 1.0, 4).d == 8
    with pytest.raises(NotPhaseType, match="10 phases"):
        running_max_ph(fig4_like_model(), 1.0, 5)


def test_convolve_is_transform_product():
    u, v = exp_ph(1.0), exp_ph(2.0)
    w = ph_convolve(u, v)
    assert w.d == 2
    assert np.allclose(w.S, [[-1.0, 1.0], [0.0, -2.0]])
    assert np.allclose(w.delta, [1.0, 0.0])
    for a in np.linspace(0.0, 5.0, 11):
        assert math.isclose(
            ph_lst(w, a), ph_lst(u, a) * ph_lst(v, a), rel_tol=1e-12, abs_tol=1e-12
        )


def test_convolve_point_mass_identity_and_means():
    u = claims.Erlang(3, 2.0).phase_type()
    assert ph_convolve(u, point_mass_zero()) is u
    assert ph_convolve(point_mass_zero(), u) is u
    v = exp_ph(0.7)
    w = ph_convolve(u, v)
    assert math.isclose(ph_mean(w), ph_mean(u) + ph_mean(v), rel_tol=1e-10)


def test_convolve_with_atoms():
    u = PhaseType(delta=np.array([0.6]), S=np.array([[-1.0]]), delta_abs=0.4)
    v = PhaseType(delta=np.array([0.5]), S=np.array([[-2.0]]), delta_abs=0.5)
    w = ph_convolve(u, v)
    assert math.isclose(w.delta_abs, 0.2)
    for a in (0.0, 0.7, 2.0):
        assert math.isclose(ph_lst(w, a), ph_lst(u, a) * ph_lst(v, a), rel_tol=1e-12)


def test_running_max_one_level_closed_form(m1_model):
    beta = 1.0
    ph = running_max_ph(m1_model, beta, 1)
    lam = 2.0
    nu = 2.0
    mu = 1.0
    assert ph.d == 1
    assert math.isclose(ph.delta[0], (1.0 / lam) * nu / (nu + mu), rel_tol=1e-13)
    atom = beta / lam + (1.0 / lam) * mu / (mu + nu)
    assert math.isclose(ph.delta_abs, atom, rel_tol=1e-13)
    assert np.allclose(ph.S, [[-mu]])
    # atom agrees with the ladder route
    spec = ladder.generic_spec_from_drift(m1_model, beta, 1)
    assert abs(ph.delta_abs - ladder.atom_at_zero(spec, 1)) < 1e-12
    # and with the transform limit
    assert abs(ph_lst(ph, 1e9) - ph.delta_abs) < 1e-8


def test_running_max_transform_is_the_ladder_transform():
    mdl = fig4_like_model()
    beta = 5.0
    ph = running_max_ph(mdl, beta, 5)
    assert ph.d == 10
    for a in (0.0, 0.1, 0.5, 1.0, 2.0, 7.3):
        assert abs(ph_lst(ph, a) - ladder.pi_max(mdl, beta, 5, a)) < 1e-10


def test_running_max_atom_identity():
    mdl = fig4_like_model()
    for n in (1, 3, 5):
        ph = running_max_ph(mdl, 2.0, n)
        assert math.isclose(ph.delta.sum() + ph.delta_abs, 1.0, abs_tol=1e-12)
        # direct expression for the atom from the level-n induction
        lam_circ = mdl.lambda_circ[n - 1]
        lam = lam_circ + 2.0
        nu = lam / mdl.regimes[n].r
        prev = running_max_ph(mdl, 2.0, n - 1) if n > 1 else point_mass_zero()
        claim = mdl.claims[0].phase_type()
        delta_prime = np.concatenate([prev.delta, prev.delta_abs * claim.delta])
        dp_abs = prev.delta_abs * claim.delta_abs
        s_n = -ph.S @ np.ones(ph.d)
        resolved = np.linalg.solve(nu * np.eye(ph.d) - ph.S, s_n)
        atom_direct = (
            2.0 / lam + (lam_circ / lam) * dp_abs
            + (lam_circ / lam) * float(delta_prime @ resolved)
        )
        assert math.isclose(ph.delta_abs, atom_direct, rel_tol=1e-11)


def test_running_max_needs_phase_type_claims():
    mixed = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 1.0),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 2.0)),
        regimes=(model.drift(1.0),) * 3,
    )
    # one block per client, each from the client's own law
    ph = running_max_ph(mixed, 1.0, 2)
    assert ph.d == 3
    for a in (0.0, 0.5, 2.0):
        assert abs(ph_lst(ph, a) - ladder.pi_max(mixed, 1.0, 2, a)) < 1e-14
    lomax = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Lomax(1.0, 1.5),),
        regimes=(model.drift(1.0),) * 2,
    )
    with pytest.raises(NotPhaseType):
        running_max_ph(lomax, 1.0, 1)
    bm = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.brownian_drift(1.0, 1.0)),
    )
    with pytest.raises(RegimeMismatch):
        running_max_ph(bm, 1.0, 1)


def test_spectrum_of_stack_equals_claim_spectrum():
    mdl = fig4_like_model()
    ph = running_max_ph(mdl, 2.0, 4)
    eigs = np.linalg.eigvals(ph.S)
    assert (eigs.real <= -1.0 + 1e-8).all()  # claim block eigenvalue is -mu = -1


def test_tail_and_density():
    ph = exp_ph(1.0)
    assert math.isclose(ph_tail(ph, 2.0), math.exp(-2.0), rel_tol=1e-12)
    mdl = fig4_like_model()
    rmax = running_max_ph(mdl, 2.0, 3)
    assert math.isclose(ph_tail(rmax, 0.0), 1.0 - rmax.delta_abs, rel_tol=1e-12)
    us = np.linspace(0.0, 30.0, 61)
    tails = [ph_tail(rmax, u) for u in us]
    assert (np.diff(tails) <= 1e-12).all()
    total, err = integrate.quad(lambda u: ph_density(rmax, u), 0.0, np.inf, limit=200)
    assert abs(total - (1.0 - rmax.delta_abs)) < 1e-8


def test_tail_matches_monte_carlo():
    mdl = fig4_like_model()
    beta = 5.0
    rmax = running_max_ph(mdl, beta, 5)
    sim = simulate.simulate_paths(mdl, beta, u_queries=(5.0, 10.0), n_paths=200_000, seed=31)
    for u in (5.0, 10.0):
        freq, se = sim.ruin[u]
        assert abs(ph_tail(rmax, u) - freq) < 3 * max(se, 1e-6)


def test_tail_of_a_201_phase_law():
    # one slow phase and 200 fast ones: the fast phases are gone by u = 80,
    # where exp(-q u) of a uniformization at rate q = 10 would underflow
    rates = np.array([0.1] + [10.0] * 200)
    delta = np.array([0.5] + [0.5 / 200] * 200)
    ph = PhaseType(delta=delta, S=np.diag(-rates))
    assert math.isclose(ph_tail(ph, 80.0), 0.5 * math.exp(-8.0), rel_tol=1e-12)


def test_sampling_matches_tail():
    ph = ph_convolve(exp_ph(1.0), claims.Erlang(2, 2.0).phase_type())
    rng = np.random.default_rng(8)
    x = ph_sample(ph, rng, 200_000)
    for u in (0.5, 1.5, 3.0):
        freq = (x > u).mean()
        se = math.sqrt(freq * (1 - freq) / len(x))
        assert abs(freq - ph_tail(ph, u)) < 4 * se


def test_spectral_tail_exponential_single_client(m1_model):
    ph = running_max_ph(m1_model, 1.0, 1)
    st = spectral_tail(ph, d1=1)
    assert st.mult == 1
    assert math.isclose(st.mu, 1.0, rel_tol=1e-12)
    # d = 1: the tail is exactly delta_1 e^{-mu u}
    assert math.isclose(st.coeff, ph.delta[0], rel_tol=1e-6)


def test_spectral_tail_erlang_multiplicity():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Erlang(2, 1.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    ph = running_max_ph(mdl, 1.0, 2)
    st = spectral_tail(ph, d1=2, claim_dim=2)
    assert st.mult == 4
    assert math.isclose(st.mu, 1.0, rel_tol=1e-10)

    # self-consistency of the extracted limit: the subleading term decays
    # like 1/u, so one Richardson step over a geometric pair must land on
    # the coefficient within far less than the raw ratio's own drift
    def ratio(u):
        return ph_tail(ph, u) / (st.coeff * math.exp(-st.mu * u) * u ** (st.mult - 1))

    q = 1.25
    for u in (240.0, 400.0):
        corrected = (q * ratio(q * u) - ratio(u)) / (q - 1.0)
        assert 0.999 < corrected < 1.001
    # and the raw ratio itself is inside the 1% band at the far grid end
    assert 0.99 < ratio(590.0) < 1.01


def test_spectral_tail_multiplicity_mismatch_detected():
    # a generator's off-diagonal rates are nonnegative, so the dominant
    # eigenvalue is always real (Perron-Frobenius); the reachable failure is
    # a claimed block multiplicity that excludes the true polynomial order
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Erlang(2, 1.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    ph = running_max_ph(mdl, 1.0, 2)
    with pytest.raises(NoConvergence):
        spectral_tail(ph, d1=1, claim_dim=2)  # true order 4 is out of range


def test_running_max_with_hyperexponential_claims():
    hyper = claims.PhaseTypeClaim(
        PhaseType(delta=np.array([0.3, 0.7]), S=np.array([[-1.0, 0.0], [0.0, -3.0]]))
    )
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 0.7, 2.0),
        claims=(hyper,) * 3,
        regimes=tuple(model.drift(r) for r in (0.5, 1.0, 0.8, 2.0)),
    )
    ph = running_max_ph(mdl, 1.3, 3)
    assert ph.d == 6
    for a in (0.0, 0.2, 0.9, 1.9, 6.0):
        assert abs(ph_lst(ph, a) - ladder.pi_max(mdl, 1.3, 3, a)) < 1e-12


@pytest.mark.parametrize("name", ["m1_hand", "fig2", "fig4"])
def test_running_max_ph_at_the_infinite_horizon(name):
    # absolute: fig4's transform falls to 4e-10 at alpha = 8
    mdl, _ = load_model(CONFIGS / f"{name}.json")
    ph = running_max_ph(mdl, 0.0, mdl.m)
    for a in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        assert abs(ph_lst(ph, a) - ladder.pi_max(mdl, 0.0, mdl.m, a)) <= 1e-14


def test_running_max_of_claims_at_zero():
    # every claim the point mass at zero: the maximum is zero, the law of
    # point_mass_zero; a zero claim in state 1 under an exponential one in
    # state 2 adds no phase, and the law's transform is the ladder's
    zero = claims.PointMass(0.0)
    regimes = (model.drift(0.0), model.drift(1.0), model.drift(2.0))
    flat = model.ModelSpec(m=2, lambda_circ=(1.0, 2.0), claims=(zero, zero), regimes=regimes)
    for beta in (0.0, 1.0):
        assert running_max_ph(flat, beta, 2) == point_mass_zero()
    mixed = model.ModelSpec(
        m=2, lambda_circ=(1.0, 2.0), claims=(claims.Exponential(1.5), zero), regimes=regimes
    )
    ph = running_max_ph(mixed, 1.0, 2)
    assert ph.d == 1
    for alpha in (0.0, 0.5, 3.0):
        assert math.isclose(
            ph_lst(ph, alpha), ladder.pi_max(mixed, 1.0, 2, alpha), rel_tol=1e-13
        )
