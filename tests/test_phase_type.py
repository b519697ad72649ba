import math
import re
import threading
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from poolruin import claims, ladder, model, phase_type, simulate
from poolruin.config import load_model
from poolruin.errors import NoConvergence, NotPhaseType, PoolRuinError, RegimeMismatch
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

from conftest import cold

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


def test_atom_is_checked_like_delta():
    # a rounding-level negative atom is clipped to 0, as delta's entries are
    ph = PhaseType(delta=[1 + 1e-13], S=[[-1.0]], delta_abs=-1e-13)
    assert ph.delta_abs == 0.0
    with pytest.raises(ValueError, match="delta_abs must be nonnegative"):
        PhaseType(delta=[1 + 1e-9], S=[[-1.0]], delta_abs=-1e-9)


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


def test_atom_is_the_ladder_atom():
    # at beta = 0 fig4's ruin is nearly certain: 1 - sum(delta) cancels
    for name in ("fig2", "fig4", "m1_hand"):
        mdl, own = load_model(CONFIGS / f"{name}.json")
        for beta in (own, 0.0):
            law = running_max_ph(mdl, beta, mdl.m)
            ref = ladder.engine(mdl, beta, mdl.m).atom()
            assert law.delta_abs >= 0.0, (name, beta)
            assert abs(law.delta_abs - ref) <= 1e-12 * ref, (name, beta)
            assert 0.0 <= ph_tail(law, 0.0) <= 1.0, (name, beta)


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
    st = spectral_tail(ph)
    assert st.mult == 1
    assert math.isclose(st.mu, 1.0, rel_tol=1e-12)
    # d = 1: the tail is exactly delta_1 e^{-mu u}
    assert math.isclose(st.coeff, ph.delta[0], rel_tol=1e-14)
    assert st.laurent == (st.coeff,)


def test_spectral_tail_erlang_multiplicity():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Erlang(2, 1.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    ph = running_max_ph(mdl, 1.0, 2)
    st = spectral_tail(ph)
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


def criterion_6_laws():
    """(name, law) of acceptance criterion 6: unit drifts, lambda_k = k,
    Exp(1) or Erlang(2, 1) claims, m = 1, 2, 3, killed at rate 1."""
    for claim in (claims.Exponential(1.0), claims.Erlang(2, 1.0)):
        for m in (1, 2, 3):
            mdl = model.ModelSpec(
                m=m,
                lambda_circ=tuple(float(k) for k in range(1, m + 1)),
                claims=(claim,) * m,
                regimes=(model.drift(1.0),) * (m + 1),
            )
            yield f"{claim.kind}.m{m}", running_max_ph(mdl, 1.0, m)


def config_laws():
    """(name, law) of fig2 and fig4 at their own killing rate and at 0."""
    for name in ("fig2", "fig4"):
        mdl, own = load_model(CONFIGS / f"{name}.json")
        for beta in (own, 0.0):
            yield f"{name}.b{beta}", running_max_ph(mdl, beta, mdl.m)


def test_spectral_tail_coefficients_are_exact():
    expected = {
        "exp.m1": (1, 1 / 3),
        "exp.m2": (2, 1 / 6),
        "exp.m3": (3, 1 / 20),
        "erlang.m1": (2, 1 / 3),
        "erlang.m2": (4, 1 / 36),
        "erlang.m3": (6, 1 / 1200),
    }
    for name, ph in criterion_6_laws():
        st = spectral_tail(ph)
        mult, coeff = expected[name]
        assert st.mu == 1.0, name
        assert st.mult == mult, name
        assert math.isclose(st.coeff, coeff, rel_tol=1e-13), name


def mp_laurent(ph, mu, radius, count, nodes=128):
    """a_{-1}..a_{-count} of delta^T (z I - S)^(-1) 1 at -mu by 50-digit
    solves on the circle of ``radius`` around -mu."""
    with mpmath.workdps(50):
        S = mpmath.matrix(ph.S.tolist())
        eye = mpmath.eye(ph.d)
        ones = mpmath.matrix([1] * ph.d)
        sums = [mpmath.mpc(0)] * count
        for k in range(nodes):
            w = radius * mpmath.expjpi(mpmath.mpf(2 * k) / nodes)
            x = mpmath.lu_solve((w - mu) * eye - S, ones)
            R = mpmath.fsum(float(p) * xi for p, xi in zip(ph.delta, x))
            sums = [s + R * w ** (j + 1) for j, s in enumerate(sums)]
        return [complex(s / nodes) for s in sums]


def test_laurent_coefficients_against_mpmath():
    for name, ph in (*criterion_6_laws(), *config_laws()):
        st = spectral_tail(ph)
        # one eigenvalue on these laws: the circle's radius is mu / 2
        assert (np.linalg.eigvals(ph.S) == -st.mu).all(), name
        ref = mp_laurent(ph, st.mu, st.mu / 2, st.mult + 1)
        assert abs(ref[-1]) < 1e-40, name  # the pole has order mult
        for ours, theirs in zip(st.laurent, ref):
            assert abs(ours - theirs) <= 1e-12 * abs(theirs), name


def test_cluster_expansion_is_the_tail():
    # one eigenvalue: the dominant cluster's term is the whole tail
    us = np.linspace(0.0, 60.0, 241)[1:]
    for name, ph in config_laws():
        st = spectral_tail(ph)
        for u in us:
            term = sum(a * u**j / math.factorial(j) for j, a in enumerate(st.laurent))
            tail = ph_tail(ph, u)
            assert abs(math.exp(-st.mu * u) * term - tail) <= 1e-12 * tail, (name, u)


def test_spectral_tail_of_fast_claims():
    mdl = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Exponential(500.0),) * 2,
        regimes=(model.drift(1.0),) * 3,
    )
    ph = running_max_ph(mdl, 1.0, 2)
    st = spectral_tail(ph)
    assert (st.mu, st.mult) == (500.0, 2)
    for u in (0.01, 0.1, 1.0):
        a1, a2 = st.laurent
        tail = ph_tail(ph, u)
        assert math.isclose(math.exp(-500.0 * u) * (a1 + a2 * u), tail, rel_tol=1e-12)


def test_spectral_tail_of_a_mixed_pool():
    mdl = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 2.0, 0.5),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 1.5), claims.Exponential(0.7)),
        regimes=(model.drift(1.0),) * 4,
    )
    ph = running_max_ph(mdl, 1.0, 3)
    st = spectral_tail(ph)
    assert math.isclose(st.mu, 0.7, rel_tol=1e-15)
    assert st.mult == 1
    # the next pole is at -1: at u = 120 the leading term is the tail
    u = 120.0
    assert math.isclose(st.coeff * math.exp(-0.7 * u), ph_tail(ph, u), rel_tol=1e-12)


def test_spectral_tail_refuses_what_it_cannot_resolve():
    with pytest.raises(ValueError):
        spectral_tail(point_mass_zero())
    # no mass on the slow phase: -1 is no pole of the tail's transform, and
    # the tail is exactly e^{-2u}
    fast_only = PhaseType(delta=np.array([0.0, 1.0]), S=np.diag([-1.0, -2.0]))
    st = spectral_tail(fast_only)
    assert (st.mu, st.mult, st.coeff, st.laurent) == (2.0, 1, 1.0, (1.0,))
    # a law that never reaches phases it does not start in: nothing to resolve
    with pytest.raises(ValueError):
        spectral_tail(PhaseType(delta=np.zeros(2), S=np.diag([-1.0, -2.0]), delta_abs=1.0))


def test_spectral_tail_reads_the_reached_phases_only():
    # the slowest phase (rate 1) feeds the reached one but is never entered,
    # and a third phase feeds it too: the tail is e^{-2u}
    S = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.3, -1.5]])
    ph = PhaseType(delta=np.array([0.0, 1.0, 0.0]), S=S, delta_abs=0.0)
    st = spectral_tail(ph)
    assert (st.mu, st.mult, st.coeff) == (2.0, 1, 1.0)
    for u in (5.0, 20.0, 40.0):
        assert math.isclose(ph_tail(ph, u), st.coeff * math.exp(-st.mu * u), rel_tol=1e-12)
    # an atom is kept: the reached phases carry the rest of the mass
    held = spectral_tail(PhaseType(delta=np.array([0.0, 0.6, 0.0]), S=S, delta_abs=0.4))
    assert (held.mu, held.mult) == (2.0, 1) and math.isclose(held.coeff, 0.6, rel_tol=1e-14)


def test_point_mass_at_zero_takes_the_general_formulas():
    # the law with no phase: every evaluator reads the convolution
    # identity's values, by repr, exact zeros with their signs
    z = point_mass_zero()
    nodes = np.array([1.0 + 2.0j, -1.0 + 2.0j, -0.5 - 0.5j, 0j, 3.0])
    got = {
        "lst": [ph_lst(z, a) for a in (0.0, 2.0)],
        "complement": [phase_type.ph_lst_complement(z, a) for a in (0.0, 2.0)],
        "complex": phase_type.ph_lst_complex(z, nodes).tolist(),
        "complement_complex": phase_type.ph_lst_complement_complex(z, nodes).tolist(),
        "abscissa": phase_type.ph_abscissa(z),
        "series": phase_type.ph_lst_series(z, 0.5, 3).c,
        "moments": (ph_mean(z), phase_type.ph_second_moment(z)),
        "tail": [ph_tail(z, u) for u in (0.0, 3.0)],
        "density": ph_density(z, 1.0),
        "sample": ph_sample(z, np.random.default_rng(1), 4).tolist(),
    }
    assert {k: repr(v) for k, v in got.items()} == {
        "lst": "[1.0, 1.0]",
        "complement": "[0.0, 0.0]",
        "complex": "[(1+0j), (1+0j), (1+0j), (1+0j), (1+0j)]",
        "complement_complex": "[0j, 0j, 0j, 0j, 0j]",
        "abscissa": "inf",
        "series": "(1.0, 0.0, 0.0, 0.0)",
        "moments": "(0.0, 0.0)",
        "tail": "[0.0, 0.0]",
        "density": "0.0",
        "sample": "[0.0, 0.0, 0.0, 0.0]",
    }
    # the reserve is checked before the law is read
    with pytest.raises(ValueError, match=re.escape("u must be nonnegative and finite, got -1.0")):
        ph_density(z, -1.0)
    with pytest.raises(ValueError, match="the point mass at zero has no tail"):
        spectral_tail(z)


UNREACHED = PhaseType(
    delta=np.array([0.0, 1.0, 0.0]),
    S=np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.3, -1.5]]),
)


@pytest.mark.parametrize("u", [1.0, 5.0, 20.0, 40.0])
def test_tail_and_density_read_the_reached_phases_only(u):
    # the law enters only the phase of rate 2: its tail is e^{-2u}, and
    # the unreached phases' rounding stays out of the matrix exponential
    tail, density = math.exp(-2.0 * u), 2.0 * math.exp(-2.0 * u)
    assert abs(ph_tail(UNREACHED, u) - tail) <= 2 * math.ulp(tail)
    assert abs(ph_density(UNREACHED, u) - density) <= 2 * math.ulp(density)


def test_reached_law_is_the_law_itself_when_every_phase_is_reached():
    law = claims.Erlang(3, 2.0).phase_type()
    assert phase_type._reached_law(law) is law
    z = point_mass_zero()
    assert phase_type._reached_law(z) is z
    restricted = phase_type._reached_law(UNREACHED)
    assert restricted == PhaseType(delta=np.array([1.0]), S=np.array([[-2.0]]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda law: ph_lst(law, math.inf), "alpha must be nonnegative and finite, got inf"),
        (
            lambda law: phase_type.ph_lst_complement(law, math.inf),
            "alpha must be nonnegative and finite, got inf",
        ),
        (lambda law: ph_tail(law, math.inf), "u must be nonnegative and finite, got inf"),
        (lambda law: ph_density(law, math.nan), "u must be nonnegative and finite, got nan"),
    ],
    ids=["lst.inf", "complement.inf", "tail.inf", "density.nan"],
)
def test_non_finite_arguments_are_refused_by_name(call, message):
    # refused before any solve or matrix exponential runs
    mdl, _ = load_model(CONFIGS / "fig2.json")
    law = running_max_ph(mdl, 1.0, mdl.m)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(law)


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


@pytest.mark.parametrize("name", ["fig2", "fig4"])
def test_tail_and_density_far_past_the_float_range_of_expm(name):
    # scipy's expm turns NaN once |S u| nears 2^127; the tail has long
    # underflowed there, and it reads exactly zero as it does at 1e20
    spec, beta = load_model(CONFIGS / f"{name}.json")
    ph = running_max_ph(spec, beta, spec.m)
    assert ph_tail(ph, 1e20) == 0.0
    for u in (1e40, 1e100, 1e300):
        assert ph_tail(ph, u) == 0.0
        assert ph_density(ph, u) == 0.0


def test_tail_with_a_matrix_exponential_that_never_settles(monkeypatch):
    # were exp(S v) not exactly zero at the smaller reserve, the NaN would
    # be refused, naming u
    nan_expm = types.SimpleNamespace(expm=lambda a: np.full(a.shape, np.nan))
    monkeypatch.setattr(phase_type, "linalg", nan_expm)
    with pytest.raises(PoolRuinError, match=r"u = 1e\+300"):
        ph_tail(exp_ph(1.0), 1e300)
    with pytest.raises(PoolRuinError, match=r"u = 1e\+300"):
        ph_density(exp_ph(1.0), 1e300)


def _count_builds(monkeypatch) -> list:
    """The (beta, n) of the laws built from now on, in every thread."""
    builds = []
    build = phase_type._running_max_law

    def counted(mdl, beta, n):
        builds.append((beta, n))
        return build(mdl, beta, n)

    monkeypatch.setattr(phase_type, "_running_max_law", counted)
    return builds


def test_a_repeated_call_returns_the_kept_law(monkeypatch):
    mdl = fig4_like_model()
    builds = _count_builds(monkeypatch)
    law = running_max_ph(mdl, 1.0, 4)
    assert running_max_ph(mdl, 1.0, 4) is law
    assert builds == [(1.0, 4)]
    # the law sits beside the engines of the same (model, beta)
    ladder.pi_max(mdl, 1.0, 4, 0.5)
    assert running_max_ph(mdl, 1.0, 4) is law
    assert builds == [(1.0, 4)]


def test_a_new_model_object_beta_or_n_starts_cold(monkeypatch):
    mdl = fig4_like_model()
    law = running_max_ph(mdl, 1.0, 4)
    builds = _count_builds(monkeypatch)
    assert running_max_ph(mdl, 1.0, 3) is not law
    assert running_max_ph(mdl, 1.0, 4) is law  # one law per n
    # matched by identity: an equal copy has laws of its own
    copy = cold(mdl)
    assert copy == mdl
    assert running_max_ph(copy, 1.0, 4) is not law
    law = running_max_ph(mdl, 1.0, 4)  # the copy took the slot
    assert running_max_ph(mdl, 2.0, 4) is not law
    assert running_max_ph(mdl, 1.0, 4) is not law  # another beta replaced it
    assert builds == [(1.0, 3), (1.0, 4), (1.0, 4), (2.0, 4), (1.0, 4)]


def test_threads_keep_laws_of_their_own():
    mdl = fig4_like_model()
    law = running_max_ph(mdl, 1.0, 5)
    got = []
    worker = threading.Thread(target=lambda: got.append(running_max_ph(mdl, 1.0, 5)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got[0] is not law and got[0] == law
    # the other thread's request left this thread's slot alone
    assert running_max_ph(mdl, 1.0, 5) is law


def test_a_kept_law_does_not_skip_the_argument_checks():
    mdl = fig4_like_model()
    law = running_max_ph(mdl, 1.0, 5)
    for _ in range(2):
        with pytest.raises(ValueError, match="beta must be finite"):
            running_max_ph(mdl, math.nan, 5)
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            running_max_ph(mdl, -1.0, 5)
        for n in (-1, 6):
            with pytest.raises(ValueError, match="n must lie"):
                running_max_ph(mdl, 1.0, n)
    # a refused request leaves the slot as it was
    assert running_max_ph(mdl, 1.0, 5) is law


def test_a_failed_build_is_not_kept(monkeypatch):
    mdl, _ = load_model(CONFIGS / "fig5.json")
    for beta in (0.0, 1.0):
        for _ in range(2):
            with pytest.raises(NotPhaseType, match="lomax"):
                running_max_ph(mdl, beta, mdl.m)
        assert ("law", mdl.m) not in ladder._memo(mdl, beta).values
    mdl = fig4_like_model()
    want = running_max_ph(cold(mdl), 1.0, 5)
    monkeypatch.setattr(phase_type, "MAX_DENSE_PHASES", 9)
    for _ in range(2):
        with pytest.raises(NotPhaseType, match="10 phases"):
            running_max_ph(mdl, 1.0, 5)
    monkeypatch.undo()
    builds = _count_builds(monkeypatch)
    law = running_max_ph(mdl, 1.0, 5)
    assert builds == [(1.0, 5)] and law == want
    assert running_max_ph(mdl, 1.0, 5) is law


@pytest.mark.parametrize("name", ["fig2", "fig4", "m1_hand"])
def test_a_kept_law_equals_a_cold_build(name):
    mdl, own = load_model(CONFIGS / f"{name}.json")
    for beta in dict.fromkeys((own, 0.0)):
        running_max_ph(mdl, beta, mdl.m)
        kept = running_max_ph(mdl, beta, mdl.m)
        fresh = running_max_ph(cold(mdl), beta, mdl.m)
        assert kept is not fresh
        for u in (0.0, 1.0, 5.0, 20.0):
            assert repr(ph_tail(kept, u)) == repr(ph_tail(fresh, u))
        for alpha in (0.0, 0.5, 1.0, 4.0):
            assert repr(ph_lst(kept, alpha)) == repr(ph_lst(fresh, alpha))


def _fig2_law():
    """fig2's law from five clients at beta = 1: its pole is at -0.25."""
    mdl, _ = load_model(CONFIGS / "fig2.json")
    return running_max_ph(mdl, 1.0, 5)


@pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf], ids=repr)
def test_the_transform_series_refuses_an_argument_outside_its_domain(alpha):
    # -0.5 lies past the pole, where the solves return a Taylor of nothing
    law = _fig2_law()
    want = re.escape(f"alpha must be nonnegative and finite, got {alpha!r}")
    with pytest.raises(ValueError, match=want):
        phase_type.ph_lst_series(law, alpha, 2)
    with pytest.raises(ValueError, match=want):
        phase_type.ph_lst_series(point_mass_zero(), alpha, 2)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)], ids=repr)
def test_the_complex_transforms_refuse_an_entry_that_is_not_finite(z):
    law = _fig2_law()
    nodes = np.array([1.0 + 2.0j, z])
    for evaluate in (phase_type.ph_lst_complex, phase_type.ph_lst_complement_complex):
        with pytest.raises(ValueError, match="z must be finite"):
            evaluate(law, nodes)
    with pytest.raises(ValueError, match="z must be finite"):
        phase_type.ph_lst_complement_complex(point_mass_zero(), nodes)


def test_a_spectral_tail_whose_coefficients_do_not_resolve_is_refused():
    # two rates within the cluster tolerance: read as one double pole,
    # whose second coefficient is negative, which no tail has
    law = PhaseType(delta=[0.5, 0.5], S=np.diag([-1.0, -1.0 - 5e-9]))
    with pytest.raises(NoConvergence, match="do not resolve"):
        spectral_tail(law)
    # apart, the two poles resolve: the simple one at -1 leads
    tail = spectral_tail(PhaseType(delta=[0.5, 0.5], S=np.diag([-1.0, -1.5])))
    assert (tail.mult, tail.coeff) == (1, pytest.approx(0.5, rel=1e-12))
