import math

import numpy as np
import pytest

from poolruin import claims, heavy_tail, model
from poolruin.errors import NonIdenticalClaims
from poolruin.ladder import engine


def lomax_model(m, lam_circ, rs, c=1.0, eps=1.5):
    return model.ModelSpec(
        m=m,
        lambda_circ=lam_circ,
        claims=(claims.Lomax(c, eps),) * m,
        regimes=tuple(model.drift(r) for r in rs),
    )


def test_phi_single_level():
    mdl = lomax_model(1, (1.0,), (1.0, 1.0))
    theta = claims.Lomax(1.0, 1.5).rv_meta.theta
    assert math.isclose(heavy_tail.phi_coefficient(mdl, 1.0, 1), theta * 0.5)


def test_phi_two_levels_telescopes():
    mdl = lomax_model(2, (1.0, 2.0), (1.0, 1.0, 1.0))
    theta = claims.Lomax(1.0, 1.5).rv_meta.theta
    # (1/2)(2/3) + 2/3 = 1
    assert math.isclose(heavy_tail.phi_coefficient(mdl, 1.0, 2), theta, rel_tol=1e-14)


def test_phi_vanishes_under_immediate_killing():
    mdl = lomax_model(2, (1.0, 2.0), (1.0, 1.0, 1.0))
    assert heavy_tail.phi_coefficient(mdl, 1e12, 2) < 1e-11


def test_phi_requires_rv_claims():
    mdl = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0),) * 2,
    )
    with pytest.raises(ValueError):
        heavy_tail.phi_coefficient(mdl, 1.0, 1)
    mixed = model.ModelSpec(
        m=2, lambda_circ=(1.0, 1.0),
        claims=(claims.Lomax(1.0, 1.5), claims.Lomax(2.0, 1.5)),
        regimes=(model.drift(1.0),) * 3,
    )
    with pytest.raises(NonIdenticalClaims):
        heavy_tail.phi_coefficient(mixed, 1.0, 2)


def test_m_distribution_values():
    mdl = lomax_model(1, (1.0,), (1.0, 1.0))
    probs = heavy_tail.m_distribution(mdl, 1.0)
    assert np.allclose(probs, [0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        mdl = lomax_model(m, tuple(rng.uniform(0.1, 5.0, m)), (1.0,) * (m + 1))
        beta = float(rng.uniform(0.1, 4.0))
        probs = heavy_tail.m_distribution(mdl, beta)
        assert probs.shape == (m + 1,)
        assert (probs >= 0).all()
        assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
        # expectation consistency with the closed form
        em = heavy_tail.expected_claims(mdl, beta)
        assert math.isclose(em, float(np.arange(m + 1) @ probs), abs_tol=1e-12)
    big = heavy_tail.m_distribution(lomax_model(3, (1.0, 1.0, 1.0), (1.0,) * 4), 1e9)
    assert big[0] > 1.0 - 1e-8
    # no kill: every claim arrives
    assert heavy_tail.m_distribution(mdl, 0.0).tolist() == [0.0] * m + [1.0]


def test_expected_claims_values():
    mdl = lomax_model(2, (1.0, 2.0), (1.0, 1.0, 1.0))
    assert math.isclose(heavy_tail.expected_claims(mdl, 1.0), 1.0, rel_tol=1e-14)
    assert heavy_tail.expected_claims(mdl, 0.0) == 2.0


def test_rv_tail_approx_values():
    mdl = lomax_model(1, (1.0,), (1.0, 1.0))
    # E M = 1/2 and P(B > 3) = 1/8
    assert math.isclose(heavy_tail.rv_tail_approx(mdl, 1.0, 3.0), 0.0625, rel_tol=1e-13)
    # at u = 0 the handle returns E M, an asymptote rather than a probability
    assert math.isclose(heavy_tail.rv_tail_approx(mdl, 1.0, 0.0), 0.5, rel_tol=1e-13)


def test_asymptote_identity_and_prefactor_sign():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        mdl = lomax_model(m, tuple(rng.uniform(0.1, 5.0, m)), (1.0,) * (m + 1))
        beta = float(rng.uniform(0.0, 3.0))
        asym = heavy_tail.rv_asymptote(mdl, beta)
        theta = mdl.claims[0].rv_meta.theta
        assert math.isclose(asym.phi_m, theta * asym.em, rel_tol=1e-12)
        assert asym.prefactor > 0
        assert math.isclose(asym.p_big(2.0), asym.em * mdl.claims[0].tail(2.0))


def test_phi_monotonicity():
    mdl = lomax_model(4, (1.0, 2.0, 3.0, 4.0), (1.0,) * 5)
    vals_n = [heavy_tail.phi_coefficient(mdl, 1.0, n) for n in range(5)]
    assert (np.diff(vals_n) >= 0).all()
    vals_b = [heavy_tail.phi_coefficient(mdl, b, 4) for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert (np.diff(vals_b) <= 0).all()


def test_transform_expansion_recovers_phi():
    # near zero the transform expands as 1 + d1 a + Phi_m a^delta + o(a^delta)
    mdl = lomax_model(2, (1.0, 2.0), (1.0, 2.0, 3.0))
    beta = 1.0
    eng = engine(mdl, beta, 2)
    d1 = eng.jet(0.0, order=1).d1
    a = 1e-4
    pi_a = eng.value(a)
    phi_est = (pi_a - 1.0 - d1 * a) / a**1.5
    phi_m = heavy_tail.phi_coefficient(mdl, beta, 2)
    assert abs(phi_est / phi_m - 1.0) < 0.05
