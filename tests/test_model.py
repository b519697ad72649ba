import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolruin import claims, ladder, model
from poolruin.errors import KillingRequired, NoRoot, NotSubordinator, SubordinatorRegime

REGIMES = [
    model.drift(2.0),
    model.brownian_drift(1.0, 1.0),
    model.brownian_drift(-0.5, 2.0),
    model.compound_poisson_drift(2.0, 0.0, 1.0, claims.Exponential(2.0)),
    model.compound_poisson_drift(1.0, 0.5, 0.7, claims.Erlang(2, 3.0)),
]


def test_exponent_point_values():
    assert model.laplace_exponent(model.drift(2.0), 3.0) == 6.0
    assert model.laplace_exponent(model.brownian_drift(1.0, 1.0), 2.0) == 4.0
    for reg in REGIMES:
        assert model.laplace_exponent(reg, 0.0) == 0.0


def test_exponent_convex_on_grid():
    for reg in REGIMES:
        grid = np.linspace(0.0, 6.0, 13)
        vals = np.array([model.laplace_exponent(reg, a) for a in grid])
        assert (np.diff(vals, 2) >= -1e-9).all()


def test_inverse_point_values():
    assert model.inverse_exponent(model.drift(4.0), 2.0) == 0.5
    got = model.inverse_exponent(model.brownian_drift(1.0, 2.0), 4.0)
    assert math.isclose(got, (math.sqrt(17.0) - 1.0) / 2.0, rel_tol=1e-13)
    # right-inverse property on the closed form
    assert math.isclose(
        model.laplace_exponent(model.brownian_drift(1.0, 1.0), 1.0), 1.5
    )
    assert math.isclose(
        model.inverse_exponent(model.brownian_drift(1.0, 1.0), 1.5), 1.0
    )


@pytest.mark.parametrize("reg", REGIMES, ids=lambda r: r.kind + repr(r.r))
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_inverse_roundtrip(reg, lam):
    psi = model.inverse_exponent(reg, lam)
    assert psi > 0
    assert abs(model.laplace_exponent(reg, psi) - lam) <= 1e-12 * max(1.0, lam)


@pytest.mark.parametrize(
    "reg", [r for r in REGIMES if r.kind == "compound_poisson"], ids=["exp", "erlang"]
)
@pytest.mark.parametrize("lam", [1.25, 2.0, 7.0])
def test_compound_poisson_inverse_to_a_few_ulp(reg, lam):
    law = reg.jump_law
    k = getattr(law, "k", 1)

    def phi(a):
        jump = (law.mu / (law.mu + a)) ** k
        return reg.r * a + reg.sigma2 / 2 * a * a - reg.jump_rate * (1 - jump)

    psi = model.inverse_exponent(reg, lam)
    with mp.workdps(50):
        want = float(mp.findroot(lambda a: phi(a) - lam, mp.mpf(psi)))
    assert abs(psi - want) <= 4 * math.ulp(want)


def test_inverse_errors():
    with pytest.raises(SubordinatorRegime):
        model.inverse_exponent(model.subordinator(r=-1.0), 1.0)
    with pytest.raises(NoRoot):
        model.inverse_exponent(model.drift(0.0), 1.0)
    with pytest.raises(NoRoot):
        # jumps without premium: nondecreasing, should carry the flag
        model.inverse_exponent(
            model.compound_poisson_drift(0.0, 0.0, 1.0, claims.Exponential(1.0)), 1.0
        )


def alone(reg):
    # the regime with no clients: its killed maximum is the whole transform
    return model.ModelSpec(m=0, lambda_circ=(), claims=(), regimes=(reg,))


def killed_max(reg, a, lam):
    return ladder.engine(alone(reg), lam, 0).value(a)


def test_wiener_hopf_basics():
    for reg in REGIMES:
        assert killed_max(reg, 0.0, 1.0) == 1.0
    # positive pure drift: the killed maximum is identically zero
    for a in (0.0, 0.7, 5.0):
        for lam in (0.5, 2.0):
            assert killed_max(model.drift(3.0), a, lam) == 1.0


def test_wiener_hopf_killed_brownian_exponential_rate():
    # killed maximum of Brownian-with-drift is exponential with the negated
    # left root of the exponent equation
    r, s2, lam = 1.0, 1.0, 1.0
    eta = (r + math.sqrt(r * r + 2 * s2 * lam)) / s2
    for a in (0.3, 1.0, 2.7):
        got = killed_max(model.brownian_drift(r, s2), a, lam)
        assert math.isclose(got, eta / (eta + a), rel_tol=1e-12)


def test_wiener_hopf_monotone_and_bounded():
    grid = np.linspace(0.0, 10.0, 41)
    for reg in REGIMES:
        vals = [killed_max(reg, a, 1.3) for a in grid]
        assert all(0 < v <= 1 for v in vals)
        assert (np.diff(vals) <= 1e-12).all()


def test_wiener_hopf_removable_singularity_continuous():
    reg = model.compound_poisson_drift(1.0, 0.5, 0.7, claims.Erlang(2, 3.0))
    lam = 2.0
    psi = model.inverse_exponent(reg, lam)
    s = ladder.engine(alone(reg), lam, 0).jet(psi)
    # analytic limit of (psi - a) / (lam - phi(a)) * lam / psi at a = psi
    center = lam / (psi * model.exponent_derivative(reg, psi))
    assert math.isclose(s.v, center, rel_tol=1e-12)
    # the local expansion at the critical point predicts nearby values
    for off in (1e-10, -1e-7, 1e-5, -1e-3, 1e-3):
        near = killed_max(reg, psi + off, lam)
        assert math.isclose(near, s.v + off * (s.d1 + 0.5 * off * s.d2), rel_tol=1e-7)
    # and away from it the series path is the closed form
    for off in (-1e-3, 1e-3, 0.5):
        a = psi + off
        closed = (psi - a) / (lam - model.laplace_exponent(reg, a)) * lam / psi
        assert math.isclose(killed_max(reg, a, lam), closed, rel_tol=1e-10)


def test_wiener_hopf_series_refuses_the_removable_point():
    reg = model.compound_poisson_drift(1.0, 0.5, 0.7, claims.Erlang(2, 3.0))
    lam = 2.0
    psi = model.inverse_exponent(reg, lam)
    for a in (psi, 0.7 * psi, 1.3 * psi):
        with pytest.raises(ValueError, match="window"):
            model.wiener_hopf_series(reg, a, lam, 2)
    # outside the window the series is the closed form
    a = 0.5 * psi
    got = model.wiener_hopf_series(reg, a, lam, 2).c[0]
    closed = (psi - a) / (lam - model.laplace_exponent(reg, a)) * lam / psi
    assert math.isclose(got, closed, rel_tol=1e-14)


def test_subordinator_max_factor():
    sub = model.subordinator(r=-1.0)  # Z(t) = t: the transform is lam / (lam + a)
    for a, lam in ((0.0, 1.0), (1.0, 1.0), (1.0, 1e9), (2.5, 0.3)):
        got = model.subordinator_max_series(sub, a, lam, 0).c[0]
        assert math.isclose(got, lam / (lam + a), rel_tol=1e-14)
        assert killed_max(sub, a, lam) == got
    assert model.subordinator_max_series(sub, 0.0, 1.0, 0).c[0] == 1.0
    with pytest.raises(NotSubordinator):
        model.subordinator_max_series(model.drift(1.0), 1.0, 1.0, 0)
    with pytest.raises(SubordinatorRegime):
        model.wiener_hopf_series(sub, 1.0, 1.0, 0)


def test_subordinator_exponent_nonpositive():
    sub = model.subordinator(r=-0.5, jump_rate=2.0, jump_law=claims.Exponential(1.0))
    for a in (0.0, 0.5, 3.0):
        assert model.laplace_exponent(sub, a) <= 0.0


def test_regime_validation():
    with pytest.raises(ValueError):
        model.subordinator(r=1.0)
    with pytest.raises(ValueError):
        model.brownian_drift(1.0, 0.0)
    with pytest.raises(ValueError):
        model.LevyRegime(kind="drift", r=1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        model.compound_poisson_drift(1.0, 0.0, -1.0, claims.Exponential(1.0))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        model.ModelSpec(m=1, lambda_circ=(), claims=(claims.Exponential(1.0),),
                        regimes=(model.drift(1.0), model.drift(1.0)))
    with pytest.raises(ValueError):
        model.ModelSpec(m=1, lambda_circ=(-1.0,), claims=(claims.Exponential(1.0),),
                        regimes=(model.drift(1.0), model.drift(1.0)))
    spec = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 1.0)),
        regimes=(model.drift(0.0), model.drift(1.0), model.drift(2.0)),
    )
    # while n remain, the next claim is the (m - n + 1)-th arrival
    assert spec.claim_for_state(2) is spec.claims[0]
    assert spec.claim_for_state(1) is spec.claims[1]
    assert spec.rate_for_state(2) == 2.0


def test_killed_rates():
    spec = model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claims.Exponential(1.0),),
        regimes=(model.brownian_drift(1.0, 1.0), model.drift(1.0)),
    )
    # the level rate is lam_circ + beta = 1.5, the ladder rate lam / r
    level = ladder.engine(spec, 0.5, 1).levels[0]
    assert (level.nu, level.p0, level.w) == (1.5, 0.5 / 1.5, 1.0 / 1.5)
    # state 0 is killed at beta alone: Brownian maximum at rate 1 + sqrt(2)
    eta = 1.0 + math.sqrt(2.0)
    got = ladder.pi_max(spec, 0.5, 0, 0.8)
    assert math.isclose(got, eta / (eta + 0.8), rel_tol=1e-13)
    with pytest.raises(KillingRequired):
        ladder.engine(spec, 0.0, 1)  # not a drift model


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-1.0, 3.0),
    st.floats(0.1, 4.0),
    st.floats(0.05, 50.0),
    st.floats(0.0, 20.0),
)
def test_wiener_hopf_in_unit_interval(r, s2, lam, a):
    reg = model.brownian_drift(r, s2)
    val = killed_max(reg, a, lam)
    assert 0.0 < val <= 1.0 + 1e-12
