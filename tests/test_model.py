import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolruin import (
    claims,
    heavy_tail,
    inversion,
    ladder,
    model,
    overshoot,
    phase_type,
    simulate,
)
from poolruin.config import load_model
from poolruin.errors import KillingRequired, NoRoot

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


def test_left_root_brackets_the_negative_root():
    # phi at a complex number is phi at an array of them, and the left root
    # lies within 1e-3 (relative) below the crossing of phi = lam
    two_phase = claims.PhaseTypeClaim(
        phase_type.PhaseType(delta=np.array([0.6, 0.4]), S=np.array([[-2.0, 1.0], [0.0, -3.0]]))
    )
    regimes = REGIMES[3:] + [model.compound_poisson_drift(0.5, 0.2, 1.5, two_phase)]
    for reg in regimes:
        for lam in (0.3, 1.0, 4.0):
            d = model.left_root(reg, lam)
            for a in (d, 0.5 * d, 1.0011 * d):
                one = model.laplace_exponent(reg, complex(-a))
                many = model.laplace_exponent(reg, np.array([complex(-a)] * 3))
                assert np.allclose(many, one, rtol=1e-14, atol=0.0)
            assert model.laplace_exponent(reg, complex(-d)).real <= lam
            assert model.laplace_exponent(reg, complex(-1.0011 * d)).real > lam


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


REGIME_IDS = [
    "drift2.0", "brownian1.0", "brownian-0.5", "compound_poisson2.0", "compound_poisson1.0"
]


@pytest.mark.parametrize("reg", REGIMES, ids=REGIME_IDS)
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_inverse_roundtrip(reg, lam):
    psi = model.inverse_exponent(reg, lam)
    assert psi > 0
    assert abs(model.laplace_exponent(reg, psi) - lam) <= 1e-12 * max(1.0, lam)


@pytest.mark.parametrize(
    "reg", [r for r in REGIMES if r.jump_rate > 0], ids=["exp", "erlang"]
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


def _mp_root_and_condition(reg, lam, complement, guess):
    """The root of phi(a) = lam at 50 digits from the float inputs, and its
    condition number (|r| + s2 psi / 2 + c (1 - C(psi)) / psi) / phi'(psi)
    for the jump complement 1 - C given at mpmath arguments."""
    with mp.workdps(50):
        r, s2, c = mp.mpf(reg.r), mp.mpf(reg.sigma2), mp.mpf(reg.jump_rate)

        def phi(a):
            return r * a + s2 / 2 * a * a - c * complement(a)

        root = mp.findroot(lambda a: phi(a) - lam, mp.mpf(guess))
        slope = mp.diff(phi, root)
        kappa = (abs(r) + s2 * root / 2 + c * complement(root) / root) / slope
        return root, float(kappa)


def _ulps_over_condition(got, reg, lam, complement):
    want, kappa = _mp_root_and_condition(reg, lam, complement, got)
    with mp.workdps(50):
        err = float(abs(mp.mpf(got) - want))
    return err / (math.ulp(float(want)) * max(1.0, kappa))


@pytest.mark.parametrize("s2", [0.0, 0.5, 4.0])
def test_exponential_jump_inverse_within_its_conditioning(s2):
    # seeded log grid: r, mu, c in [1e-3, 1e3], lam in [1e-12, 1e4]; with
    # diffusion r takes either sign
    rng = np.random.default_rng(1801 + int(10 * s2))
    n = 150
    r, mu, c = 10.0 ** rng.uniform(-3.0, 3.0, (3, n))
    lam = 10.0 ** rng.uniform(-12.0, 4.0, n)
    if s2 > 0.0:
        r = np.where(rng.random(n) < 0.5, -r, r)
    worst = 0.0
    for ri, mui, ci, li in zip(r.tolist(), mu.tolist(), c.tolist(), lam.tolist()):
        reg = model.compound_poisson_drift(ri, s2, ci, claims.Exponential(mui))
        got = model.inverse_exponent(reg, li)
        ratio = _ulps_over_condition(got, reg, li, lambda a, mu=mui: a / (mu + a))
        assert ratio <= 4.0, (ri, mui, ci, li, got)
        worst = max(worst, ratio)
    assert worst > 0.0  # the grid is not all exact hits


def _phase_law():
    return claims.PhaseTypeClaim(
        phase_type.PhaseType(
            delta=np.array([0.3, 0.6]),
            S=np.array([[-2.0, 1.0], [0.0, -5.0]]),
            delta_abs=0.1,
        )
    )


def _mp_phase_complement(ph):
    def complement(a):
        # a delta^T (a I - S)^(-1) 1
        eye, S = mp.eye(ph.d), mp.matrix(ph.S.tolist())
        x = mp.lu_solve(a * eye - S, mp.matrix([1] * ph.d))
        return a * sum(mp.mpf(ph.delta[i]) * x[i] for i in range(ph.d))
    return complement


SMALL_RATE_LAWS = {
    "erlang3": (
        claims.Erlang(3, 2.0), lambda a: -mp.expm1(-3 * mp.log1p(a / 2))
    ),
    "phase_type": (_phase_law(), _mp_phase_complement(_phase_law().ph)),
    "point": (claims.PointMass(0.7), lambda a: -mp.expm1(-a * mp.mpf(0.7))),
}


@pytest.mark.parametrize("law", SMALL_RATE_LAWS, ids=list(SMALL_RATE_LAWS))
@pytest.mark.parametrize("s2", [0.0, 0.5])
@pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6])
def test_newton_inverse_keeps_its_digits_at_small_rates(law, s2, lam):
    # 1 - C(a) at a far below the law's scale: the difference 1 - lst(a)
    # would leave the residual only the digits of a times the mean
    jump_law, complement = SMALL_RATE_LAWS[law]
    reg = model.compound_poisson_drift(1.5, s2, 0.8, jump_law)
    got = model.inverse_exponent(reg, lam)
    assert _ulps_over_condition(got, reg, lam, complement) <= 4.0


@pytest.mark.parametrize("law", SMALL_RATE_LAWS, ids=list(SMALL_RATE_LAWS))
@pytest.mark.parametrize("s2", [0.0, 0.5])
@pytest.mark.parametrize("lam", [1e-9, 1.7, 1e3])
def test_newton_inverse_takes_few_steps(law, s2, lam):
    # one derivative series per Newton step: a last step that rounds onto
    # the bracket end must end the search, not start a bisection of [0, psi]
    reg = model.compound_poisson_drift(2.0, s2, 1.0, SMALL_RATE_LAWS[law][0])
    with mock.patch.object(model, "exponent_series", wraps=model.exponent_series) as series:
        model.inverse_exponent(reg, lam)
    assert series.call_count <= 12


@pytest.mark.parametrize("law", SMALL_RATE_LAWS, ids=list(SMALL_RATE_LAWS))
def test_lst_complement_is_one_minus_the_transform(law):
    jump_law, complement = SMALL_RATE_LAWS[law]
    for a in (1e-300, 1e-12, 0.3, 4.0, 50.0):
        with mp.workdps(50):
            want = float(complement(mp.mpf(a)))
        assert math.isclose(jump_law.lst_complement(a), want, rel_tol=1e-14)
        # the difference is right to its absolute rounding only
        assert abs(jump_law.lst_complement(a) - (1.0 - jump_law.lst(a))) <= 4e-16
    assert jump_law.lst_complement(0.0) == 0.0


EXPONENT_LAWS = {
    "exp": (claims.Exponential(2.0), lambda a: a / (2 + a)),
    **SMALL_RATE_LAWS,
}


@pytest.mark.parametrize("law", EXPONENT_LAWS, ids=list(EXPONENT_LAWS))
@pytest.mark.parametrize("s2", [0.0, 0.5])
def test_exponent_keeps_its_digits_at_small_arguments(law, s2):
    # r a - c (1 - C(a)) at |a| far below the jump law's scale, at floats
    # and at complex arguments: 1 - C(a) as a difference would keep only
    # the digits of a times the mean
    jump_law, complement = EXPONENT_LAWS[law]
    reg = model.compound_poisson_drift(1.5, s2, 0.8, jump_law)
    rng = np.random.default_rng(1901)
    radius = 10.0 ** rng.uniform(-12.0, -3.0, 20)
    nodes = radius * np.exp(1j * rng.uniform(-1.5, 1.5, 20))
    got = model.laplace_exponent(reg, nodes)
    one = model.laplace_exponent(reg, complex(nodes[0]))  # one complex number
    assert abs(one - got[0]) <= 1e-15 * abs(got[0])
    with mp.workdps(50):
        r, c = mp.mpf(reg.r), mp.mpf(reg.jump_rate)
        half = mp.mpf(reg.sigma2) / 2

        def phi(a):
            return r * a + half * a * a - c * complement(a)

        for a in radius.tolist():
            value, want = model.laplace_exponent(reg, a), float(phi(mp.mpf(a)))
            assert abs(value - want) <= 1e-14 * abs(want), (a, value, want)
        for z, value in zip(nodes.tolist(), got.tolist()):
            want = complex(phi(mp.mpc(z.real, z.imag)))
            assert abs(value - want) <= 1e-13 * abs(want), (z, value, want)


# rates near 1e-9: ladder rates far below the jump laws' scales (the
# ``SMALL_RATES`` model of scripts/op_outputs.py)
SMALL_RATES = {
    "m": 2,
    "lambda_circ": [2e-9, 1e-9],
    "beta": 1e-9,
    "claims": [{"exp": {"mu": 1.0}}, {"erlang": {"k": 3, "mu": 2.0}}],
    "regimes": [
        {"cp": {"r": 1.5, "sigma2": 0.0, "rate": 0.8, "jump": {"exp": {"mu": 2.0}}}},
        {"cp": {"r": 2.0, "sigma2": 0.5, "rate": 1.0, "jump": {"erlang": {"k": 3, "mu": 2.0}}}},
        {"cp": {"r": 1.0, "sigma2": 0.0, "rate": 0.5, "jump": {"exp": {"mu": 1.5}}}},
    ],
}


def test_small_rates_keep_their_moments():
    # at rates near 1e-9 the maximum is that of the state-2 regime: a claim
    # arrives when the path lies about 1e9 below its maximum, and moves no
    # moment.  For r = 1 and Exp(mu = 1.5) jumps at rate c = 1/2,
    # P(M > u) = rho e^{-(mu - c/r) u} with rho = c / (r mu) = 1/3, so
    # E M = rho / (mu - c/r) = 1/3 and E M^2 = 2 rho / (mu - c/r)^2 = 2/3
    from poolruin.config import parse_model

    mdl, beta = parse_model(SMALL_RATES)
    jet = ladder.pi_jet(mdl, beta, 2)
    assert jet.v == 1.0
    assert math.isclose(-jet.d1, 1.0 / 3.0, rel_tol=1e-6)
    assert math.isclose(jet.d2, 2.0 / 3.0, rel_tol=1e-6)
    # and the values at and around every ladder rate lie on that jet, below 1
    rates = [
        model.inverse_exponent(reg, beta + (mdl.rate_for_state(k) if k else 0.0))
        for k, reg in enumerate(mdl.regimes)
    ]
    for psi in rates:
        for alpha in (0.5 * psi, 0.9 * psi, psi, 1.2 * psi, 2.0 * psi):
            value = ladder.pi_max(mdl, beta, 2, alpha)
            assert value <= 1.0
            taylor = 1.0 + alpha * jet.d1 + alpha * alpha * jet.d2 / 2.0
            assert abs(value - taylor) <= 1e-14, (alpha, value, taylor)


@pytest.mark.parametrize("r", [0.9, -0.9])
@pytest.mark.parametrize("lam", [1e-8, 1e-12, 1e-20])
def test_brownian_roots_without_cancellation(r, lam):
    # psi and the left root at a rate far below r^2 / sigma2, where the
    # root of a difference of near-equal terms would lose every digit
    reg = model.brownian_drift(r, 0.9)
    with mp.workdps(60):
        root = mp.sqrt(mp.mpf(r) ** 2 + 2 * mp.mpf(0.9) * mp.mpf(lam))
        psi = float((root - mp.mpf(r)) / mp.mpf(0.9))
        left = float((root + mp.mpf(r)) / mp.mpf(0.9))
    assert abs(model.inverse_exponent(reg, lam) - psi) <= 4 * math.ulp(psi)
    assert abs(model.left_root(reg, lam) - left) <= 4 * math.ulp(left)


def test_inverse_errors():
    with pytest.raises(NoRoot):
        model.inverse_exponent(model.subordinator(r=-1.0), 1.0)
    with pytest.raises(NoRoot):
        model.inverse_exponent(model.drift(0.0), 1.0)
    with pytest.raises(NoRoot):
        # jumps without premium: nondecreasing, whatever the label
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
    # analytic limit of (psi - a) / (lam - phi(a)) * lam / psi at a = psi
    center = lam / (psi * model.exponent_derivative(reg, psi))
    assert math.isclose(killed_max(reg, psi, lam), center, rel_tol=1e-12)
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
            model.killed_max_series(reg, a, lam, 2)
    # outside the window the series is the closed form
    a = 0.5 * psi
    got = model.killed_max_series(reg, a, lam, 2).c[0]
    closed = (psi - a) / (lam - model.laplace_exponent(reg, a)) * lam / psi
    assert math.isclose(got, closed, rel_tol=1e-14)


# regimes whose killed-maximum factor has a product form over its roots
CLOSED_FORMS = {
    "bm": model.brownian_drift(1.0, 1.0),
    "bm_downward": model.brownian_drift(-0.5, 2.0),
    "exp": model.compound_poisson_drift(2.0, 0.0, 1.0, claims.Exponential(2.0)),
    "exp_diffusion": model.compound_poisson_drift(1.5, 0.3, 1.0, claims.Exponential(2.0)),
    "exp_diffusion_downward": model.compound_poisson_drift(
        -1.5, 0.3, 1.0, claims.Exponential(2.0)
    ),
    "exp_diffusion_wide": model.compound_poisson_drift(0.2, 2.0, 3.0, claims.Exponential(0.5)),
}


def removable_formula(reg, z, lam):
    psi = model.inverse_exponent(reg, lam)
    return (psi - z) / (lam - model.laplace_exponent(reg, z)) * (lam / psi)


@pytest.mark.parametrize("reg", CLOSED_FORMS.values(), ids=list(CLOSED_FORMS))
@pytest.mark.parametrize("lam", [0.3, 1.0, 6.0])
def test_product_form_agrees_with_the_removable_formula(reg, lam):
    psi = model.inverse_exponent(reg, lam)
    assert model.product_form(reg, lam) is not None
    # outside the window of psi, where the formula keeps its digits
    for x in (0.05 * psi, 0.5 * psi, 1.5 * psi, 3.0 * psi, 10.0):
        want = removable_formula(reg, x, lam)
        assert math.isclose(model.killed_max(reg, x, lam), want, rel_tol=1e-13)
        got = model.killed_max_series(reg, x, lam, 2).c[0]
        assert math.isclose(got, want, rel_tol=1e-13)
    z = np.array([psi * (0.5 + 0.5j), psi * (1.0 + 0.8j), 2.0 - 3.0j, 0.3 + 1.0j, -0.02 + 0.1j])
    want = removable_formula(reg, z, lam)
    got = model.killed_max(reg, z, lam)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("reg", CLOSED_FORMS.values(), ids=list(CLOSED_FORMS))
@pytest.mark.parametrize("lam", [0.1, 1.3, 20.0])
def test_product_form_roots_are_the_negative_roots(reg, lam):
    psi = model.inverse_exponent(reg, lam)
    form = model.product_form(reg, lam, psi)
    assert model.killed_max(reg, 0.0, lam) == 1.0
    assert form.value(0.0) == 1.0
    assert model.killed_max_series(reg, 0.0, lam, 2).c[0] == 1.0
    assert form.poles == tuple(sorted(form.poles)) and form.left == form.poles[0]
    r, s2 = reg.r, reg.sigma2
    mu = reg.jump_law.mu if reg.jump_rate > 0 else None
    with mp.workdps(60):
        # lam - phi(z), times (mu + z) with exponential jumps: a polynomial
        # with the root psi, whose other roots are the poles, all real and
        # negative (one in (-mu, 0) and one below -mu with diffusion)
        coeffs = [-mp.mpf(s2) / 2, -mp.mpf(r), mp.mpf(lam)]
        if mu is not None:
            coeffs = [
                -mp.mpf(s2) / 2,
                -(mp.mpf(s2) * mu / 2 + r),
                mp.mpf(lam) - r * mu + reg.jump_rate,
                mp.mpf(lam) * mu,
            ]
        while coeffs[0] == 0:  # no diffusion: one degree less
            coeffs.pop(0)
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        negative = sorted(-float(mp.re(x)) for x in roots if mp.re(x) < 0)
        assert all(abs(mp.im(x)) <= mp.mpf(10) ** -40 for x in roots)
    assert len(negative) == len(form.poles)
    for got, want in zip(form.poles, negative):
        assert math.isclose(got, want, rel_tol=1e-13)
    if mu is not None:
        assert form.zeros == (mu,) and form.poles[0] < mu
        if s2 > 0:
            assert form.poles[1] > mu
    # K(0) = 1 from the factored polynomial: its constant term over the
    # product of the roots
    if mu is None:
        one = s2 * psi * form.poles[0] / (2.0 * lam)
    elif s2 == 0:
        one = lam * mu / (r * psi * form.poles[0])
    else:
        one = s2 * psi * form.poles[0] * form.poles[1] / (2.0 * lam * mu)
    assert abs(one - 1.0) <= 1e-15


@pytest.mark.parametrize("reg", CLOSED_FORMS.values(), ids=list(CLOSED_FORMS))
def test_product_form_jets_inside_the_old_window(reg):
    # no removable point: the jet at 0.8 psi is the series of the factors
    lam = 2.0
    psi = model.inverse_exponent(reg, lam)
    x = 0.8 * psi
    jet = model.killed_max_series(reg, x, lam, 2).jet()
    with mp.workdps(40):
        mpsi = mp.findroot(lambda a: _mp_phi(reg, a) - lam, mp.mpf(psi))

        def k(a):
            return (mpsi - a) / (lam - _mp_phi(reg, a)) * lam / mpsi

        want = [float(mp.diff(k, mp.mpf(x), n)) for n in (0, 1, 2)]
    for got, ref in zip((jet.v, jet.d1, jet.d2), want):
        assert math.isclose(got, ref, rel_tol=1e-13)
    assert ladder.engine(alone(reg), lam, 0).jet(x) == jet


def _mp_phi(reg, a):
    val = reg.r * a + mp.mpf(reg.sigma2) / 2 * a * a
    if reg.jump_rate > 0:
        val -= reg.jump_rate * a / (reg.jump_law.mu + a)
    return val


def test_subordinator_max_factor():
    sub = model.subordinator(r=-1.0)  # Z(t) = t: the transform is lam / (lam + a)
    for a, lam in ((0.0, 1.0), (1.0, 1.0), (1.0, 1e9), (2.5, 0.3)):
        got = model.killed_max_series(sub, a, lam, 0).c[0]
        assert math.isclose(got, lam / (lam + a), rel_tol=1e-14)
        assert killed_max(sub, a, lam) == got
    assert model.killed_max_series(sub, 0.0, 1.0, 0).c[0] == 1.0


def test_nondecreasing_follows_from_the_parameters():
    jumps = claims.Exponential(2.0)
    table = [
        (model.drift(1.0), False),
        (model.drift(0.0), True),
        (model.drift(-0.4), True),
        (model.brownian_drift(1.0, 1.0), False),
        (model.brownian_drift(-1.0, 1.0), False),
        (model.compound_poisson_drift(1.0, 0.0, 0.5, jumps), False),
        (model.compound_poisson_drift(0.0, 0.0, 0.5, jumps), True),
        (model.compound_poisson_drift(-0.4, 0.0, 0.5, jumps), True),
        (model.compound_poisson_drift(-0.4, 0.5, 0.5, jumps), False),
        (model.subordinator(), True),
        (model.subordinator(-0.4, 0.5, jumps), True),
    ]
    for reg, want in table:
        assert reg.nondecreasing is want, reg


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
        model.LevyRegime(r=1.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        model.LevyRegime(r=1.0, jump_rate=1.0)
    with pytest.raises(ValueError):
        model.compound_poisson_drift(1.0, 0.0, -1.0, claims.Exponential(1.0))


def test_one_process_is_one_regime():
    # a regime is its parameters: every spelling of one process is one object
    jumps = claims.Exponential(2.0)
    for r in (0.0, -0.4):
        assert model.drift(r) == model.subordinator(r)
        assert model.compound_poisson_drift(r, 0.0, 0.5, jumps) == model.subordinator(
            r, 0.5, jumps
        )
    assert model.compound_poisson_drift(1.0, 0.0, 0.0, jumps) == model.drift(1.0)
    assert model.compound_poisson_drift(1.0, 0.5, 0.0, jumps) == model.brownian_drift(
        1.0, 0.5
    )
    assert model.drift(0.0).pure_drift and model.drift(0.0).nondecreasing
    assert not model.brownian_drift(1.0, 0.5).pure_drift


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: model.drift(v), "r"),
        (lambda v: model.brownian_drift(v, 1.0), "r"),
        (lambda v: model.brownian_drift(1.0, v), "sigma2"),
        (lambda v: model.compound_poisson_drift(1.0, 0.0, v, claims.Exponential(2.0)), "jump_rate"),
        (lambda v: model.subordinator(r=v), "r"),
        (
            lambda v: model.ModelSpec(
                m=2,
                lambda_circ=(1.0, v),
                claims=(claims.Exponential(1.0),) * 2,
                regimes=(model.drift(1.0),) * 3,
            ),
            r"lambda_circ\[1\]",
        ),
    ],
    ids=["drift.r", "brownian.r", "brownian.sigma2", "cp.jump_rate", "subordinator.r",
         "ModelSpec.lambda_circ"],
)
def test_non_finite_parameters_are_refused(make, field, bad):
    with pytest.raises(ValueError, match=rf"{field} must be finite"):
        make(bad)


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


def test_equal_claim_laws_are_one_object():
    fig5, _ = load_model(Path(__file__).resolve().parent.parent / "configs" / "fig5.json")
    # five equal Lomax laws share one object, and with it their caches
    assert all(law is fig5.claims[0] for law in fig5.claims)
    spec = model.ModelSpec(
        m=3,
        lambda_circ=(1.0, 2.0, 3.0),
        claims=(claims.Exponential(1.0), claims.Erlang(2, 1.0), claims.Exponential(1)),
        regimes=(model.drift(0.0),) + (model.drift(1.0),) * 3,
    )
    assert spec.claims[2] is spec.claims[0]
    assert spec.claims[1] is not spec.claims[0]


def test_equal_phase_type_laws_in_a_config_are_one_object(tmp_path):
    # two ph claims parsed from one config are distinct objects with equal
    # generators: PhaseType equality makes them one law
    ph = {"ph": {"delta": [0.4, 0.6], "S": [[-2.0, 1.0], [0.0, -3.0]]}}
    other = {"ph": {"delta": [0.4, 0.6], "S": [[-2.0, 1.0], [0.0, -4.0]]}}
    cfg = tmp_path / "ph.json"
    cfg.write_text(json.dumps({
        "m": 3,
        "lambda_circ": [1.0, 2.0, 3.0],
        "beta": 1.0,
        "claims": [ph, other, ph],
        "regimes": [{"drift": {"r": 0.0}}] + [{"drift": {"r": 1.0}}] * 3,
    }))
    spec, _ = load_model(cfg)
    assert spec.claims[2] is spec.claims[0]
    assert spec.claims[1] is not spec.claims[0]
    assert spec.claims[1].ph != spec.claims[0].ph
    assert spec.claims[0].ph != "not a phase type"


def test_an_unhashable_law_is_kept_as_given():
    @dataclasses.dataclass  # eq without frozen: instances are unhashable
    class Unhashable(claims.ClaimDistribution):
        mu: float

    first, equal = Unhashable(1.0), Unhashable(1.0)
    spec = model.ModelSpec(
        m=2,
        lambda_circ=(1.0, 2.0),
        claims=(first, equal),
        regimes=(model.drift(0.0),) + (model.drift(1.0),) * 2,
    )
    assert spec.claims[0] is first and spec.claims[1] is equal


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


def _one_client(claim, regime):
    """One client with ``claim`` and ``regime``, a unit drift in state 0."""
    return model.ModelSpec(
        m=1, lambda_circ=(1.0,), claims=(claim,), regimes=(model.drift(1.0), regime)
    )


M1 = _one_client(claims.Exponential(1.0), model.drift(1.0))

# every public entry that takes a killing rate, called as f(model, beta)
BETA_ENTRIES = {
    "engine": lambda mdl, b: ladder.engine(mdl, b, 1),
    "pi_max": lambda mdl, b: ladder.pi_max(mdl, b, 1, 1.0),
    "pi_jet": lambda mdl, b: ladder.pi_jet(mdl, b, 1),
    "generic_spec_from_drift": lambda mdl, b: ladder.generic_spec_from_drift(mdl, b, 1),
    "OvershootTable": lambda mdl, b: overshoot.OvershootTable(mdl, b),
    "xi": lambda mdl, b: overshoot.xi(mdl, 1, 0, 0.5, b, 2.0),
    "zeta": lambda mdl, b: overshoot.zeta(mdl, 1, 0, 0.5, b),
    "pi_via_ladders": lambda mdl, b: overshoot.pi_via_ladders(mdl, b, 1.0),
    "pi_explicit_chains": lambda mdl, b: overshoot.pi_explicit_chains(mdl, b, 1.0),
    "running_max_ph": lambda mdl, b: phase_type.running_max_ph(mdl, b, 1),
    "ruin_curve": lambda mdl, b: inversion.ruin_curve(mdl, b, [1.0]),
    "simulate_paths": lambda mdl, b: simulate.simulate_paths(mdl, b, n_paths=10),
    "simulate_trace": lambda mdl, b: simulate.simulate_trace(mdl, b, n_paths=10),
    "phi_coefficient": lambda mdl, b: heavy_tail.phi_coefficient(mdl, b, 1),
    "rv_tail_approx": lambda mdl, b: heavy_tail.rv_tail_approx(mdl, b, 5.0),
    "rv_asymptote": lambda mdl, b: heavy_tail.rv_asymptote(mdl, b),
    # the rule's first half only: the arrivals alone, or a fixed horizon
    "expected_claims": lambda mdl, b: heavy_tail.expected_claims(mdl, b),
    "m_distribution": lambda mdl, b: heavy_tail.m_distribution(mdl, b),
    "simulate_paths_horizon": lambda mdl, b: simulate.simulate_paths(
        mdl, b, n_paths=10, horizon_t=1.0
    ),
    "simulate_trace_horizon": lambda mdl, b: simulate.simulate_trace(
        mdl, b, n_paths=10, horizon_t=1.0
    ),
}
FIRST_HALF = {
    "expected_claims",
    "m_distribution",
    "simulate_paths_horizon",
    "simulate_trace_horizon",
}


def _call(entry, regime, beta):
    # the regular-variation entries need a regularly varying claim law
    rv = entry in ("phi_coefficient", "rv_tail_approx", "rv_asymptote")
    claim = claims.Lomax(1.0, 1.5) if rv else claims.Exponential(1.0)
    return BETA_ENTRIES[entry](_one_client(claim, regime), beta)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("entry", BETA_ENTRIES)
def test_every_entry_refuses_an_invalid_killing_rate(entry, beta):
    with pytest.raises(ValueError, match="^beta must be (finite|nonnegative)"):
        _call(entry, model.drift(1.0), beta)


@pytest.mark.parametrize("entry", BETA_ENTRIES)
def test_beta_zero_needs_the_drift_model_on_every_route(entry):
    _call(entry, model.drift(1.0), 0.0)  # the infinite horizon
    brownian = model.brownian_drift(1.0, 1.0)
    if entry in FIRST_HALF:
        _call(entry, brownian, 0.0)
    else:
        with pytest.raises(KillingRequired, match="at beta = 0 .* needs the drift model"):
            _call(entry, brownian, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: overshoot.OvershootTable(M1, 1.0).xi(1, 0, 0.5, math.nan),
        lambda: phase_type.ph_tail(phase_type.running_max_ph(M1, 1.0, 1), math.nan),
        lambda: phase_type.ph_lst(phase_type.running_max_ph(M1, 1.0, 1), math.nan),
        lambda: heavy_tail.rv_tail_approx(
            _one_client(claims.Lomax(1.0, 1.5), model.drift(1.0)), 1.0, math.nan
        ),
        lambda: model.inverse_exponent(model.brownian_drift(1.0, 1.0), math.nan),
        lambda: model.inverse_exponent(model.drift(1.0), math.nan),
        lambda: model.left_root(model.brownian_drift(1.0, 1.0), math.nan),
    ],
    ids=[
        "xi-gamma",
        "ph_tail-u",
        "ph_lst-alpha",
        "rv_tail_approx-u",
        "inverse_exponent-lam",
        "inverse_exponent-drift-lam",
        "left_root-lam",
    ],
)
def test_nan_arguments_fail_their_sign_checks(call):
    with pytest.raises(ValueError, match="must be (positive|nonnegative)"):
        call()


@pytest.mark.parametrize("mu", (0.7, 2.0))
@pytest.mark.parametrize("r,s2", [(1.5, 0.0), (1.0, 0.4), (-0.3, 0.5)])
def test_one_phase_erlang_jumps_take_the_exponential_route(r, s2, mu):
    # {"erlang": {"k": 1, ...}} is Exp(mu) written another way: the same
    # closed-form psi and product form, hence the same transforms, bit for bit
    def spelled(law):
        reg = model.compound_poisson_drift(r, s2, 0.8, law)
        spec = model.ModelSpec(
            m=2, lambda_circ=(0.6, 1.1), claims=(claims.Exponential(1.0),) * 2,
            regimes=(reg, model.drift(2.0), reg),
        )
        out = []
        for lam in (1e-6, 0.3, 1.0, 4.0):
            out.append(repr(model.inverse_exponent(reg, lam)))
            out.append(repr(model.product_form(reg, lam)))
        out += [repr(ladder.pi_max(spec, 1.0, 2, a)) for a in (0.3, 1.7)]
        out.append(repr(ladder.pi_jet(spec, 1.0, 2)))
        return out

    exp_route = spelled(claims.Exponential(mu))
    assert "None" not in exp_route[1]
    assert spelled(claims.Erlang(1, mu)) == exp_route


@pytest.mark.parametrize("mu", (0.7, 2.0))
def test_one_phase_erlang_subordinator_has_the_exponential_bits(mu):
    # a nondecreasing regime's exponent takes the jump law's real complement
    def exponents(law):
        reg = model.subordinator(-0.5, 0.8, law)
        return [repr(model.laplace_exponent(reg, a)) for a in (1e-9, 0.003, 0.3, 1.0, 1.7, 5.0)]

    assert exponents(claims.Erlang(1, mu)) == exponents(claims.Exponential(mu))


# one regime of each kind, with the form of its killed-maximum factor
KILLED_MAX_KINDS = {
    "flat": (model.drift(0.0), "nondecreasing"),
    "sub_exp": (model.subordinator(-0.5, 0.5, claims.Exponential(2.0)), "nondecreasing"),
    "bm": (model.brownian_drift(1.0, 0.5), "product"),
    "cp_exp": (model.compound_poisson_drift(1.5, 0.0, 0.8, claims.Exponential(2.0)), "product"),
    "cp_exp_bm": (model.compound_poisson_drift(1.0, 0.3, 1.0, claims.Exponential(2.0)), "product"),
    "cp_erlang": (model.compound_poisson_drift(1.2, 0.0, 0.7, claims.Erlang(2, 3.0)), "formula"),
    "cp_ph": (
        model.compound_poisson_drift(
            2.0, 0.0, 0.9,
            claims.PhaseTypeClaim(phase_type.PhaseType(
                delta=np.array([0.4, 0.6]), S=np.array([[-2.0, 1.0], [0.0, -3.0]])
            )),
        ),
        "formula",
    ),
    "cp_point": (model.compound_poisson_drift(1.0, 0.2, 0.6, claims.PointMass(0.7)), "formula"),
}


@pytest.mark.parametrize("name", KILLED_MAX_KINDS)
@pytest.mark.parametrize("lam", [0.7, 2.0])
def test_killed_max_decides_the_form_in_one_place(name, lam):
    reg, kind = KILLED_MAX_KINDS[name]
    k = model.KilledMax(reg, lam)
    assert isinstance(k.form, model.ProductForm) == (kind == "product")
    if kind == "nondecreasing":
        assert k.psi is None
    else:
        assert k.psi == model.inverse_exponent(reg, lam)
    assert k.removable == ((k.psi,) if kind == "formula" else ())
    # a psi the caller holds, or one it passes to a nondecreasing regime
    # (which has none), decides nothing else
    held = model.KilledMax(reg, lam, model.inverse_exponent(reg, lam) if k.psi else 1.0)
    assert (held.psi, held.form, held.removable) == (k.psi, k.form, k.removable)
    # the function views are the object's own values, bit for bit
    for x in (0.0, 0.3, 2.5):
        assert repr(model.killed_max(reg, x, lam)) == repr(k.real(x))
    z = np.array([0.5 + 0.4j, 2.0 - 1.0j, 1.3 + 0.0j])
    assert repr(model.killed_max(reg, z, lam).tolist()) == repr(k.real(z).tolist())
    for x in (0.0, 2.0 * (k.psi or 1.0)):
        assert repr(model.killed_max_series(reg, x, lam, 2).c) == repr(k.series(x, 2).c)


def test_flat_base_at_the_infinite_horizon_is_one():
    # a flat state 0 at beta = 0 has K = 1: the base solves no psi, and its
    # value and atom are exactly one
    flat = alone(model.drift(0.0))
    with mock.patch.object(model, "inverse_exponent", side_effect=AssertionError), \
            mock.patch.object(ladder, "inverse_exponent", side_effect=AssertionError):
        eng = ladder.engine(flat, 0.0, 0)
        assert isinstance(eng.base, ladder._One)
        assert [eng.value(x) for x in (0.0, 0.7, 5.0)] == [1.0, 1.0, 1.0]
        assert eng.atom() == 1.0


def test_a_positive_pure_drift_has_the_factor_one():
    # the ladder keeps no factor for it, but the class takes it too
    k = model.KilledMax(model.drift(3.0), 1.0)
    assert (k.psi, k.form, k.removable, k.left) == (None, model.ProductForm((), ()), (), math.inf)
    assert (k.atom, k.real(0.7), k.series(0.7, 2).c) == (1.0, 1.0, (1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: model.inverse_exponent(model.brownian_drift(1.0, 1.0), math.inf),
        lambda: model.inverse_exponent(model.drift(1.0), math.inf),
        lambda: model.left_root(model.brownian_drift(1.0, 1.0), math.inf),
        lambda: model.KilledMax(model.brownian_drift(1.0, 1.0), math.inf).real(0.5),
    ],
    ids=["inverse_exponent", "inverse_exponent-drift", "left_root", "KilledMax"],
)
def test_an_infinite_rate_is_refused(call):
    # each got past a sign check alone, to nan or inf
    with pytest.raises(ValueError, match=r"^lam must be positive and finite, got inf$"):
        call()
