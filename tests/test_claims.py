import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolruin import claims, ladder, phase_type
from poolruin.errors import MomentUndefined, NoConvergence, PoolRuinError
from poolruin.phase_type import PhaseType

ALL_KINDS = [
    claims.Exponential(1.0),
    claims.Erlang(2, 1.0),
    claims.PhaseTypeClaim(claims.Erlang(3, 2.0).phase_type()),
    claims.Lomax(1.0, 1.5),
    claims.PointMass(3.0),
]


def test_lst_point_values():
    assert math.isclose(claims.Exponential(1.0).lst(1.0), 0.5)
    assert math.isclose(claims.Erlang(2, 1.0).lst(1.0), 0.25)
    assert claims.Lomax(1.0, 1.5).lst(0.0) == 1.0


def test_jets_at_zero_give_moments():
    j = claims.Exponential(1.0).lst_jet(0.0)
    assert (j.v, j.d1, j.d2) == (1.0, -1.0, 2.0)
    j = claims.Erlang(2, 1.0).lst_jet(0.0)
    assert (j.v, j.d1, j.d2) == (1.0, -2.0, 6.0)
    j = claims.PointMass(3.0).lst_jet(1.0)
    e3 = math.exp(-3.0)
    assert math.isclose(j.v, e3) and math.isclose(j.d1, -3 * e3)
    assert math.isclose(j.d2, 9 * e3)


def test_tail_values():
    assert claims.Lomax(1.0, 1.5).tail(0.0) == 1.0
    assert math.isclose(claims.Lomax(1.0, 1.5).tail(3.0), 0.125)
    assert math.isclose(claims.Exponential(2.0).tail(1.0), math.exp(-2.0))
    assert claims.PointMass(3.0).tail(2.9) == 1.0
    assert claims.PointMass(3.0).tail(3.0) == 0.0


ERLANG_TAILS = [claims.Erlang(1, 0.7), claims.Erlang(3, 2.0), claims.Erlang(7, 0.4)]
TAIL_POINTS = (0.0, 0.3, 1.0, 2.5, 7.0, 15.0)


@pytest.mark.parametrize("law", ERLANG_TAILS, ids=repr)
def test_erlang_tails_against_the_incomplete_gamma(law):
    # Erlang.tail and the tail of its phase-type form, as a PhaseTypeClaim,
    # against the regularized upper incomplete gamma function, and the
    # law's tail against ph_tail of its own phase-type form
    ph = law.phase_type()
    as_ph = claims.PhaseTypeClaim(ph)
    for u in TAIL_POINTS:
        with mp.workdps(50):
            # the upper one, from mu u to infinity
            want = float(mp.gammainc(law.k, law.mu * mp.mpf(u), regularized=True))
        assert math.isclose(law.tail(u), want, rel_tol=1e-14), (law, u)
        assert math.isclose(as_ph.tail(u), want, rel_tol=1e-12), (law, u)
        assert math.isclose(law.tail(u), phase_type.ph_tail(ph, u), rel_tol=1e-12)


@pytest.mark.parametrize(
    "law",
    [
        claims.Exponential(0.7),
        claims.Erlang(3, 2.0),
        claims.PhaseTypeClaim(claims.Erlang(3, 2.0).phase_type()),
        claims.PointMass(0.0),
        claims.PointMass(2.5),
    ],
    ids=repr,
)
def test_moments_are_the_transform_derivatives_at_zero(law):
    # E X = -C'(0) and E X^2 = C''(0), the series' coefficients c1 and 2 c2
    c = law.lst_series(0.0, 2).c
    assert math.isclose(law.mean(), -c[1], rel_tol=1e-15, abs_tol=0.0)
    assert math.isclose(law.second_moment(), 2.0 * c[2], rel_tol=1e-15, abs_tol=0.0)


def test_only_the_point_mass_at_zero_is_phase_type():
    assert claims.PointMass(0.0).phase_type() == phase_type.point_mass_zero()
    assert claims.PointMass(2.5).phase_type() is None


# frozen against 40-digit quadrature of the transform kernel
LOMAX_ORACLE = [
    (1.0, 1.5, 1.0, 0.51574431228262421, -0.21063921929343947, 0.19978548334246501),
    (1.0, 1.5, 0.25, 0.77282068038252352, -0.59025523732233535, 1.320517009563088),
    (2.0, 2.5, 0.7, 0.58495519563060608, -0.31239248148662359, 0.37710313564286259),
    (1.0, 0.5, 1.0, 0.24212784385868789, -0.13680823421196816, 0.17372372675270381),
]


@pytest.mark.parametrize("c,eps,a,v,d1,d2", LOMAX_ORACLE)
def test_lomax_lst_against_highprec_quadrature(c, eps, a, v, d1, d2):
    jet = claims.Lomax(c, eps).lst_jet(a)
    assert math.isclose(jet.v, v, rel_tol=1e-11)
    assert math.isclose(jet.d1, d1, rel_tol=1e-10)
    assert math.isclose(jet.d2, d2, rel_tol=1e-10)


def test_lomax_moments():
    d = claims.Lomax(1.0, 1.5)
    assert math.isclose(d.mean(), 2.0)
    with pytest.raises(MomentUndefined):
        d.second_moment()
    with pytest.raises(MomentUndefined):
        d.lst_jet(0.0)  # second derivative at zero needs eps > 2
    assert math.isclose(claims.Lomax(1.0, 2.5).second_moment(), 2 / (1.5 * 0.5))
    with pytest.raises(MomentUndefined):
        claims.Lomax(1.0, 0.5).mean()


def test_lomax_rejects_integer_tail_index():
    with pytest.raises(ValueError):
        claims.Lomax(1.0, 2.0)


def test_lomax_kernel_cache_is_its_own():
    # the quadrature cache is no constructor field: a copy starts empty
    with pytest.raises(TypeError):
        claims.Lomax(1.0, 1.5, _kernel_cache={})
    law = claims.Lomax(1.0, 1.5)
    law.lst(0.5)
    copy = dataclasses.replace(law, c=2.0)
    assert law._kernel_cache and not copy._kernel_cache


def test_lomax_density_overflow_is_a_numerical_failure():
    # c**eps overflows inside the quadrature's integrand: the failure names
    # the law, the argument and the stage, and raises on every call
    law = claims.Lomax(1e300, 1.5)
    for _ in range(2):
        with pytest.raises(
            PoolRuinError, match=r"Lomax\(c=1e\+300, eps=1\.5\) .* alpha = 1\.0: .*quadrature"
        ):
            law.lst(1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: claims.Exponential(v), "mu"),
        (lambda v: claims.Erlang(2, v), "mu"),
        (lambda v: claims.Erlang(v, 1.0), "k"),
        (lambda v: claims.Lomax(v, 1.5), "c"),
        (lambda v: claims.Lomax(1.0, v), "eps"),
        (lambda v: claims.PointMass(v), "b"),
        (lambda v: PhaseType(delta=[v], S=[[-1.0]]), "delta"),
        (lambda v: PhaseType(delta=[1.0], S=[[v]]), "S"),
        (lambda v: PhaseType(delta=[], S=np.zeros((0, 0)), delta_abs=v), "delta_abs"),
    ],
    ids=[
        "Exponential.mu", "Erlang.mu", "Erlang.k", "Lomax.c", "Lomax.eps",
        "PointMass.b", "PhaseType.delta", "PhaseType.S", "PhaseType.delta_abs",
    ],
)
def test_non_finite_parameters_are_refused(make, field, bad):
    # a sign check alone passes NaN, and inf gave a transform that is NaN
    with pytest.raises(ValueError, match=rf"\b{field}\b.*finite"):
        make(bad)


def test_rv_meta_lomax():
    meta = claims.Lomax(1.0, 1.5).rv_meta
    assert meta.delta == 1.5 and meta.n_delta == 1
    # Gamma(-1/2) = -2 sqrt(pi), so theta = 2 sqrt(pi) C^1.5 > 0
    assert math.isclose(meta.theta, 2 * math.sqrt(math.pi))


def test_rv_expansion_recovers_theta():
    # (B(a) - 1 - b1 a) / a^delta -> theta as a -> 0
    d = claims.Lomax(1.0, 1.5)
    meta = d.rv_meta
    a = 1e-4
    remainder = d.lst(a) - 1.0 + d.mean() * a
    assert abs(remainder / a**1.5 / meta.theta - 1.0) < 0.02


PH_GENERAL = claims.PhaseTypeClaim(
    PhaseType(
        delta=np.array([0.3, 0.5, 0.1]),
        S=np.array([[-2.0, 1.0, 0.5], [0.0, -1.5, 0.2], [0.3, 0.0, -0.8]]),
        delta_abs=0.1,
    )
)
COMPLEX_KINDS = ALL_KINDS + [
    PH_GENERAL,
    claims.Lomax(0.3, 2.5),
    claims.Lomax(2.0, 0.7),
    claims.Lomax(1.0, 3.2),
]


def _mp_lst(dist, z):
    """The transform at complex ``z`` in mpmath."""
    if isinstance(dist, claims.Exponential):
        return dist.mu / (dist.mu + z)
    if isinstance(dist, claims.Erlang):
        return (dist.mu / (dist.mu + z)) ** dist.k
    if isinstance(dist, claims.PointMass):
        return mp.exp(-dist.b * z)
    if isinstance(dist, claims.Lomax):
        w = dist.c * z
        return dist.eps * w**dist.eps * mp.exp(w) * mp.gammainc(-dist.eps, w)
    ph = dist.ph
    A = mp.matrix(z * np.eye(ph.d) - ph.S)
    x = mp.lu_solve(A, mp.matrix(ph.s))
    return ph.delta_abs + sum(ph.delta[i] * x[i] for i in range(ph.d))


def _complex_grid():
    rng = np.random.default_rng(8)
    z = rng.uniform(1e-3, 6.0, 60) + 1j * rng.uniform(-8.0, 8.0, 60)
    polar = 10.0 ** rng.uniform(-3, 2, 40) * np.exp(1j * rng.uniform(-1.5, 1.5, 40))
    # both sides of the Lomax switch from series to continued fraction
    edge = np.array([0.999, 1.001]) * np.exp(1j * np.array([[0.3], [-1.2]]))
    return np.concatenate([z, polar, edge.ravel()])


@pytest.mark.parametrize("dist", COMPLEX_KINDS, ids=lambda d: d.kind)
def test_lst_complex_against_mpmath(dist):
    z = _complex_grid()
    if isinstance(dist, claims.Lomax):
        z = z / dist.c  # the grid in units of the switch at |cz| = 1
    got = dist.lst_complex(z)
    assert got.shape == z.shape
    with mp.workdps(40):
        for zi, gi in zip(z, got):
            want = complex(_mp_lst(dist, mp.mpc(zi.real, zi.imag)))
            assert abs(gi - want) <= 1e-13 * abs(want), (zi, gi, want)


@pytest.mark.parametrize("dist", COMPLEX_KINDS, ids=lambda d: d.kind)
def test_lst_complex_on_the_real_axis_is_lst(dist):
    x = np.array([1e-3, 0.05, 0.3, 0.999, 1.0, 1.5, 2.0, 7.0, 40.0])
    got = dist.lst_complex(x.astype(complex))
    for xi, gi in zip(x, got):
        want = dist.lst(float(xi))
        assert abs(gi.imag) <= 1e-14 * want
        assert abs(gi.real - want) <= 1e-14 * want, (xi, gi, want)


def _mp_complement(dist, z):
    """1 - C(z) in mpmath; for a phase type z delta (z I - S)^(-1) 1, which
    is that difference when delta sums to 1 - delta_abs, as it does but
    for the rounding of the float parameters."""
    if not isinstance(dist, claims.PhaseTypeClaim):
        return 1 - _mp_lst(dist, z)
    ph = dist.ph
    x = mp.lu_solve(mp.matrix(z * np.eye(ph.d) - ph.S), mp.matrix([1] * ph.d))
    return z * sum(ph.delta[i] * x[i] for i in range(ph.d))


@pytest.mark.parametrize(
    "dist", [d for d in COMPLEX_KINDS if d.kind != "lomax"], ids=lambda d: d.kind
)
def test_lst_complement_complex_against_mpmath(dist):
    # 1 - C(z) without the difference: relative accuracy down to tiny |z|,
    # where 1 - lst_complex keeps only the digits of z times the mean
    rng = np.random.default_rng(19)
    tiny = 10.0 ** rng.uniform(-12, -4, 30) * np.exp(1j * rng.uniform(-1.5, 1.5, 30))
    z = np.concatenate([_complex_grid(), tiny])
    got = dist.lst_complement_complex(z)
    assert got.shape == z.shape
    with mp.workdps(40):
        for zi, gi in zip(z, got):
            want = complex(_mp_complement(dist, mp.mpc(zi.real, zi.imag)))
            assert abs(gi - want) <= 1e-13 * abs(want), (zi, gi, want)
    # one complex number, as the left-root bisection asks, on the real axis
    one = dist.lst_complement_complex(complex(0.3))
    assert abs(one - dist.lst_complement(0.3)) <= 1e-15


def test_lomax_complement_is_the_difference():
    # the series and continued fraction give the transform, not 1 - C
    law = claims.Lomax(1.0, 1.5)
    z = _complex_grid()
    assert np.array_equal(law.lst_complement_complex(z), 1.0 - law.lst_complex(z))


def test_left_singularities():
    assert claims.Exponential(2.5).left_singularity == 2.5
    assert claims.Erlang(3, 0.7).left_singularity == 0.7
    assert claims.PointMass(1.0).left_singularity == math.inf
    assert claims.Lomax(1.0, 1.5).left_singularity == 0.0
    # the spectral abscissa: the slowest exit rate of an Erlang chain
    ph = claims.PhaseTypeClaim(claims.Erlang(2, 1.3).phase_type())
    assert math.isclose(ph.left_singularity, 1.3, rel_tol=1e-12)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
def test_jets_match_finite_differences(dist):
    for a in (0.1, 1.0, 10.0):
        h = 1e-5 * max(1.0, a)
        jet = dist.lst_jet(a)
        d1 = (dist.lst(a + h) - dist.lst(a - h)) / (2 * h)
        d2 = (dist.lst(a + h) - 2 * dist.lst(a) + dist.lst(a - h)) / h**2
        assert math.isclose(jet.d1, d1, rel_tol=1e-6, abs_tol=1e-9)
        assert math.isclose(jet.d2, d2, rel_tol=1e-4, abs_tol=1e-7)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
def test_lst_completely_monotone_on_grid(dist):
    grid = np.linspace(0.0, 8.0, 33)
    vals = [dist.lst(a) for a in grid]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(0 < v <= 1 for v in vals)
    diffs = np.diff(vals)
    assert (diffs <= 1e-12).all()
    assert (np.diff(diffs) >= -1e-12).all()  # convex


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
def test_sampling_matches_transform(dist):
    rng = np.random.default_rng(1234)
    x = dist.sample(rng, 1_000_000)
    assert (x >= 0).all()
    e = np.exp(-x)
    est = e.mean()
    se = e.std() / math.sqrt(len(e))
    assert abs(est - dist.lst(1.0)) < 4 * max(se, 1e-9)


# each law's draws as numpy's own samplers give them
NUMPY_DRAWS = {
    "exp": lambda rng, n: rng.exponential(1.0 / 0.7, n),
    "erlang": lambda rng, n: rng.gamma(3, 1.0 / 0.7, n),
    "lomax": lambda rng, n: 0.6 * ((1.0 - rng.random(n)) ** (-1.0 / 2.3) - 1.0),
    "point": lambda rng, n: np.full(n, 0.4),
}
DRAW_LAWS = {
    "exp": claims.Exponential(0.7),
    "erlang": claims.Erlang(3, 0.7),
    "lomax": claims.Lomax(0.6, 2.3),
    "point": claims.PointMass(0.4),
    "ph": ALL_KINDS[2],
}


@pytest.mark.parametrize("name", sorted(DRAW_LAWS))
def test_sample_into_a_given_array(name):
    # drawn in place into a row of a larger buffer: the same bits as a
    # fresh array, and as numpy's own sampler of the law
    law = DRAW_LAWS[name]
    fresh = law.sample(np.random.default_rng(9), 1001)
    buf = np.full((2, 1001), -1.0)
    row = buf[1]
    assert law.sample(np.random.default_rng(9), 1001, out=row) is row
    assert row.tobytes() == fresh.tobytes()
    assert (buf[0] == -1.0).all()
    if name in NUMPY_DRAWS:
        assert fresh.tobytes() == NUMPY_DRAWS[name](np.random.default_rng(9), 1001).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 5.0), st.integers(1, 4), st.floats(0.0, 20.0))
def test_erlang_series_consistent_with_power(mu, k, a):
    d = claims.Erlang(k, mu)
    assert math.isclose(d.lst(a), d.lst_series(a, 0).c[0], rel_tol=1e-13)
    assert math.isclose(d.lst(a), claims.Exponential(mu).lst(a) ** k, rel_tol=1e-12)


def test_phase_type_claim_matches_erlang():
    er = claims.Erlang(2, 1.0)
    ph = claims.PhaseTypeClaim(er.phase_type())
    for a in (0.0, 0.5, 1.0, 4.0):
        assert math.isclose(ph.lst(a), er.lst(a), rel_tol=1e-12)
    assert math.isclose(ph.mean(), 2.0, rel_tol=1e-12)
    assert math.isclose(ph.second_moment(), 6.0, rel_tol=1e-12)


@pytest.mark.parametrize("law,alpha", [
    (claims.Exponential(1.0), 41.0),     # (mu + alpha)^(i + 1) overflows from i = 189
    (claims.Exponential(0.25), 0.0),     # 0.25^(i + 1) underflows to zero from i = 537
    (claims.Erlang(3, 2.0), 30.0),
])
def test_high_order_coefficients_beyond_the_float_range(law, alpha):
    order = 800
    c = law.lst_series(alpha, order).c
    assert len(c) == order + 1 and all(type(x) is float for x in c)
    k = getattr(law, "k", 1)
    with mp.workdps(30):
        for i in (0, 1, 150, 189, 190, 191, 400, 536, 537, order):
            want = (-1) ** i * mp.binomial(k + i - 1, i) * mp.mpf(law.mu) ** k / (
                mp.mpf(law.mu) + alpha
            ) ** (k + i)
            if abs(want) < mp.mpf(2.0) ** -1074:
                assert c[i] == 0.0
            elif abs(want) > mp.mpf(np.finfo(float).max):
                assert c[i] == math.copysign(math.inf, want)
            else:
                assert math.isclose(c[i], float(want), rel_tol=1e-12, abs_tol=1e-320)


# ------------------------------------------------- divided differences

EPS = np.finfo(float).eps
DD_LAWS = [claims.Exponential(1.5)] + [claims.Erlang(k, mu) for k in (1, 2, 3, 7) for mu in (1.5, 0.3)]


def _mp_dd(law, z, points):
    """C[z, points] in 50 digits from the closed form, confluent points
    included: (-1/mu)^n u(z) prod u(p) h_{k-1}(u(z), u(p), ...)."""
    from itertools import combinations_with_replacement

    with mp.workdps(50):
        mu = mp.mpf(law.mu)
        k = getattr(law, "k", 1)
        us = [mu / (mu + mp.mpc(x) if isinstance(x, complex) else mu + mp.mpf(x)) for x in (z, *points)]
        h = sum((mp.fprod(c) for c in combinations_with_replacement(us, k - 1)), mp.mpf(0))
        return (-1 / mu) ** len(points) * mp.fprod(us) * (h if k > 1 else 1)


def _mp_quotient(law, z, c):
    # the defining quotient in 50 digits, to check the closed form itself
    with mp.workdps(50):
        mu, k = mp.mpf(law.mu), getattr(law, "k", 1)
        lst = lambda x: (mu / (mu + x)) ** k
        return (lst(mp.mpf(z)) - lst(mp.mpf(c))) / (mp.mpf(z) - mp.mpf(c))


# the points of the overshoot route's divided differences: c = nu, a = alpha
FOUND_C = (1e-4, 1e-3, 1e-2)
FOUND_RATIOS = (0.5, 0.64, 1.36, 1.5, 2.0, 3.0)


def _real_cases():
    for c in FOUND_C + (0.4, 2.5):
        for x in [c * q for q in FOUND_RATIOS] + [c, 0.0, 7.0]:
            yield x, (c,)
            yield x, (c, c)  # confluent in the points
            yield x, (x, c)  # confluent in z and a
            yield x, (0.3 * c + 0.05, c)


@pytest.mark.parametrize("law", DD_LAWS, ids=repr)
def test_divided_differences_against_mpmath(law):
    # cancellation-free: within 4 eps of 50 digits at real points,
    # including the confluent ones and the tiny rates where the quotient
    # (C(x) - C(c)) / (x - c) cancels on the law's own scale
    worst = 0.0
    for x, points in _real_cases():
        got = law.divided_difference(*points)(x)
        assert type(got) is float
        want = _mp_dd(law, x, points)
        worst = max(worst, abs(got - float(want)) / abs(float(want)))
    assert worst <= 4 * EPS, worst / EPS
    # the closed form is the divided difference
    want = _mp_dd(law, 0.7, (0.2,))
    assert abs(float(want) - float(_mp_quotient(law, 0.7, 0.2))) <= 1e-30


@pytest.mark.parametrize("law", DD_LAWS, ids=repr)
def test_divided_differences_have_the_same_bits_on_floats_and_arrays(law):
    for points in ((0.4,), (1.3, 0.4), (0.4, 0.4)):
        dd = law.divided_difference(*points)
        xs = [0.0, 1e-4, 0.4, 0.52, 3.0, 1e300, 1e305]  # 1e305: the split overflows
        floats = [dd(x) for x in xs]
        assert np.array(floats).tobytes() == dd(np.array(xs)).tobytes()
        bounds = [dd.bound(x) for x in xs]
        assert np.array(bounds).tobytes() == dd.bound(np.array(xs)).tobytes()


@pytest.mark.parametrize("law", DD_LAWS, ids=repr)
def test_divided_differences_at_complex_nodes_within_their_bound(law):
    # circles around the points, as the overshoot base's contours take
    # them: the error against 50 digits is within eps times the bound at
    # the circle's leftmost real part
    for points in ((0.4,), (1.3, 0.4)):
        dd = law.divided_difference(*points)
        for x in (0.05, 0.4, 1.3, 4.0):
            r = 0.9 * x
            z = x + r * np.exp(1j * np.linspace(0.1, 3.0, 9))
            got = dd(z)
            bound = dd.bound(x - r)
            for zi, gi in zip(z, got):
                want = complex(_mp_dd(law, complex(zi), points))
                assert abs(gi - want) <= EPS * bound, (x, zi)
            # every node at least its own real part's bound
            assert np.all(dd.bound(z.real) <= bound)


def test_laws_without_a_closed_form_have_no_divided_difference():
    for law in ALL_KINDS[2:]:
        assert law.divided_difference(0.4) is None
        assert law.divided_difference(1.0, 0.4) is None


def test_atoms():
    assert [law.atom for law in ALL_KINDS] == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert claims.PointMass(0.0).atom == 1.0
    ph = PhaseType(delta=np.array([0.75]), S=np.array([[-1.0]]), delta_abs=0.25)
    assert claims.PhaseTypeClaim(ph).atom == 0.25


# Exp(mu) is the Erlang law with one phase: every member it shares with
# Erlang(1, mu) gives the same bits, or raises the same error
ONE_PHASE_MU = (1e-200, 0.7, 5.0)
REAL_ARGS = (0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 1e20, 1e300)
# the upper-half nodes of a few ladder circles: centre x, radius r x
CIRCLE_NODES = np.concatenate(
    [x + q * x * ladder._UNIT for x in (1e-3, 0.4, 2.5) for q in (0.5, 0.97)]
)


def _outcome(call, *args):
    """The repr of call(*args) (bytes for an array), or its error."""
    try:
        out = call(*args)
    except Exception as exc:  # the same error type and message on both sides
        return type(exc).__name__, str(exc)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return repr(out)


def _one_phase_cases(law):
    """(name, outcome) of every member Exponential shares with Erlang."""
    nodes = law.mu * CIRCLE_NODES
    yield "lst", [_outcome(law.lst, a) for a in REAL_ARGS]
    yield "lst_complement", [_outcome(law.lst_complement, a) for a in REAL_ARGS]
    yield "lst_complex", _outcome(law.lst_complex, nodes)
    yield "lst_complex one", [_outcome(law.lst_complex, complex(z)) for z in nodes[:4]]
    yield "lst_complement_complex", _outcome(law.lst_complement_complex, nodes)
    for order in (0, 1, 2):
        for a in REAL_ARGS:
            yield f"lst_series {order} {a}", _outcome(lambda: law.lst_series(a, order).c)
    yield "lst_jet", _outcome(lambda: law.lst_jet(0.3))
    yield "modulus_bound", [_outcome(law.modulus_bound, t) for t in REAL_ARGS]
    yield "modulus_bound array", _outcome(law.modulus_bound, np.array(REAL_ARGS))
    for points in ((0.4,), (1.3, 0.4), (0.0, 0.0)):
        dd = law.divided_difference(*points)
        yield f"dd {points}", [_outcome(dd, x) for x in REAL_ARGS]
        yield f"dd array {points}", _outcome(dd, np.array(REAL_ARGS))
        yield f"dd complex {points}", _outcome(dd, nodes)
        yield f"dd bound {points}", [_outcome(dd.bound, t) for t in REAL_ARGS]
        yield f"dd bound array {points}", _outcome(dd.bound, np.array(REAL_ARGS))
    yield "tail", [_outcome(law.tail, u) for u in REAL_ARGS]
    yield "mean", _outcome(law.mean)
    yield "second_moment", _outcome(law.second_moment)
    ph = law.phase_type()
    yield "phase_type", (ph.delta.tobytes(), ph.S.tobytes(), ph.delta_abs)
    yield "atom", repr(law.atom)
    yield "left_singularity", repr(law.left_singularity)
    rng = np.random.Generator(np.random.Philox(key=2024))
    yield "sample", _outcome(law.sample, rng, 4099)


@pytest.mark.parametrize("mu", ONE_PHASE_MU)
def test_exponential_is_the_one_phase_erlang_law(mu):
    exp_cases = dict(_one_phase_cases(claims.Exponential(mu)))
    erlang_cases = dict(_one_phase_cases(claims.Erlang(1, mu)))
    assert exp_cases.keys() == erlang_cases.keys()
    for name in exp_cases:
        assert exp_cases[name] == erlang_cases[name], name


@pytest.mark.parametrize("mu", ONE_PHASE_MU)
def test_one_phase_erlang_keeps_the_closed_forms(mu):
    # the one-phase forms mu / (mu + a), a / (mu + a), e^{-mu u}, 1 / mu and
    # 2 / mu^2, bit for bit
    law = claims.Exponential(mu)
    nodes = mu * CIRCLE_NODES
    for a in REAL_ARGS:
        assert repr(law.lst(a)) == repr(mu / (mu + a))
        assert repr(law.modulus_bound(a)) == repr(mu / (mu + a))
        assert repr(law.lst_complement(a)) == repr(a / (mu + a))
        assert repr(law.tail(a)) == repr(math.exp(-mu * a))
        for order in (0, 1, 2):
            base = mu + a
            try:
                want = [mu * (-1.0) ** i / base ** (i + 1) for i in range(order + 1)]
            except (OverflowError, ZeroDivisionError):
                continue  # the log form, the same on both sides above
            assert repr(law.lst_series(a, order).c) == repr(tuple(want))
    assert law.lst_complex(nodes).tobytes() == (mu / (mu + nodes)).tobytes()
    assert law.lst_complement_complex(nodes).tobytes() == (nodes / (mu + nodes)).tobytes()
    assert _outcome(law.mean) == _outcome(lambda: 1.0 / mu)
    assert _outcome(law.second_moment) == _outcome(lambda: 2.0 / mu**2)
    if mu == 1e-200:  # mu (mu + 0)^-(i + 1) leaves the float range: the log form
        c = law.lst_series(0.0, 2).c
        assert c[0] == 1.0 and math.isclose(c[1], -1e200) and c[2] == math.inf


def test_exponential_keeps_its_identity():
    law = claims.Exponential(0.7)
    assert repr(law) == "Exponential(mu=0.7)"
    assert law.kind == "exp" and law.k == 1
    assert isinstance(law, claims.Erlang)
    assert law == claims.Exponential(0.7) and hash(law) == hash(claims.Exponential(0.7))
    assert law != claims.Exponential(0.8)
    # a different spelling of the same law is a different object
    assert law != claims.Erlang(1, 0.7)
    assert len({law, claims.Exponential(0.7), claims.Erlang(1, 0.7)}) == 2
    with pytest.raises(TypeError):
        claims.Exponential(0.7, 1)
    with pytest.raises(ValueError, match="Exponential: mu must be finite"):
        claims.Exponential(math.nan)
    with pytest.raises(ValueError, match="Erlang: mu must be finite"):
        claims.Erlang(1, math.nan)
    with pytest.raises(ValueError, match="mu must be positive"):
        claims.Exponential(0.0)


def test_erlang_complex_transform_is_its_transform():
    # one formula for both spellings; the real transform is that formula
    # behind its argument check, to the same bits
    assert claims.Exponential.lst_complex is claims.Erlang.lst_complex
    for law in (claims.Exponential(0.7), claims.Erlang(3, 1.9)):
        for x in (0.0, 1e-9, 0.3, 2.5, 1e6):
            assert repr(law.lst(x)) == repr(law.lst_complex(x))
    # Exponential's own body: only k and kind
    own = {n for n in vars(claims.Exponential) if not n.startswith("__")}
    assert own == {"k", "kind"}


CHECKED_LAWS = {
    "exp": claims.Exponential(1.0),
    "erlang": claims.Erlang(3, 1.0),
    "point": claims.PointMass(2.0),
    "lomax": claims.Lomax(1.0, 1.5),
}
CHECKED_METHODS = {
    "lst": ("alpha", lambda law, x: law.lst(x)),
    "lst_series": ("alpha", lambda law, x: law.lst_series(x, 2)),
    "lst_complement": ("alpha", lambda law, x: law.lst_complement(x)),
    "tail": ("u", lambda law, x: law.tail(x)),
}


@pytest.mark.parametrize("x", [-0.5, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("method", CHECKED_METHODS)
@pytest.mark.parametrize("name", CHECKED_LAWS)
def test_a_claim_law_refuses_an_argument_outside_its_domain(name, method, x):
    # below zero the transforms grow past one and the tails past certainty
    arg, call = CHECKED_METHODS[method]
    want = re.escape(f"{arg} must be nonnegative and finite, got {x!r}")
    with pytest.raises(ValueError, match=want):
        call(CHECKED_LAWS[name], x)


def test_the_lomax_fraction_that_does_not_converge_is_refused():
    # on the branch cut the continued fraction never settles
    with pytest.raises(NoConvergence, match="continued fraction did not converge"):
        claims.Lomax(1.0, 1.5).lst_complex(np.array([-2.0 + 0.0j]))


def test_the_lomax_series_that_does_not_converge_is_refused(monkeypatch):
    # below |cz| = 1 the series converges within 2000 terms at every
    # node, so only a smaller budget reaches the refusal
    law = claims.Lomax(1.0, 1.5)
    z = np.array([0.9 + 0.0j])
    want = law.lst_complex(z)
    monkeypatch.setattr(claims, "_LOMAX_TERMS", 5)
    with pytest.raises(NoConvergence, match="series did not converge"):
        law.lst_complex(z)
    monkeypatch.undo()
    assert law.lst_complex(z).tolist() == want.tolist()
