import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolruin.claims import ClaimDistribution
from poolruin.ladder import _Recursion
from poolruin.overshoot import _OvershootBase, _Slope
from poolruin.seriesops import Taylor


class ExpLaw(ClaimDistribution):
    # exp in place of a claim transform: entire, so every contour mean is
    # limited by rounding alone
    left_singularity = math.inf

    def lst(self, alpha):
        return math.exp(alpha)

    def lst_complex(self, z):
        return np.exp(z)


def first_dd(c, x):
    # exp[x, c] on the contour evaluator of the overshoot route
    return _Recursion(_Slope(ExpLaw(), c), ()).value(x)


def second_dd_engine(c1, c2):
    # x exp[x, c1, c2] as the overshoot base with unit scale
    base = _OvershootBase(ExpLaw(), c1, c2, 1.0, first_dd(c2, c1))
    return _Recursion(base, ())


def second_dd(c1, c2, x):
    return second_dd_engine(c1, c2).value(x) / x


def test_mul_matches_product_of_polynomials():
    a = Taylor([1.0, 2.0, 3.0])
    b = Taylor([4.0, -1.0, 0.5])
    c = a * b
    assert c.c == (4.0, 7.0, 10.5)


def test_div_roundtrip():
    a = Taylor([0.7, -1.3, 2.1, 0.4])
    b = Taylor([2.0, 0.3, -0.8, 1.1])
    q = a / b
    back = q * b
    for x, y in zip(back.c, a.c):
        assert math.isclose(x, y, rel_tol=1e-13, abs_tol=1e-13)


def test_scalar_ops_and_jet():
    t = 2.0 * Taylor([1.0, 0.5, 0.25]) + 1.0
    assert t.c == (3.0, 1.0, 0.5)
    jet = t.jet()
    assert jet.v == 3.0 and jet.d1 == 1.0 and jet.d2 == 1.0


def test_shift_recenters_exactly():
    # polynomial p(x) = 1 + 2(x-1) + 3(x-1)^2 re-centered to x0 = 1.5
    p = Taylor([1.0, 2.0, 3.0])
    q = p.shift(0.5)
    for h in (-0.3, 0.0, 0.2):
        assert math.isclose(p.eval(0.5 + h), q.eval(h), rel_tol=1e-14)


def loop_shift(c, h):
    # the shift as a double loop over math.comb: the reference for every
    # series whose binomials and powers stay in the float range
    out = [0.0] * len(c)
    for i, ci in enumerate(c):
        if ci == 0.0:
            continue
        for j in range(i + 1):
            out[j] += ci * math.comb(i, j) * h ** (i - j)
    return tuple(out)


@pytest.mark.parametrize("h", [0.37, -0.5, 1.0, -1.75])
@pytest.mark.parametrize("n", [1, 2, 12, 48, 300, 1000])
def test_shift_repeats_the_binomial_loop(n, h):
    # sparse past 50 coefficients, so that the reference loop stays quick;
    # the last coefficient carries the longest binomial row
    rng = random.Random(n)
    c = [
        rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 3) if rng.random() < 50 / n else 0.0
        for _ in range(n)
    ]
    c[-1] = -1.5
    assert repr(Taylor(c).shift(h).c) == repr(loop_shift(c, h))


@pytest.mark.parametrize("h", [0.5, -0.5])
def test_shift_past_the_float_range_of_binomials(h):
    # C(1099, 549) is about 1e329 and C(1040, 520) about 1e311, yet the
    # terms and coefficients are finite
    n = 1100
    c = {0: 1.0, 7: -2.5, 600: 0.75, 1040: 1.0, 1099: -1.25}
    got = Taylor([c.get(i, 0.0) for i in range(n)]).shift(h).c
    assert all(math.isfinite(x) for x in got)
    hq = Fraction(h)
    for j in (0, 1, 300, 549, 800, 1040, n - 1):
        terms = [Fraction(ci) * math.comb(i, j) * hq ** (i - j) for i, ci in c.items() if i >= j]
        exact = sum(terms)
        scale = sum(abs(t) for t in terms)  # cancellation bound for h < 0
        assert abs(Fraction(got[j]) - exact) <= Fraction(1, 10**12) * scale


def loop_product(a, b):
    # the scalar product loop: the reference the array kernel must repeat
    n = min(len(a), len(b))
    out = [0.0] * n
    for i in range(n):
        if a[i] == 0.0:
            continue
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def loop_quotient(a, b):
    n = min(len(a), len(b))
    out = [0.0] * n
    for k in range(n):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc / b[0]
    return tuple(out)


def kernel_operands(n, kind, seed):
    # coefficients over twelve decades; b decays, so the quotient stays finite
    rng = random.Random(seed)
    a = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 6) for _ in range(n)]
    b = [1.0 + rng.random()] + [
        rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 0) * 0.9**j
        for j in range(1, n + 3)
    ]
    if kind == "zeros":
        for i in range(0, n, 3):
            a[i] = 0.0
        for i in range(1, n + 3, 4):
            b[i] = -0.0
        b[0] = -b[0]  # 0 * b[0] is -0.0, which the loop never adds
    elif kind == "non-finite":
        # a zero a[0] meets the NaN, an infinite a[n // 2] the zeros left of
        # its row: neither may leak into the coefficients before them
        a[0] = 0.0
        a[n // 2] = math.inf
        b[n // 3] = math.nan
        b[n - 1] = -math.inf
    elif kind == "overflow":  # products and sums past the float range
        a = [x * 1e300 for x in a]
        b = b[:1] + [x * 1e10 for x in b[1:]]
    return a, b


KERNEL_LENGTHS = (1, 47, 48, 49, 192)


@pytest.mark.parametrize("kind", ["plain", "zeros", "non-finite", "overflow"])
@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_product_and_quotient_repeat_the_scalar_loops(n, kind):
    a, b = kernel_operands(n, kind, seed=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf and NaN propagate silently
        prod = Taylor(a) * Taylor(b)
        quot = Taylor(a) / Taylor(b)
    assert repr(prod.c) == repr(loop_product(a, b))
    assert repr(quot.c) == repr(loop_quotient(a, b))
    for out in (prod, quot):
        assert type(out.c) is tuple and all(type(x) is float for x in out.c)


def test_public_constructor_converts_to_python_floats():
    t = Taylor(np.array([1.0, 2.5]))
    assert type(t.c) is tuple and all(type(x) is float for x in t.c)
    assert all(type(x) is float for x in (t * np.float64(2.0)).c)


def test_division_by_vanishing_constant_raises():
    with pytest.raises(ZeroDivisionError):
        Taylor([1.0, 1.0]) / Taylor([0.0, 1.0])


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_dd1_matches_highprec_divided_difference(c, g0):
    # nodes live on the scale of the transform arguments they model
    val = first_dd(c, g0)
    with mp.workdps(50):
        if abs(g0 - c) < 1e-12:
            want = float(mp.exp(c))
        else:
            want = float((mp.exp(g0) - mp.exp(c)) / (mp.mpf(g0) - c))
    assert math.isclose(val, want, rel_tol=1e-10, abs_tol=1e-12)


def test_dd1_exact_coincidence():
    assert math.isclose(first_dd(0.7, 0.7), math.exp(0.7), rel_tol=1e-13)


@pytest.mark.parametrize("c1,c2,g0", [
    (0.5, 1.5, 0.9),          # all separated
    (1.0, 1.0, 0.3),          # coincident nodes
    (1.0, 1.0 + 1e-9, 0.3),   # nearly coincident nodes
    (1.0, 1.5, 1.0 + 1e-9),   # evaluation point at a node
    (1.0, 1.0, 1.0),          # triple confluence
    (1.0, 1.0 + 1e-8, 1.0 - 1e-8),
])
def test_dd2_confluent_cases(c1, c2, g0):
    val = second_dd(c1, c2, g0)
    with mp.workdps(60):
        # Hermite-stable integral representation of the second divided
        # difference: int_0^1 int_0^s f''(c1 + s(c2-c1) + t(g0-c2)) dt ds
        f = mp.exp
        want = float(
            mp.quad(
                lambda s: mp.quad(
                    lambda t: f(c1 + s * (mp.mpf(c2) - c1) + t * (mp.mpf(g0) - c2)),
                    [0, s],
                ),
                [0, 1],
            )
        )
    assert math.isclose(val, want, rel_tol=1e-9, abs_tol=1e-12)


def test_dd2_series_derivative_consistency():
    # the derivative from the contour jet matches a fine finite difference;
    # the jet is that of x exp[x, 0.7, 1.3], whose derivative at x = 1 is
    # the value plus the wanted derivative
    jet = second_dd_engine(0.7, 1.3).jet(1.0)
    h = 1e-6
    up = second_dd(0.7, 1.3, 1.0 + h)
    dn = second_dd(0.7, 1.3, 1.0 - h)
    assert math.isclose(jet.d1 - jet.v, (up - dn) / (2 * h), rel_tol=1e-8)

