import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolruin import claims, ladder, seriesops
from poolruin.claims import ClaimDistribution
from poolruin.config import load_model
from poolruin.ladder import _Recursion
from poolruin.overshoot import _OvershootBase, _Slope
from poolruin.seriesops import Taylor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def second_dd(c1, c2, x):
    # x exp[x, c1, c2] as the overshoot base with unit scale
    base = _OvershootBase(ExpLaw(), c1, c2, 1.0, first_dd(c2, c1))
    return _Recursion(base, ()).value(x) / x


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
        # exp[c1, c2, g0] in closed form: the sum of e^x / prod (x - y) over
        # distinct nodes, which 60 digits carry through the cancellation of
        # nearly coincident ones, and its limits where nodes coincide exactly
        nodes = [mp.mpf(c1), mp.mpf(c2), mp.mpf(g0)]
        distinct = set(nodes)
        if len(distinct) == 3:
            want = sum(
                mp.exp(x) / mp.fprod(x - y for y in nodes if y != x) for x in nodes
            )
        elif len(distinct) == 2:
            p = max(distinct, key=nodes.count)  # the double node
            q = min(distinct, key=nodes.count)
            want = (mp.exp(q) - mp.exp(p) - (q - p) * mp.exp(p)) / (q - p) ** 2
        else:
            want = mp.exp(nodes[0]) / 2
        want = float(want)
    assert math.isclose(val, want, rel_tol=1e-9, abs_tol=1e-12)


def test_dd2_series_derivative_consistency():
    # outside every window the values are smooth to a fine finite
    # difference: it matches d/dx exp[x, 0.7, 1.3] in closed form (the base
    # has no series, and contour means give values only)
    x, h = 2.5, 1e-6
    up = second_dd(0.7, 1.3, x + h)
    dn = second_dd(0.7, 1.3, x - h)
    with mp.workdps(50):
        c1, c2 = mp.mpf(0.7), mp.mpf(1.3)

        def dd(g):
            return (
                mp.exp(g) / ((g - c1) * (g - c2))
                + mp.exp(c1) / ((c1 - g) * (c1 - c2))
                + mp.exp(c2) / ((c2 - g) * (c2 - c1))
            )

        want = float(mp.diff(dd, x))
    assert math.isclose((up - dn) / (2 * h), want, rel_tol=1e-8)


# The three-coefficient branches of the operators against the general loops
# (and, for the elementwise operators, the general expressions), compared by
# ``repr``: every bit, the sign of a zero and NaN included.
VANISHING = "series division by a series with vanishing constant term"
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308)


def triples(seed, count):
    rng = random.Random(seed)

    def coefficient():
        # comparable magnitudes, where the order of the operations shows in
        # the last bit, then the float range's ends and the special values
        draw = rng.random()
        if draw < 0.25:
            return rng.choice(SPECIAL)
        decades = 300 if draw < 0.4 else 2
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-decades, decades)

    return [tuple(coefficient() for _ in range(3)) for _ in range(count)]


def outcome(fn):
    """The ``repr`` of a result's coefficients, or the error it raised."""
    try:
        out = fn()
    except ZeroDivisionError as exc:
        return f"ZeroDivisionError({exc})"
    return repr(out.c if isinstance(out, Taylor) else tuple(out))


def reference_rsub(a, s):
    # s - t as the general code computes it: (-t) + s
    neg = [-x for x in a]
    return [neg[0] + float(s)] + neg[1:]


@pytest.mark.parametrize("seed", range(4))
def test_three_coefficient_series_ops_repeat_the_loops(seed):
    ops = triples(seed, 200)
    for a, b in zip(ops, ops[1:] + ops[:1]):
        ta, tb = Taylor(a), Taylor(b)
        assert outcome(lambda: ta * tb) == outcome(lambda: seriesops._mul_loop(a, b))
        if b[0] == 0.0:
            assert outcome(lambda: ta / tb) == f"ZeroDivisionError({VANISHING})"
        else:
            assert outcome(lambda: ta / tb) == outcome(lambda: seriesops._div_loop(a, b))
        assert outcome(lambda: ta + tb) == outcome(lambda: [x + y for x, y in zip(a, b)])
        assert outcome(lambda: ta - tb) == outcome(lambda: [x - y for x, y in zip(a, b)])


SCALARS = (2.5, -0.0, 0.0, 3, -7, 0, np.float64(1.5e-300), np.float64(-2.0), math.inf, math.nan)


@pytest.mark.parametrize("seed", range(2))
def test_three_coefficient_scalar_ops_repeat_the_loops(seed):
    for a in triples(200 + seed, 60):
        t = Taylor(a)
        for s in SCALARS:
            f = float(s)
            scaled = outcome(lambda: [x * f for x in a])
            assert outcome(lambda: t * s) == scaled
            assert outcome(lambda: s * t) == scaled
            assert outcome(lambda: t / s) == outcome(lambda: [x / f for x in a])
            assert outcome(lambda: t + s) == outcome(lambda: [a[0] + f, a[1], a[2]])
            assert outcome(lambda: s + t) == outcome(lambda: [a[0] + f, a[1], a[2]])
            assert outcome(lambda: t - s) == outcome(lambda: [a[0] - f, a[1], a[2]])
            assert outcome(lambda: s - t) == outcome(lambda: reference_rsub(a, s))
            for out in (t * s, s * t, s - t, t + s):
                assert type(out) is Taylor and all(type(x) is float for x in out.c)


def test_a_zero_row_forms_no_zero_times_inf():
    out = Taylor((0.0, 1.0, 0.0)) * Taylor((math.inf, 1.0, 1.0))
    assert out.c[0] == 0.0 and math.copysign(1.0, out.c[0]) == 1.0
    assert repr(out.c) == repr(tuple(seriesops._mul_loop((0.0, 1.0, 0.0), (math.inf, 1.0, 1.0))))
    # the product of the nonzero row with the zero coefficient starts from 0.0
    assert repr((Taylor((-1.0, 0.0, 0.0)) * Taylor((0.0, 0.0, 0.0))).c) == "(0.0, 0.0, 0.0)"


@pytest.mark.parametrize("b0", [0.0, -0.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_vanishing_constant_term_keeps_its_message(n, b0):
    with pytest.raises(ZeroDivisionError) as exc:
        Taylor([1.0] * n) / Taylor([b0] + [1.0] * (n - 1))
    assert str(exc.value) == VANISHING


@pytest.mark.parametrize("na, nb", [(3, 2), (2, 3), (3, 4), (4, 3), (4, 4), (2, 2)])
def test_other_lengths_take_the_general_loops(monkeypatch, na, nb):
    rng = random.Random(na * 10 + nb)
    a = [rng.uniform(-2.0, 2.0) for _ in range(na)]
    b = [1.0 + rng.random()] + [rng.uniform(-2.0, 2.0) for _ in range(nb - 1)]
    calls = []
    for name in ("_mul_loop", "_div_loop"):
        loop = getattr(seriesops, name)
        monkeypatch.setattr(
            seriesops, name, lambda x, y, loop=loop, name=name: calls.append(name) or loop(x, y)
        )
    prod, quot = Taylor(a) * Taylor(b), Taylor(a) / Taylor(b)
    assert calls == ["_mul_loop", "_div_loop"]
    assert repr(prod.c) == repr(loop_product(a, b))
    assert repr(quot.c) == repr(loop_quotient(a, b))
    assert len(prod.c) == len(quot.c) == min(na, nb)


def test_fig3_jet_makes_the_same_series_calls(monkeypatch):
    # the call counts of the benchmark tracer's seriesops and lst_series
    # spans for one jet; a closed form must not merge or split calls
    counts = {}

    def counted(owner, name, key):
        fn = vars(owner)[name]

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Taylor, "__mul__", "mul")
    counted(Taylor, "__rmul__", "rmul")
    counted(Taylor, "__truediv__", "div")
    for cls in vars(claims).values():
        if isinstance(cls, type) and "lst_series" in vars(cls):
            counted(cls, "lst_series", "lst_series")
    mdl, beta = load_model(CONFIGS / "fig3.json")
    ladder.pi_jet(mdl, beta, mdl.m)
    assert counts == {"mul": 15, "rmul": 5, "div": 5, "lst_series": 5}
