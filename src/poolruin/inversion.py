"""Numerical Laplace inversion (Gaver-Stehfest) of the package transforms.

The Stehfest rule of 14 terms approximates f(t) by (ln 2 / t) * sum_k V_k F(k ln 2 / t)
with rational weights that alternate and grow combinatorially; they are
computed once in exact rational arithmetic and rounded, since assembling
them in floating point cancels catastrophically.  The rule samples the
transform on the positive real axis only, which suits the smooth monotone
targets here (ruin probabilities in the reserve, moments in time).
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import PoolRuinError
from .ladder import checked_transform, engine, pi_jet, ruin_transform
from .model import ModelSpec, require_killing

_LN2 = math.log(2.0)
# Least normal float: a Stehfest term below it has lost its digits.
_TINY = sys.float_info.min

# The rule's order: reference-pair accuracy peaks around order 14-16 in
# double precision; lower orders are coarse, higher ones lose digits to the
# alternating-weight cancellation.
_N_TERMS = 14


def _exact_weights(n: int) -> list:
    half = n // 2
    out = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j**half) * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num / den
        sign = -1 if (k + half) % 2 else 1
        out.append(sign * acc)
    return out


_weights = None


def default_plan() -> tuple:
    """The rule's weights V_1..V_14, built once and self-tested.

    Construction aborts unless the alternating-weight identity holds and
    the rule reproduces the reference transform pairs at their stated
    accuracies.
    """
    global _weights
    if _weights is None:
        exact = _exact_weights(_N_TERMS)
        if sum(exact) != 0:
            raise ArithmeticError("Stehfest weights lost the alternating identity")
        _weights = tuple(float(w) for w in exact)
        checks = [
            (lambda s: 1.0 / s, 1.0, 1.0, 1e-8),
            (lambda s: 1.0 / s, 7.0, 1.0, 1e-8),
            (lambda s: 1.0 / (s + 1.0), 1.0, math.exp(-1.0), 1e-6),
            (lambda s: 1.0 / (s * s), 3.0, 3.0, 1e-6),
        ]
        for F, t, target, tol in checks:
            got = invert(F, t)
            if abs(got - target) > tol * max(1.0, abs(target)):
                _weights = None
                raise ArithmeticError(
                    f"Stehfest self-test failed at t={t}: {got} vs {target}"
                )
    return _weights


def invert(F: Callable[[float], float], t: float) -> float:
    """Approximate the original function at ``t`` from its transform ``F``.
    A transform that overflows or divides by zero at a node, or a weighted
    sum that leaves the float range, raises :class:`PoolRuinError` naming t
    and the node."""
    if t <= 0:
        raise ValueError("t must be positive")
    weights = default_plan()
    scale, points = _abscissae(t)
    terms = []
    for w, s in zip(weights, points):
        try:
            terms.append(w * F(s))
        except (OverflowError, ZeroDivisionError) as exc:
            raise PoolRuinError(f"transform at t = {t!r}, node {s!r} {_failed(exc)}") from exc
    try:
        # exact summation: the alternating weights cancel many digits
        return scale * math.fsum(terms)
    except (OverflowError, ValueError) as exc:  # inf - inf, or a sum past the range
        bad = [(x, s) for x, s in zip(terms, points) if not math.isfinite(x)]
        x, s = bad[0] if bad else max(zip(terms, points), key=lambda p: abs(p[0]))
        raise PoolRuinError(
            f"Stehfest sum at t = {t!r} leaves the float range: weighted "
            f"transform {x!r} at node {s!r}"
        ) from exc


def _failed(exc: ArithmeticError) -> str:
    return "overflows" if isinstance(exc, OverflowError) else "divides by zero"


def _variance_tolerance() -> float:
    """How far below zero, relative to the second moment, the rule's own
    error can put an inverted variance.

    The moment curves grow like t and t**2, and the rule's relative error
    on those, delta, is the same at every t (1/s**2 and 2/s**3 are scale
    free).  The second moment then carries up to delta of itself and the
    squared mean up to 2 delta + delta**2 of itself, at most 4 delta of the
    second moment together.  A deterministic maximum M_t = t reads a
    variance of -2.6e-6 of its second moment at order 14, within this
    bound of 1.3e-5.
    """
    delta = max(
        abs(invert(lambda s: 1.0 / (s * s), 1.0) - 1.0),
        abs(invert(lambda s: 2.0 / (s * s * s), 1.0) - 1.0),
    )
    return 4.0 * delta


def _abscissae(t: float) -> tuple:
    """The scale ln 2 / t and the points k ln 2 / t at which the rule
    samples the transform."""
    scale = _LN2 / t
    return scale, [k * scale for k in range(1, _N_TERMS + 1)]


def ruin_curve(
    model: ModelSpec,
    beta: float,
    u_grid: Sequence[float],
) -> np.ndarray:
    """Ruin probabilities p(u, beta) by inverting the ruin transform in the
    reserve level; values are clamped to [0, 1] and a warning is emitted if
    the raw inversion overshoots beyond numerical tolerance.  At u = 0 the
    probability is 1 - P(M = 0), from the engine's atom, with no
    inversion."""
    require_killing(model, beta, "ruin_curve")
    eng = engine(model, beta, model.m)
    out = np.empty(len(u_grid))
    for i, u in enumerate(u_grid):
        if not u >= 0:
            raise ValueError("reserve levels must be nonnegative")
        if u == 0:
            raw = 1.0 - checked_transform(eng.atom(), math.inf)
        else:
            # the contour means among this reserve's points in one sweep
            eng._prefetch(_abscissae(u)[1])
            raw = invert(lambda a: ruin_transform(eng, a), u)
        if raw < -1e-6 or raw > 1.0 + 1e-6:
            warnings.warn(
                f"inverted ruin probability {raw} at u={u} clamped to [0, 1]",
                stacklevel=2,
            )
        out[i] = min(max(raw, 0.0), 1.0)
    return out


def moment_curves(
    model: ModelSpec,
    t_grid: Sequence[float],
) -> tuple:
    """Mean and variance of the running maximum as functions of time.

    Both raw moments are single Laplace transforms in the killing rate
    (after dividing the jet components by it), so each is inverted on its
    own and the variance is assembled after inversion; the variance itself
    is not the transform of anything.  The jets come from
    :func:`poolruin.ladder.pi_jet`, which the thread keeps for the model
    object, so a node shared by several times is computed once.  A jet
    that is not finite or overflows at a node, a nonzero jet component
    whose Stehfest term (``-d1/s`` or ``d2/s``) falls below the least
    normal float, and a variance that is negative beyond the inversion's
    own error, raise :class:`PoolRuinError`.
    """
    means = np.empty(len(t_grid))
    seconds = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        if t <= 0:
            raise ValueError("times must be positive")
        jets = {}  # by node: each inversion samples the same nodes
        for s in _abscissae(t)[1]:
            try:
                jet = jets[s] = pi_jet(model, s, model.m)
            except (OverflowError, ZeroDivisionError) as exc:
                raise PoolRuinError(
                    f"moment jet at t = {t!r}, node beta = {s!r} {_failed(exc)}"
                ) from exc
            if not all(map(math.isfinite, (jet.v, jet.d1, jet.d2))):
                raise PoolRuinError(
                    f"moment jet {jet!r} at t = {t!r}, node beta = {s!r} "
                    "is not finite"
                )
            # a moment that underflows in its Stehfest term would read as 0
            if (jet.d1 and abs(jet.d1 / s) < _TINY) or (jet.d2 and abs(jet.d2 / s) < _TINY):
                raise PoolRuinError(
                    f"moment jet {jet!r} at t = {t!r}, node beta = {s!r} "
                    "underflows in its Stehfest term"
                )
        means[i] = invert(lambda s: -jets[s].d1 / s, t)
        seconds[i] = invert(lambda s: jets[s].d2 / s, t)
    variances = seconds - means**2
    for t, mean, second, var in zip(t_grid, means, seconds, variances):
        if var < 0 and var < -_variance_tolerance() * second:
            raise PoolRuinError(
                f"negative variance {float(var)!r} at t = {t!r}: inverted second "
                f"moment {float(second)!r} below the squared mean {float(mean * mean)!r}"
            )
    return means, variances
