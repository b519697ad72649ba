"""Numerical Laplace inversion (Gaver-Stehfest) of the package transforms.

The Stehfest rule approximates f(t) by (ln 2 / t) * sum_k V_k F(k ln 2 / t)
with rational weights that alternate and grow combinatorially; they are
computed once in exact rational arithmetic and rounded, since assembling
them in floating point cancels catastrophically.  The rule samples the
transform on the positive real axis only, which suits the smooth monotone
targets here (ruin probabilities in the reserve, moments in time).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import PoolRuinError
from .ladder import checked_transform, engine, pi_jet, ruin_transform
from .model import ModelSpec, require_killing

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class StehfestPlan:
    """Inversion rule of even order ``n_terms`` with frozen weights."""

    n_terms: int
    weights: tuple


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


def stehfest_plan(n_terms: int = 14) -> StehfestPlan:
    """Build and self-test an inversion plan.

    Construction aborts unless the alternating-weight identity holds and
    the rule reproduces the three reference transform pairs at their
    stated accuracies.
    """
    if n_terms < 2 or n_terms % 2:
        raise ValueError("n_terms must be a positive even number")
    exact = _exact_weights(n_terms)
    plan = StehfestPlan(n_terms=n_terms, weights=tuple(float(w) for w in exact))
    if sum(exact) != 0:
        raise ArithmeticError("Stehfest weights lost the alternating identity")
    # reference-pair accuracy peaks around order 14-16 in double precision:
    # lower orders are legitimately coarse, higher orders lose digits to the
    # alternating-weight cancellation
    if n_terms == 14:
        pair_tol, const_tol = 1e-6, 1e-8
    elif n_terms < 14:
        pair_tol, const_tol = 1e-3, 1e-8
    else:
        # the term-rounding floor eps * sum|V_k|/k exceeds 1e-8 from order 16
        # on and grows combinatorially; orders beyond ~22 abort here
        pair_tol, const_tol = 1e-3, 1e-4
    checks = [
        (lambda s: 1.0 / s, 1.0, 1.0, const_tol),
        (lambda s: 1.0 / s, 7.0, 1.0, const_tol),
        (lambda s: 1.0 / (s + 1.0), 1.0, math.exp(-1.0), pair_tol),
        (lambda s: 1.0 / (s * s), 3.0, 3.0, pair_tol),
    ]
    for F, t, target, tol in checks:
        got = invert(F, t, plan)
        if abs(got - target) > tol * max(1.0, abs(target)):
            raise ArithmeticError(
                f"Stehfest self-test failed at t={t}: {got} vs {target}"
            )
    return plan


_default_plan = None


def default_plan() -> StehfestPlan:
    global _default_plan
    if _default_plan is None:
        _default_plan = stehfest_plan()
    return _default_plan


def invert(F: Callable[[float], float], t: float, plan: StehfestPlan = None) -> float:
    """Approximate the original function at ``t`` from its transform ``F``."""
    if t <= 0:
        raise ValueError("t must be positive")
    if plan is None:
        plan = default_plan()
    scale, points = _abscissae(t, plan)
    # exact summation: the alternating weights cancel many digits
    return scale * math.fsum(w * F(s) for w, s in zip(plan.weights, points))


def _abscissae(t: float, plan: StehfestPlan) -> tuple:
    """The scale ln 2 / t and the points k ln 2 / t at which the rule
    samples the transform."""
    scale = _LN2 / t
    return scale, [k * scale for k in range(1, plan.n_terms + 1)]


def ruin_curve(
    model: ModelSpec,
    beta: float,
    u_grid: Sequence[float],
    plan: StehfestPlan = None,
) -> np.ndarray:
    """Ruin probabilities p(u, beta) by inverting the ruin transform in the
    reserve level; values are clamped to [0, 1] and a warning is emitted if
    the raw inversion overshoots beyond numerical tolerance.  At u = 0 the
    probability is 1 - P(M = 0), from the engine's atom, with no
    inversion."""
    require_killing(model, beta, "ruin_curve")
    if plan is None:
        plan = default_plan()
    eng = engine(model, beta, model.m)
    out = np.empty(len(u_grid))
    for i, u in enumerate(u_grid):
        if not u >= 0:
            raise ValueError("reserve levels must be nonnegative")
        if u == 0:
            raw = 1.0 - checked_transform(eng.atom(), math.inf)
        else:
            # the contour means among this reserve's points in one sweep
            eng._prefetch(_abscissae(u, plan)[1])
            raw = invert(lambda a: ruin_transform(eng, a), u, plan)
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
    plan: StehfestPlan = None,
) -> tuple:
    """Mean and variance of the running maximum as functions of time.

    Both raw moments are single Laplace transforms in the killing rate
    (after dividing the jet components by it), so each is inverted on its
    own and the variance is assembled after inversion; the variance itself
    is not the transform of anything.  The jets come from
    :func:`poolruin.ladder.pi_jet`, which the thread keeps for the model
    object, so a node shared by several times is computed once.  A jet
    that is not finite at a node raises :class:`PoolRuinError`.
    """
    if plan is None:
        plan = default_plan()
    means = np.empty(len(t_grid))
    seconds = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        if t <= 0:
            raise ValueError("times must be positive")
        jets = {}  # by node: each inversion samples the same nodes
        for s in _abscissae(t, plan)[1]:
            jet = jets[s] = pi_jet(model, s, model.m)
            if not all(map(math.isfinite, (jet.v, jet.d1, jet.d2))):
                raise PoolRuinError(
                    f"moment jet {jet!r} at t = {t!r}, node beta = {s!r} "
                    "is not finite"
                )
        means[i] = invert(lambda s: -jets[s].d1 / s, t, plan)
        seconds[i] = invert(lambda s: jets[s].d2 / s, t, plan)
    return means, seconds - means**2
