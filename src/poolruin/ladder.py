"""Ladder recursions for the running-maximum transform.

The running maximum up to an exponentially killed horizon decomposes into at
most ``m`` ladder steps, each the positive part of a claim-plus-carryover
minus an independent exponential.  Its transform therefore satisfies a
two-point recursion: level ``k`` references the previous level both at the
evaluation argument and at the fixed ladder rate ``nu_k``,

    F_k(z) = [p_k + w_k nu_k/(nu_k - z)
              * (C_k(z) F_{k-1}(z) - (z/nu_k) C_k(nu_k) F_{k-1}(nu_k))] * K_k(z),

with a removable singularity at ``z = nu_k``; ``K_k`` is the killed-maximum
(Wiener-Hopf) factor of the level's regime, one for a positive pure drift.

Every level is evaluated directly by this formula, for three kinds of
argument: Python floats at real points, numpy arrays of complex nodes, and
order-2 Taylor jets (moments, at points away from every removable point).
A real point within ``WINDOW`` (relative, from :mod:`poolruin.seriesops`)
of a removable point of its level
or of any level below it (the ladder rates, and the removable points of the
base) is instead the mean of ``F_k`` over ``NODES`` points on a circle
around it.  The mean of an analytic function over a circle is its value at
the centre, and the trapezoid rule on the circle converges geometrically
(Trefethen & Weideman 2014), so nothing near the removable points is ever
divided out: the nodes keep their distance.  The radius is chosen per
point from a few candidates, evaluated in one stacked pass, by the bound

    eps * max_nodes A + (r / (x + d))^NODES,

where ``A`` accumulates the rounding amplification along the levels
(``A <- A |g_j| |C_j(z)| + |g_j|`` with ``g_j = w_j nu_j/(nu_j - z)``) and
``-d`` is the nearest singularity on the left (claim and jump-law poles,
the negative root of ``phi = lam``, the branch point at zero of a Lomax
law).  The same nodes give the jet at a point inside a window through the
Cauchy derivative formula.  Values are memoized per (level, point), so a
value never depends on the order of the requests.

A recursion with no levels evaluates its base piece alone, with the same
windows and contour means: the overshoot route takes its divided
differences of claim transforms that way (:mod:`poolruin.overshoot`).

Two specializations are provided: the generic recursion over explicit
(nu, C, p0) data, and the model recursion built by :func:`engine`, which
takes each level's type from its own regime.  A positive pure drift gives a
plain ladder level with rate lambda_n / r_n; a flat or nondecreasing regime
switches to a division step without a fixed argument; any other regime
multiplies its ladder level by the killed-maximum factor of the regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .claims import ClaimDistribution
from .errors import KillingRequired, PoolRuinError, RegimeMismatch
from .model import (
    LevyRegime,
    ModelSpec,
    exponent_series,
    inverse_exponent,
    is_drift_model,
    killed_max,
    killed_max_series,
    laplace_exponent,
    left_root,
)
from .seriesops import WINDOW, Taylor, TransformJet

__all__ = [
    "GenericLadderSpec",
    "TransformJet",
    "pi_generic",
    "atom_at_zero",
    "engine",
    "pi_max",
    "ruin_transform",
    "checked_transform",
    "pi_jet",
    "generic_spec_from_drift",
]

# Trapezoid nodes on each circle; conjugate symmetry halves the evaluations.
NODES = 64
# Candidate radii, relative to the centre: small circles keep the
# trapezoid error low against a near singularity on the left, large ones
# keep the nodes away from a cluster of removable points.
RADII = np.array([0.15, 0.25, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97])
# Largest accepted error bound of a contour mean.
MAX_BOUND = 1e-12
# Rounding by which a transform value may leave [0, 1] before it is refused.
PROB_TOL = 1e-12

_ANGLES = np.pi * (2 * np.arange(NODES // 2) + 1) / NODES
_UNIT = np.exp(1j * _ANGLES)  # the nodes in the upper half plane
_EPS = np.finfo(float).eps


class _One:
    """Base F_0 = 1: no removable point, no singularity."""

    removable = ()
    left = math.inf

    def real(self, x):
        return 1.0

    def nodes(self, z):
        return np.ones_like(z), np.zeros(z.shape)

    def series(self, x, order):
        return Taylor.constant(1.0, order)


class _KilledMax:
    """Killed-maximum factor K(z) of ``regime`` at rate ``lam``, removable
    at ``psi`` (None for a subordinator, whose factor has no such point)."""

    def __init__(self, regime: LevyRegime, lam: float, psi: Optional[float]):
        self.regime = regime
        self.lam = lam
        self.psi = psi
        self.removable = () if psi is None else (psi,)

    @cached_property
    def left(self) -> float:
        return left_root(self.regime, self.lam)

    def real(self, x):
        return killed_max(self.regime, x, self.lam, self.psi)

    def nodes(self, z):
        """K at the nodes with its rounding amplification."""
        val = killed_max(self.regime, z, self.lam, self.psi)
        if self.psi is None:
            return val, np.zeros(z.shape)
        return val, np.abs(self.psi / (self.psi - z))

    def series(self, x, order):
        return killed_max_series(self.regime, x, self.lam, order, self.psi)


@dataclass(frozen=True)
class _LadderLevel:
    """Ladder step with rate ``nu``, claim ``claim``, atom ``p0``, weight
    ``w`` and killed-maximum factor ``post`` (None: K = 1)."""

    nu: float
    claim: ClaimDistribution
    p0: float
    w: float
    post: Optional[_KilledMax] = None


@dataclass(frozen=True)
class _SubLevel:
    """Division step for an a.s. nondecreasing regime:
    F_k(z) = (beta + lam_circ * C(z) F_{k-1}(z)) / (lam - phi(z))."""

    beta: float
    lam_circ: float
    lam: float
    claim: ClaimDistribution
    regime: LevyRegime


class _Recursion:
    """Memoized evaluator of the two-point recursion over levels and a base
    piece: ``real(x)`` at a float, ``nodes(z)`` (values and rounding
    amplification) at complex nodes, ``series(x, order)`` for jets,
    ``removable`` points and ``left`` singularity distance."""

    def __init__(self, base, levels: Sequence):
        self.base = base
        self.levels = list(levels)
        self._cache: dict = {}
        self._anchors: list = [None]  # C_k(nu_k) F_{k-1}(nu_k) by level
        self._windows: dict = {}
        self._lefts: list = [base.left]
        # (removable point, level that brings it in)
        self._removable = [(p, 0) for p in base.removable if p > 0]
        for k, lv in enumerate(self.levels, start=1):
            if isinstance(lv, _LadderLevel):
                self._removable.append((lv.nu, k))

    # ------------------------------------------------------------ queries

    def value(self, point: float) -> float:
        if point < 0:
            raise ValueError("alpha must be nonnegative")
        return self.level_value(len(self.levels), float(point))

    def jet(self, point: float, order: int = 2) -> TransformJet:
        """Value and derivatives at ``point``; ``order = 1`` skips the
        second derivative (NaN), for claim laws without a second moment."""
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        level = len(self.levels)
        point = float(point)
        if self._window_level(point) <= level:
            out = self._contour(level, point, derivatives=True)
        else:
            self._fill_anchors(level)
            out = self.base.series(point, order)
            for k in range(1, level + 1):
                out = self._step_series(k, point, out, order)
        jet = out.jet()
        return jet if order == 2 else TransformJet(jet.v, jet.d1, math.nan)

    def level_value(self, level: int, point: float) -> float:
        """F_level(point) at a real point, memoized per (level, point)."""
        hit = self._cache.get((level, point))
        if hit is not None:
            return hit
        if self._window_level(point) <= level:
            val = self._cache[(level, point)] = self._contour(level, point)
            return val
        self._fill_anchors(level)
        val = self._cache.get((0, point))
        if val is None:
            val = self._cache[(0, point)] = self.base.real(point)
        for k in range(1, level + 1):
            nxt = self._cache.get((k, point))
            if nxt is None:
                nxt = self._cache[(k, point)] = self._step_real(k, point, val)
            val = nxt
        return val

    # ------------------------------------------------------ level steps

    def _window_level(self, x: float) -> float:
        """Lowest level from which ``x`` lies in a window (inf: none)."""
        hit = self._windows.get(x)
        if hit is None:
            hit = min(
                (k for p, k in self._removable if abs(x - p) <= WINDOW * p),
                default=math.inf,
            )
            self._windows[x] = hit
        return hit

    def _fill_anchors(self, level: int):
        for k in range(len(self._anchors), level + 1):
            lv = self.levels[k - 1]
            anchor = None
            if isinstance(lv, _LadderLevel):
                anchor = lv.claim.lst(lv.nu) * self.level_value(k - 1, lv.nu)
            self._anchors.append(anchor)

    def _step_real(self, k: int, x: float, prev: float) -> float:
        lv = self.levels[k - 1]
        c = lv.claim.lst(x)
        if isinstance(lv, _SubLevel):
            return (lv.beta + lv.lam_circ * c * prev) / (
                lv.lam - laplace_exponent(lv.regime, x)
            )
        g = lv.w * lv.nu / (lv.nu - x)
        out = lv.p0 + g * (c * prev - (x / lv.nu) * self._anchors[k])
        if lv.post is not None:
            out *= lv.post.real(x)
        return out

    def _step_series(self, k: int, x: float, prev: Taylor, order: int) -> Taylor:
        lv = self.levels[k - 1]
        c = lv.claim.lst_series(x, order)
        if isinstance(lv, _SubLevel):
            num = lv.beta + lv.lam_circ * (c * prev)
            return num / (lv.lam - exponent_series(lv.regime, x, order))
        ident = Taylor.identity(x, order)
        g = Taylor.constant(lv.w * lv.nu, order) / (lv.nu - ident)
        out = lv.p0 + g * (c * prev - (self._anchors[k] / lv.nu) * ident)
        if lv.post is not None:
            out = out * lv.post.series(x, order)
        return out

    def _nodes(self, level: int, z: np.ndarray) -> tuple:
        """F_level at complex nodes, with the accumulated rounding
        amplification A (in units of eps)."""
        f, amp = self.base.nodes(z)
        claim_at: dict = {}
        for k in range(1, level + 1):
            lv = self.levels[k - 1]
            c = claim_at.get(lv.claim)
            if c is None:
                c = claim_at[lv.claim] = lv.claim.lst_complex(z)
            if isinstance(lv, _SubLevel):
                den = lv.lam - laplace_exponent(lv.regime, z)
                f = (lv.beta + lv.lam_circ * c * f) / den
                amp = amp * np.abs(lv.lam_circ * c / den) + np.abs(lv.lam / den)
                continue
            g = (lv.w * lv.nu) / (lv.nu - z)
            f = lv.p0 + g * (c * f - (z / lv.nu) * self._anchors[k])
            amp = np.abs(g) * (amp * np.abs(c) + 1.0)
            if lv.post is not None:
                kval, kamp = lv.post.nodes(z)
                f = f * kval
                amp = amp * np.abs(kval) + kamp
        return f, amp

    # ---------------------------------------------------- contour means

    def _left(self, level: int) -> float:
        """Distance from zero to the nearest singularity on the left of any
        piece at or below ``level``."""
        for k in range(len(self._lefts), level + 1):
            lv = self.levels[k - 1]
            d = min(self._lefts[-1], lv.claim.left_singularity)
            if isinstance(lv, _SubLevel):
                d = min(d, left_root(lv.regime, lv.lam))
            elif lv.post is not None:
                d = min(d, lv.post.left)
            self._lefts.append(d)
        return self._lefts[level]

    def _contour(self, level: int, x: float, derivatives: bool = False):
        """Mean of F_level over the best circle around ``x``; with
        ``derivatives``, the order-2 Taylor series from the same nodes."""
        self._fill_anchors(level)
        radii = RADII * x
        z = x + radii[:, None] * _UNIT
        with np.errstate(all="ignore"):
            f, amp = self._nodes(level, z)
            trunc = (radii / (x + self._left(level))) ** NODES
            bound = _EPS * amp.max(axis=1) + trunc
        bound[~(np.isfinite(f).all(axis=1) & np.isfinite(bound))] = np.inf
        best = int(np.argmin(bound))
        if not bound[best] <= MAX_BOUND:
            raise PoolRuinError(
                f"no contour resolves level {level} at {x!r}: "
                f"error bound {bound[best]:.3g} above {MAX_BOUND:g}"
            )
        # the nodes come in conjugate pairs: the mean is that of the real
        # parts over the upper half
        row = f[best]
        mean = float(np.mean(row.real))
        if not derivatives:
            return mean
        r = float(radii[best])
        d1 = float(np.mean((row * _UNIT.conj()).real)) / r
        d2 = float(np.mean((row * _UNIT.conj() ** 2).real)) / (r * r)
        return Taylor._wrap((mean, d1, d2))


@dataclass(frozen=True)
class GenericLadderSpec:
    """Data of the generic recursion: per level ``k`` (1-based) an
    exponential rate ``nu[k-1]``, a composite claim law ``c_lsts[k-1]`` (a
    :class:`ClaimDistribution`, which can be evaluated at complex nodes)
    and an atom probability ``p0[k-1]``."""

    n: int
    nu: tuple
    c_lsts: tuple
    p0: tuple

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(self.nu))
        object.__setattr__(self, "c_lsts", tuple(self.c_lsts))
        object.__setattr__(self, "p0", tuple(self.p0))
        if not (len(self.nu) == len(self.c_lsts) == len(self.p0) == self.n):
            raise ValueError("nu, c_lsts and p0 must all have length n")
        for law in self.c_lsts:
            if not isinstance(law, ClaimDistribution):
                raise TypeError(
                    f"cannot use {law!r} as a claim transform: "
                    "pass a ClaimDistribution"
                )
        if any(v <= 0 for v in self.nu):
            raise ValueError("ladder rates must be positive")
        if any(not 0.0 <= p <= 1.0 for p in self.p0):
            raise ValueError("atom probabilities must lie in [0, 1]")


def _generic_engine(spec: GenericLadderSpec) -> _Recursion:
    levels = [
        _LadderLevel(
            nu=spec.nu[k], claim=spec.c_lsts[k], p0=spec.p0[k], w=1.0 - spec.p0[k]
        )
        for k in range(spec.n)
    ]
    return _Recursion(_One(), levels)


def pi_generic(spec: GenericLadderSpec, alpha: float) -> float:
    """Transform of the generic ladder maximum at ``alpha``."""
    return _generic_engine(spec).value(alpha)


def atom_at_zero(spec: GenericLadderSpec, k: int) -> float:
    """Probability that the level-``k`` ladder maximum is exactly zero."""
    if not 0 <= k <= spec.n:
        raise ValueError("k must lie in 0..n")
    if k == 0:
        return 1.0
    nu = spec.nu[k - 1]
    cval = spec.c_lsts[k - 1].lst(nu)
    prev = _generic_engine(spec).level_value(k - 1, nu)
    return spec.p0[k - 1] + (1.0 - spec.p0[k - 1]) * cval * prev


def generic_spec_from_drift(
    model: ModelSpec, beta: float, n: int
) -> GenericLadderSpec:
    """Generic ladder data realizing the drift model: C_k is the claim
    transform of the next arrival, nu_k = lam_k / r_k, p0_k = beta / lam_k."""
    if not is_drift_model(model):
        raise RegimeMismatch("the generic realization needs the drift model")
    nu, cls_, p0 = [], [], []
    for k in range(1, n + 1):
        lam = model.rate_for_state(k) + beta
        nu.append(lam / model.regimes[k].r)
        cls_.append(model.claim_for_state(k))
        p0.append(beta / lam)
    return GenericLadderSpec(n=n, nu=tuple(nu), c_lsts=tuple(cls_), p0=tuple(p0))


def _killed_max_piece(regime: LevyRegime, lam: float):
    """The killed-maximum factor as a recursion piece (None: K = 1)."""
    if regime.kind == "drift" and regime.r >= 0:
        return None
    if regime.is_subordinator:
        return _KilledMax(regime, lam, None)
    return _KilledMax(regime, lam, inverse_exponent(regime, lam))


def engine(model: ModelSpec, beta: float, n: int) -> _Recursion:
    """Evaluator of the running-maximum transform started with ``n`` clients
    and killed at rate ``beta`` (beta = 0 gives the infinite horizon and
    needs the drift model).

    One engine serves any number of arguments: its memo is keyed on
    (level, point), so a value never depends on earlier requests.
    """
    if not 0 <= n <= model.m:
        raise ValueError("n must lie in 0..m")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0 and not is_drift_model(model):
        raise KillingRequired(
            "beta = 0 (infinite horizon) is only supported in the drift model"
        )
    levels = []
    for k in range(1, n + 1):
        reg = model.regimes[k]
        lam_circ = model.rate_for_state(k)
        lam = lam_circ + beta
        claim = model.claim_for_state(k)
        if reg.is_subordinator or (reg.kind == "drift" and reg.r == 0.0):
            # flat or nondecreasing path: the segment maximum sits at the
            # segment end, giving a plain division step
            levels.append(
                _SubLevel(beta=beta, lam_circ=lam_circ, lam=lam, claim=claim, regime=reg)
            )
            continue
        # the ladder rate is psi(lam), the root the killed-maximum factor
        # divides out: solve it once per level
        nu = inverse_exponent(reg, lam)
        # a positive pure drift has a zero killed maximum
        post = None if reg.kind == "drift" else _KilledMax(reg, lam, nu)
        levels.append(
            _LadderLevel(nu=nu, claim=claim, p0=beta / lam, w=lam_circ / lam, post=post)
        )
    base = _killed_max_piece(model.regimes[0], beta)
    return _Recursion(_One() if base is None else base, levels)


def pi_max(model: ModelSpec, beta: float, n: int, alpha: float) -> float:
    """Running-maximum transform at ``alpha`` from a fresh :func:`engine`."""
    return engine(model, beta, n).value(alpha)


def checked_transform(value: float, alpha: float) -> float:
    """``value`` when it can be a transform value of a (defective)
    probability law: finite and in [0, 1] within ``PROB_TOL``; a
    :class:`PoolRuinError` naming ``alpha`` otherwise."""
    if not (math.isfinite(value) and -PROB_TOL <= value <= 1.0 + PROB_TOL):
        raise PoolRuinError(
            f"transform value {value!r} at alpha = {alpha!r} is not in [0, 1]"
        )
    return value


def ruin_transform(engine: _Recursion, alpha: float) -> float:
    """Laplace transform in the reserve level of the ruin probability,
    (1 - pi_n(alpha, beta)) / alpha, from an engine built by :func:`engine`;
    a transform value outside [0, 1] raises (:func:`checked_transform`)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (1.0 - checked_transform(engine.value(alpha), alpha)) / alpha


def pi_jet(model: ModelSpec, beta: float, n: int) -> TransformJet:
    """Order-2 jet of the transform at alpha = 0.

    The jet is (1, -E max, E max^2).  Zero is never inside a window, so the
    recursion runs there in order-2 Taylor arithmetic, the fixed-argument
    branch contributing constants only.
    """
    return engine(model, beta, n).jet(0.0)
