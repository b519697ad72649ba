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
Where the regime's roots of lam = phi(z) on the negative axis have a closed
form (Brownian motion with drift, exponential jumps), ``K_k`` is a product
over them with no removable point of its own
(:func:`poolruin.model.product_form`); otherwise it is its defining formula,
removable at psi(lam), which a base piece adds to the removable points.

Every level is evaluated directly by this formula, for three kinds of
argument: Python floats at real points, numpy arrays of complex nodes, and
order-2 Taylor jets (moments, at points away from every removable point).
A real point within ``WINDOW`` (relative, from :mod:`poolruin.seriesops`)
of a removable point of its level
or of any level below it (the ladder rates, and the removable points of the
base) is instead the mean of ``F_k`` over ``NODES`` points on a circle
around it, unless the direct formula is certified there (below).  The mean
of an analytic function over a circle is its value at the centre, and the
trapezoid rule on the circle converges geometrically (Trefethen & Weideman
2014), so nothing near the removable points is ever divided out: the
nodes keep their distance.  The radius is chosen per
point from the candidates ``RADII`` by the bound

    eps * A + (r / (x + d))^NODES,

where ``A`` bounds the rounding amplification along the levels
(``A <- A |g_j| |C_j(z)| + |g_j|`` with ``g_j = w_j nu_j/(nu_j - z)``, or
``g_j = w_j`` on a level without a ladder rate, then
``A <- A |K_j(z)| + a_j`` with ``a_j`` the rounding of ``K_j`` itself)
and ``-d`` is the nearest
singularity on the left (claim and jump-law poles, the negative root of
``phi = lam``, exact for a product form, the branch point at zero of a
Lomax law).  ``A`` is taken a priori, before any node is evaluated: each
factor is replaced by its largest modulus on the circle |z - x| = r,
which lies in Re z >= x - r > 0, that is ``w_j nu_j / ||nu_j - x| - r|``
for ``g_j``, and ``C_j(x - r)`` and ``K_j(x - r)`` for the transforms of
nonnegative laws (1 for a claim law whose real transform is a
quadrature).  The radius with the least bound is certified when that
bound is within ``MAX_BOUND``, and only its ring of 32 nodes is
evaluated, without tracking ``A``.  A point whose best bound is larger is
evaluated on every radius with ``A`` tracked at the nodes, and the least
tracked bound wins.  The bounds of a small stack are taken in Python
floats and of a larger one in arrays, by the same operations and so to
the same bits: the choice depends on the level and the point only.  Each
level's step of ``A`` on a circle is ``A <- A a + b``, its multipliers
from the level and the circle alone.  A level shared by several
recursions (the overshoot route's, whose bases differ by alpha and k)
memoizes the multipliers of the float walk by circle and its factors at
the nodes of each certified ring (:class:`_LevelMemo`); the ladder's own
levels keep none and look nothing up.  The
bound assumes ``|F| <= 1`` out to the singularity, so the chosen circle
checks itself: its even and odd nodes are two rotated 32-node rules,
whose difference estimates their error.  A certified circle whose
estimate squared exceeds ``MAX_BOUND |mean|`` is taken again on every
radius, tracked, where such a circle gives way to the next best.
Contour means give values only: a jet is never taken inside a window.

A windowed real point keeps the direct formula where its rounding is
certified, on an engine of at most ``_FLOAT_LEVELS`` levels: the bound
``A`` above at radius zero, that is at the point itself, at its largest
over the base and every level up to the requested one (so that each value
the direct chain memoizes is certified too), must give
``eps * A <= MAX_BOUND * _DIRECT_SHARE``.  Near a removable point the
formula loses what ``A`` carries, chiefly ``w nu / |nu - x|``: a point a
few percent from its removable point passes, one on it or within 1e-8 of
it does not.  ``A`` is memoized per point and level and compared with
``MAX_BOUND`` at each use.  Larger engines keep contour means, since each
direct anchor would walk every level below it in Python floats, O(m^2)
work against the sweep's O(m) vectorised passes.  So do the overshoot
route's recursions (:mod:`poolruin.overshoot`), built without ``direct``:
the cross-check treats the windows differently from the ladder it checks.
Values are memoized per (level, point), and the route of each depends on
the level and the point only, so a value never depends on the order of
the requests.

A contour at level ``k`` needs the anchors ``C_j(nu_j) F_{j-1}(nu_j)`` of
every level up to ``k``, and on a clustered pool each of those not
certified for the direct formula is a contour mean itself.  One request
therefore takes all of its contours in one upward sweep: the circles of
the anchors not yet held, of the requested point and of any further points
asked together (the Stehfest points of one reserve level) are stacked in
one array, and the levels are walked once.  At level ``j`` the circles
that end there take their mean, which fills anchor ``j + 1``; level
``j + 1`` is then evaluated on the rows still open.  The work per level
is one vectorised pass, so a point costs O(m) passes where a contour per
anchor, each from the base, cost O(m^2).  Anchors outside every window,
and the certified ones within, stay on the real path, and so do
certified requested points: the sweep leaves them out and they are
evaluated when asked.

Every node is computed on its own: its value does not depend on the other
nodes of its array, so a value does not depend on what it was stacked with
or on how many circles one sweep holds.  Each claim law's complex
transform is elementwise (the Lomax series and continued fraction stop at
each node's own convergence), and no complex product takes a temporary as
its right operand: numpy computes an operator in place when an operand is
a temporary of 256 KiB or more (temporary elision), and for a temporary on
the right of a product it computes ``<temporary> * a``, which rounds
differently from ``a * <temporary>``.  Such an operand is bound to a name
first.

A recursion with no levels evaluates its base piece alone, with the same
windows and contour means: the overshoot route takes the divided
differences of claim laws without a form of their own that way
(:mod:`poolruin.overshoot`); exponential and Erlang laws give theirs with
no removable point, so their overshoot recursions have windows at the
level rates only.

The transform's limit at infinity, the mass of the maximum at zero, is
a finite expression of held data (:meth:`_Recursion.atom`): each level's
bracket leaves its anchor, or the claim law's atom times the level below
where there is no ladder rate, and each killed-maximum factor its own
atom.

Two specializations are provided: the generic recursion over explicit
(nu, C, p0) data, and the model recursion built by :func:`engine`, which
takes each level's shape from its own regime.  A positive pure drift gives
a plain ladder level with rate lambda_n / r_n; a nondecreasing regime, flat
included, gives a level without a ladder rate, ``(p_k + w_k C_k F_{k-1}) K_k``
with ``K_k = lam / (lam - phi)``; any other regime multiplies its ladder
level by the killed-maximum factor of the regime.

Each thread keeps the model engines of its most recent (model object,
beta), the overshoot route keeps its ladder heights there too, and the
exact phase-type law of :func:`poolruin.phase_type.running_max_ph` is kept
there by client count (:func:`_memo`), so the calls of one thread for one
model reuse every value already computed.  The moment jets of
:func:`pi_jet` are kept for every beta asked of the thread's most recent
model object: a new beta replaces the engines and the laws but not the
jets, so a Stehfest node shared by several times is computed once.  Since
a value never depends on the order of the requests, the reuse moves no
value.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .claims import ClaimDistribution
from .errors import PoolRuinError
from .model import (
    LevyRegime,
    ModelSpec,
    inverse_exponent,
    killed_max,
    killed_max_series,
    left_root,
    product_form,
    require_drift_model,
    require_killing,
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
# Elements per array of one run of levels in the a priori bound.
_CHUNK = 1 << 14
# Most levels above the base, summed over a stack's circles, for which the
# a priori bound is taken in Python floats; and most levels of an engine
# whose windowed real points may take the direct formula.
_FLOAT_LEVELS = 6
# Share of MAX_BOUND within which the direct formula's rounding bound
# certifies its value at a windowed real point.
_DIRECT_SHARE = 1e-2
# Rounding by which a transform value may leave [0, 1] before it is refused.
PROB_TOL = 1e-12

_ANGLES = np.pi * (2 * np.arange(NODES // 2) + 1) / NODES
_UNIT = np.exp(1j * _ANGLES)  # the nodes in the upper half plane
_ALTERNATE = np.resize([1.0, -1.0], NODES // 2)  # even nodes minus odd ones
_EPS = np.finfo(float).eps


def _gap(p, x, r):
    """Distance from the real point ``p`` to the circle |z - x| = r, at
    floats or arrays."""
    return abs(abs(p - x) - r)


def _quot(num, den):
    """``num / den`` for num > 0: inf where den is zero, at floats as at
    arrays (where numpy gives inf)."""
    if isinstance(den, float) and not den:
        return math.inf
    return num / den


def _roots_bound(poles, zeros, t):
    """A product form's K(t) = prod 1 / (1 + t/b) prod (1 + t/a) at t >= 0,
    the largest |K| on Re z >= t; an infinite root is a factor one, so
    arrays of roots of several levels may be padded with inf."""
    k = 1.0
    for b in poles:
        k = k / (1.0 + t / b)
    for a in zeros:
        k = k * (1.0 + t / a)
    return k


class _One:
    """Base F_0 = 1: no removable point, no singularity."""

    removable = ()
    left = math.inf
    atom = 1.0

    def real(self, x):
        return 1.0

    def nodes(self, z, track=True):
        return np.ones_like(z), (np.zeros(z.shape) if track else None)

    def amp_bound(self, x, r):
        return 0.0

    def series(self, x, order):
        return Taylor.constant(1.0, order)


class _KilledMax:
    """Killed-maximum factor K(z) of ``regime`` at rate ``lam``: its
    :func:`~poolruin.model.product_form` where it has one, with no
    removable point and its nearest pole as ``left``; otherwise the
    defining formula, removable at ``psi`` (None for a nondecreasing
    regime, whose factor has no such point)."""

    def __init__(self, regime: LevyRegime, lam: float, psi: Optional[float]):
        self.regime = regime
        self.lam = lam
        self.psi = psi
        self.form = product_form(regime, lam, psi)
        self.removable = (psi,) if self.form is None and psi is not None else ()
        if self.form is not None:
            # the exact nearest pole, as an instance attribute that
            # shadows the lazy bisection below
            self.left = self.form.left

    @cached_property
    def left(self) -> float:
        return left_root(self.regime, self.lam)

    @property
    def atom(self) -> float:
        """K at infinity, the probability that the killed maximum is zero:
        none with diffusion or an upward drift; lam / (lam + rate P(jump >
        0)) for jumps alone, which must not come before the kill; and
        otherwise lam / (r psi), the limit of (psi - z) lam / ((lam -
        phi(z)) psi) as phi(z) ~ r z."""
        reg = self.regime
        if reg.sigma2 > 0 or reg.r < 0:
            return 0.0
        if reg.r == 0:
            jumps = reg.jump_rate * (1.0 - reg.jump_law.atom) if reg.jump_rate else 0.0
            return self.lam / (self.lam + jumps)
        return self.lam / (reg.r * self.psi)

    def real(self, x):
        """K at a float, or at an array of complex nodes."""
        if self.form is not None:
            return self.form.value(x)
        return killed_max(self.regime, x, self.lam, self.psi)

    def nodes(self, z, track=True):
        """K at the nodes with its rounding amplification (None unless
        ``track``): a few eps of |K| per factor of a product form,
        |psi / (psi - z)| for the formula's cancellation near psi."""
        val = self.real(z)
        if not track:
            return val, None
        if self.form is not None:
            return val, (len(self.form.zeros) + len(self.form.poles)) * np.abs(val)
        if self.psi is None:
            return val, np.zeros(z.shape)
        return val, np.abs(self.psi / (self.psi - z))

    def bound(self, x, r):
        """Bounds of |K| and of its amplification over the circles
        |z - x| = r (floats or arrays, 0 < r < x).  K is the transform of a
        nonnegative law, so |K(z)| <= K(x - r) on the circle: exact for a
        product form; for a nondecreasing regime with the jump law's
        :meth:`~poolruin.claims.ClaimDistribution.modulus_bound` in phi,
        which only lowers lam - phi; and 1 for the defining formula."""
        t = x - r
        if self.form is not None:
            k = _roots_bound(self.form.poles, self.form.zeros, t)
            return k, (len(self.form.zeros) + len(self.form.poles)) * k
        if self.psi is None:
            reg = self.regime
            jumps = 0.0
            if reg.jump_rate > 0:
                jumps = reg.jump_rate * (1.0 - reg.jump_law.modulus_bound(t))
            return self.lam / (self.lam - reg.r * t + jumps), 0.0
        return 1.0, _quot(self.psi, _gap(self.psi, x, r))

    def amp_bound(self, x, r):
        return self.bound(x, r)[1]

    def series(self, x, order):
        if self.form is not None:
            return self.form.series(x, order)
        return killed_max_series(self.regime, x, self.lam, order, self.psi)


class _LevelMemo:
    """What a level shared by several recursions keeps about circles, none
    of it depending on a recursion's base (see :mod:`poolruin.overshoot`),
    by circle (x, r): the level's step (a, b) of the a priori bound's walk
    A <- A a + b, and, for a certified ring, the level's C(z), w nu / (nu -
    z) and z / nu at its nodes."""

    __slots__ = ("walk", "rings")

    def __init__(self):
        self.walk: dict = {}
        self.rings: dict = {}


@dataclass(frozen=True)
class _LadderLevel:
    """Ladder step with rate ``nu``, claim ``claim``, atom ``p0``, weight
    ``w`` and killed-maximum factor ``post`` (None: K = 1).  A level without
    a ladder rate (``nu`` None) has no fixed argument: it is
    ``(p0 + w C F_{k-1}) K``, the step of a nondecreasing regime.  ``memo``
    is set on a level shared by several recursions, and None on the
    ladder's own levels."""

    nu: Optional[float]
    claim: ClaimDistribution
    p0: float
    w: float
    post: Optional[_KilledMax] = None
    memo: Optional[_LevelMemo] = field(default=None, compare=False, hash=False, repr=False)


class _Recursion:
    """Memoized evaluator of the two-point recursion over
    :class:`_LadderLevel` levels (one without a ladder rate has no anchor
    and no removable point) and a base piece: ``real(x)`` at a float,
    ``nodes(z)`` (values and rounding amplification) at complex nodes,
    ``series(x, order)`` for jets outside every window, ``removable``
    points and ``left`` singularity distance.

    ``direct`` lets a windowed real point take the direct formula where its
    rounding bound certifies it, on an engine of at most ``_FLOAT_LEVELS``
    levels: the ladder's own engines set it, and the overshoot route's
    recursions, whose base pieces bound their amplification on circles
    only, keep contour means in every window."""

    def __init__(self, base, levels: Sequence, direct: bool = False):
        self.base = base
        self.levels = list(levels)
        self._direct = direct and len(self.levels) <= _FLOAT_LEVELS
        # point -> largest amplification bound at radius zero, by level
        self._amps: dict = {}
        self._cache: dict = {}
        self._anchors: list = [None]  # C_k(nu_k) F_{k-1}(nu_k) by level
        self._windows: dict = {}
        self._refuted: set = set()  # (level, point) of refuted certified rings
        self._lefts: list = [base.left]
        # (removable point, level that brings it in)
        self._removable = [(p, 0) for p in base.removable if p > 0]
        for k, lv in enumerate(self.levels, start=1):
            if lv.nu is not None:
                self._removable.append((lv.nu, k))

    # ------------------------------------------------------------ queries

    def value(self, point: float) -> float:
        if not math.isfinite(point):
            raise ValueError(f"alpha must be finite, got {point!r}")
        if point < 0:
            raise ValueError("alpha must be nonnegative")
        return self.level_value(len(self.levels), float(point))

    def jet(self, point: float, order: int = 2) -> TransformJet:
        """Value and derivatives at ``point``; ``order = 1`` skips the
        second derivative (NaN), for claim laws without a second moment.
        A point inside a window raises ``ValueError``: contour means give
        values only."""
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        if not hasattr(self.base, "series"):
            raise ValueError(f"no jet of a recursion on {type(self.base).__name__}")
        level = len(self.levels)
        point = float(point)
        if self._window_level(point) <= level:
            raise ValueError(
                f"no jet at {point!r}: it lies within the window of a "
                "removable point"
            )
        self._fill_anchors(level)
        out = self.base.series(point, order)
        for k in range(1, level + 1):
            out = self._step_series(k, point, out, order)
        jet = out.jet()
        return jet if order == 2 else TransformJet(jet.v, jet.d1, math.nan)

    def atom(self) -> float:
        """The transform's limit as the argument grows without bound, the
        mass at zero, from held data: ``(p_k + w_k A_k) K_k(inf)`` on a
        level with a ladder rate, whose anchor A_k is all that survives
        of the bracket, and ``(p_k + w_k C_k(inf) F_{k-1}(inf)) K_k(inf)``
        on one without, with C_k(inf) the claim law's atom and K_k(inf)
        that of the killed maximum."""
        self._fill_anchors(len(self.levels))
        val = self.base.atom
        for k, lv in enumerate(self.levels, start=1):
            if lv.nu is None:
                val = lv.p0 + lv.w * (lv.claim.atom * val)
            else:
                val = lv.p0 + lv.w * self._anchors[k]
            if lv.post is not None:
                val *= lv.post.atom
        return val

    def level_value(self, level: int, point: float) -> float:
        """F_level(point) at a real point, memoized per (level, point)."""
        hit = self._cache.get((level, point))
        if hit is not None:
            return hit
        if self._contour(level, point):
            self._sweep(level, (point,))
            return self._cache[(level, point)]
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

    def _prefetch(self, points: Sequence[float]):
        """Memoize the windowed ones of ``points`` at the top level, and
        the anchors, in one sweep."""
        self._sweep(len(self.levels), points)

    def _contour(self, level: int, x: float) -> bool:
        """Whether F_level(x) is a contour mean: ``x`` lies in a window at
        or below ``level``, and the direct formula is not certified there
        (see the module docstring)."""
        if self._window_level(x) > level:
            return False
        if not self._direct:
            return True
        amps = self._amps.get(x, ())
        if len(amps) <= level:
            amps, top = [], 0.0
            for amp in self._amp_walk(level, x, 0.0, self.base.amp_bound(x, 0.0)):
                top = max(top, amp) if amp == amp else math.inf  # NaN: refused
                amps.append(top)
            self._amps[x] = amps
        return not _EPS * amps[level] <= MAX_BOUND * _DIRECT_SHARE

    # ------------------------------------------------------ level steps

    def _window_level(self, x: float) -> float:
        """Lowest level from which ``x`` lies in a window (inf: none)."""
        hit = self._windows.get(x)
        if hit is None:
            # the removable points are listed by level
            hit = next(
                (k for p, k in self._removable if abs(x - p) <= WINDOW * p), math.inf
            )
            self._windows[x] = hit
        return hit

    def _fill_anchors(self, level: int):
        if len(self._anchors) <= level:
            self._sweep(level)

    def _anchor(self, k: int):
        """Append the anchor of level ``k``, every anchor below it held."""
        lv = self.levels[k - 1]
        anchor = None
        if lv.nu is not None:
            anchor = lv.claim.lst(lv.nu) * self.level_value(k - 1, lv.nu)
        self._anchors.append(anchor)

    def _step_real(self, k: int, x: float, prev: float) -> float:
        lv = self.levels[k - 1]
        c = lv.claim.lst(x)
        if lv.nu is None:
            out = lv.p0 + lv.w * (c * prev)
        else:
            g = lv.w * lv.nu / (lv.nu - x)
            out = lv.p0 + g * (c * prev - (x / lv.nu) * self._anchors[k])
        if lv.post is not None:
            out *= lv.post.real(x)
        return out

    def _step_series(self, k: int, x: float, prev: Taylor, order: int) -> Taylor:
        lv = self.levels[k - 1]
        c = lv.claim.lst_series(x, order)
        if lv.nu is None:
            out = lv.p0 + lv.w * (c * prev)
        else:
            ident = Taylor.identity(x, order)
            g = Taylor.constant(lv.w * lv.nu, order) / (lv.nu - ident)
            out = lv.p0 + g * (c * prev - (self._anchors[k] / lv.nu) * ident)
        if lv.post is not None:
            out = out * lv.post.series(x, order)
        return out

    def _step_nodes(self, k: int, z: np.ndarray, f, amp, c, rated=None) -> tuple:
        """Level ``k`` at complex nodes from the level below, with the
        accumulated rounding amplification A (in units of eps; None: not
        tracked); ``c`` is the level's claim transform at ``z``, and
        ``rated`` its :func:`_rated` factors there (None: computed)."""
        lv = self.levels[k - 1]
        # a named right operand: never elided (see the module docstring)
        if lv.nu is None:
            g = lv.w
            bracket = c * f
        else:
            g, zn = _rated(lv, z) if rated is None else rated
            bracket = c * f - zn * self._anchors[k]
        f = lv.p0 + g * bracket
        if amp is not None:
            amp = np.abs(g) * (amp * np.abs(c) + 1.0)
        if lv.post is not None:
            kval, kamp = lv.post.nodes(z, track=amp is not None)
            f = f * kval
            if amp is not None:
                amp = amp * np.abs(kval) + kamp
        return f, amp

    # ---------------------------------------------------- contour means

    def _left(self, level: int) -> float:
        """Distance from zero to the nearest singularity on the left of any
        piece at or below ``level``."""
        for k in range(len(self._lefts), level + 1):
            lv = self.levels[k - 1]
            d = min(self._lefts[-1], lv.claim.left_singularity)
            if lv.post is not None:
                d = min(d, lv.post.left)
            self._lefts.append(d)
        return self._lefts[level]

    def _sweep(self, level: int, points: Sequence[float] = ()):
        """Fill the anchors up to ``level`` and memoize F_level at the
        windowed ``points`` in one stacked upward pass."""
        cache, contour = self._cache, self._contour
        # (level the circle ends at, its centre), in order of level: the
        # anchors' circles, then the requested ones
        first = len(self._anchors)
        blocks = [
            (k - 1, lv.nu)
            for k, lv in enumerate(self.levels[first - 1 : level], start=first)
            if lv.nu is not None
            and (k - 1, lv.nu) not in cache
            and contour(k - 1, lv.nu)
        ]
        for x in dict.fromkeys(points):
            if (level, x) not in cache and contour(level, x):
                blocks.append((level, x))
        if blocks:
            self._stack(blocks)
        for k in range(len(self._anchors), level + 1):
            self._anchor(k)

    @np.errstate(all="ignore")
    def _stack(self, blocks: list):
        """One upward pass over the stacked circles of ``blocks``, each on
        the rings :meth:`_rings` gives it: each level is evaluated on the
        rows still open, and the blocks that end there take their mean and
        leave the stack at its front.  The amplification is tracked only
        while a block without a certified ring is open.  A certified ring
        that fails its own error estimate is taken again, alone and
        tracked on every radius."""
        rings = self._rings(blocks)
        counts = [len(radii) for radii, _ in rings]
        rows = [(x, r) for (_, x), (radii, _) in zip(blocks, rings) for r in radii.tolist()]
        centres, radii = np.array(rows).T
        z = centres[:, None] + radii[:, None] * _UNIT
        tracked = sum(bound is None for _, bound in rings)
        f, amp = self.base.nodes(z, track=tracked > 0)
        claim_at: dict = {}  # claim -> (rows ended before, transform)
        done = row = 0  # blocks and rows ended
        for level in range(blocks[-1][0] + 1):
            if level:
                if len(self._anchors) <= level:
                    self._anchor(level)
                if self.levels[0].memo is None:  # not a shared level set
                    claim = self.levels[level - 1].claim
                    if claim not in claim_at:
                        claim_at[claim] = (row, claim.lst_complex(z))
                    since, c = claim_at[claim]
                    c, rated = c[row - since :], None
                else:
                    c, *rated = self._kept_factors(level, blocks[done:], rings[done:], z)
                f, amp = self._step_nodes(level, z, f, amp, c, rated)
            while blocks[done][0] == level:
                at, x = blocks[done]
                radii, bound = rings[done]
                n = counts[done]
                if bound is None:
                    self._cache[(at, x)] = self._mean(at, x, radii, f[:n], amp[:n])
                    tracked -= 1
                else:
                    mean = _checked_mean(f[0])
                    if mean is None:
                        self._refuted.add((at, x))
                        self._stack([(at, x)])
                    else:
                        self._cache[(at, x)] = mean
                done += 1
                if done == len(blocks):
                    return
                row += n
                f, z = f[n:], z[n:]
                amp = amp[n:] if tracked else None

    def _kept_factors(self, level: int, blocks: list, rings: list, z) -> tuple:
        """C, w nu / (nu - z) and z / nu of level ``level`` at the open rows
        ``z`` of a stack on a shared level set, ``blocks`` and ``rings``
        those still open: a certified ring's from the level's memo, filled
        from its row of ``z`` on first use, a tracked block's computed on
        its rows.  Each node is computed on its own, so the rows are those
        of the stacked array."""
        lv = self.levels[level - 1]
        kept = lv.memo.rings
        parts = []
        row = 0
        for (_, x), (radii, bound) in zip(blocks, rings):
            n = len(radii)
            key = None if bound is None else (x, float(radii[0]))
            part = None if key is None else kept.get(key)
            if part is None:
                zs = z[row : row + n]
                part = (lv.claim.lst_complex(zs), *_rated(lv, zs))
                if key is not None:
                    kept[key] = part
            parts.append(part)
            row += n
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    @cached_property
    def _level_arrays(self) -> tuple:
        """Per level: its ladder rate (NaN: none) and ``w nu``; and, if any
        level's killed-maximum factor is a product form with roots, the
        poles and zeros of each (padded with inf) and their count."""
        nu = np.array([math.nan if lv.nu is None else lv.nu for lv in self.levels])
        wnu = np.array([lv.w for lv in self.levels]) * nu
        forms = [lv.post.form if lv.post is not None else None for lv in self.levels]
        roots = [(form.poles, form.zeros) if form else ((), ()) for form in forms]
        if not any(p for p, _ in roots):
            return nu, wnu, None
        pads = []
        for part in (0, 1):
            pad = np.full((len(roots), max(len(f[part]) for f in roots)), math.inf)
            for j, f in enumerate(roots):
                pad[j, : len(f[part])] = f[part]
            pads.append(pad)
        count = np.array([len(p) + len(z) for p, z in roots], dtype=float)
        return nu, wnu, (*pads, count)

    def _amp_bounds(self, blocks: list, centres, radii, amp) -> np.ndarray:
        """A priori bounds of the rounding amplification of each block's
        circle |z - x| = r at each radius (rows by block): the recurrence
        of :meth:`_step_nodes` with every factor replaced by its largest
        modulus on the circle, where Re z >= x - r > 0.  That is
        w nu / ||nu - x| - r| for g, the claim law's
        :meth:`~poolruin.claims.ClaimDistribution.modulus_bound` at x - r
        for C, K(x - r) and the pieces' own ``bound`` for K, and their
        ``amp_bound`` for the base.  No node is evaluated and no anchor is
        needed.  The factors of a run of levels are taken at once, in
        arrays of at most about ``_CHUNK`` elements, and the recurrence
        A <- A (g C K) + (g K + kamp) then walks the run, from the base's
        bounds ``amp``."""
        ends = [level for level, _ in blocks]
        near = centres - radii
        claim_at: dict = {}  # claim -> its modulus bound on every circle
        out = np.empty(radii.shape)
        done = bisect.bisect_right(ends, 0)
        out[:done] = amp[:done]
        level = first = 0  # first: the block in row 0 of amp
        while done < len(blocks):
            rates, wnu, forms = self._level_arrays
            amp = amp[done - first :]
            first = done
            x, r, t = centres[first:], radii[first:], near[first:]
            top = min(ends[-1], level + max(1, _CHUNK // amp.size))
            run = slice(level, top)
            g = wnu[run, None, None] / _gap(rates[run, None, None], x, r)
            c = []
            for j, lv in enumerate(self.levels[run]):
                if lv.nu is None:
                    g[j] = lv.w
                bound = claim_at.get(lv.claim)
                if bound is None:
                    bound = lv.claim.modulus_bound(near)
                    if np.ndim(bound) == 0:
                        bound = np.full(near.shape, bound)
                    claim_at[lv.claim] = bound
                c.append(bound[first:])
            a = g * np.array(c)
            if forms is not None:
                poles, zeros, count = (part[run].T[..., None, None] for part in forms)
                k = _roots_bound(poles, zeros, t)
                a = a * k
                g = g * k + count * k
            for j, lv in enumerate(self.levels[run]):
                if lv.post is not None and lv.post.form is None:
                    kmax, kamp = lv.post.bound(x, r)
                    a[j] = a[j] * kmax
                    g[j] = g[j] * kmax + kamp
            for j in range(top - level):
                amp = amp * a[j] + g[j]
                end = bisect.bisect_right(ends, level + j + 1)
                out[done:end] = amp[done - first : end - first]
                done = end
            level = top
        return out

    def _amp_walk(self, level: int, x: float, r: float, amp: float) -> list:
        """The bound of :meth:`_amp_bounds` on the circle |z - x| = r in
        Python floats, which cost less than arrays on a small stack, from
        the base's bound ``amp``: at the base and at each level up to
        ``level``, in order, by the same operations, so to the same bits.
        Each level's step is A <- A a + b; a shared level keeps its (a, b)
        by circle."""
        out = [amp]
        t = x - r
        claim_at: dict = {}
        for lv in self.levels[:level]:
            memo = lv.memo
            step = None if memo is None else memo.walk.get((x, r))
            if step is not None:
                a, b = step
            else:
                c = claim_at.get(lv.claim)
                if c is None:
                    c = claim_at[lv.claim] = lv.claim.modulus_bound(t)
                if lv.nu is None:
                    g = lv.w
                else:
                    # _quot(w nu, _gap(nu, x, r)), inline
                    gap = abs(abs(lv.nu - x) - r)
                    g = lv.w * lv.nu / gap if gap else math.inf
                post = lv.post
                if post is None:
                    a, b = g * c, g
                else:
                    kmax, kamp = post.bound(x, r)
                    a, b = (g * c) * kmax, g * kmax + kamp
                if memo is not None:
                    memo.walk[(x, r)] = (a, b)
            amp = amp * a + b
            out.append(amp)
        return out

    def _rings(self, blocks: list) -> list:
        """Per block, the radii to evaluate and their error bounds: the
        radius of ``RADII`` whose a priori bound

            eps * (amplification bound) + (r / (x + d))^NODES

        is least, with that bound, when it is within ``MAX_BOUND`` and the
        circle has not failed its own estimate (certified: one ring, whose
        amplification need not be tracked); otherwise every radius, with
        None (tracked).  The amplification bounds of a stack of at most
        ``_FLOAT_LEVELS`` circle-levels above the base are taken in Python
        floats, of a larger one in arrays; both forms give the same bits,
        so the choice depends on the level and the point only."""
        centres = np.array([x for _, x in blocks])[:, None]
        lefts = np.array([self._left(level) for level, _ in blocks])[:, None]
        radii = RADII * centres
        trunc = (radii / (centres + lefts)) ** NODES
        amp = np.zeros(radii.shape) + self.base.amp_bound(centres, radii)
        levels = sum(level for level, _ in blocks)
        if 0 < levels <= _FLOAT_LEVELS:
            rows = zip(blocks, radii.tolist(), amp.tolist())
            amp = np.array([
                [self._amp_walk(level, x, r, a)[-1] for r, a in zip(rs, amps)]
                for (level, x), rs, amps in rows
            ])
        elif levels:
            amp = self._amp_bounds(blocks, centres, radii, amp)
        bound = _EPS * amp + trunc
        bound = np.fmin(bound, np.inf)  # NaN: inf
        out = []
        for k, (block, i) in enumerate(zip(blocks, bound.argmin(axis=1).tolist())):
            if bound[k, i] <= MAX_BOUND and block not in self._refuted:
                out.append((radii[k, i : i + 1], bound[k, i : i + 1]))
            else:
                out.append((radii[k], None))
        return out

    def _mean(self, level, x, radii, f, amp) -> float:
        """Mean of F_level over the best of the tracked circles around
        ``x`` whose trapezoid rule passes its own error check."""
        trunc = (radii / (x + self._left(level))) ** NODES
        bound = _EPS * amp.max(axis=1) + trunc
        bound[~(np.isfinite(f).all(axis=1) & np.isfinite(bound))] = np.inf
        failed = 0  # circles within the bound that failed their estimate
        while True:
            best = int(np.argmin(bound))
            if not bound[best] <= MAX_BOUND:
                why = (
                    f"the {failed} circles within the error bound failed "
                    "their own error estimate"
                    if failed
                    else f"error bound {bound[best]:.3g} above {MAX_BOUND:g}"
                )
                raise PoolRuinError(f"no contour resolves level {level} at {x!r}: {why}")
            mean = _checked_mean(f[best])
            if mean is not None:
                return mean
            bound[best] = np.inf
            failed += 1


def _rated(lv: _LadderLevel, z) -> tuple:
    """The factors w nu / (nu - z) and z / nu of a level with a ladder rate
    at the nodes ``z``."""
    return (lv.w * lv.nu) / (lv.nu - z), z / lv.nu


def _checked_mean(row) -> Optional[float]:
    """The trapezoid mean of one circle's upper-half nodes ``row``, or None
    when its own error estimate refutes it."""
    # the nodes come in conjugate pairs: the mean is that of the real parts
    # over the upper half, summed as ``np.mean`` sums it
    mean = float(np.add.reduce(row.real)) / (NODES // 2)
    # The bound assumes |F| <= 1 out to the left singularity, but F grows
    # there, so the rule checks itself.  The even and the odd nodes of the
    # full circle are two 32-node rules, a half step apart, whose errors
    # are equal and opposite; a conjugate pair is one even and one odd
    # node, so either rule's error is |sum over the upper half of
    # Im f (even - odd)| / 32.  The 64-node error is about its square (the
    # trapezoid error falls geometrically in the node count).
    est = abs(float(np.dot(row.imag, _ALTERNATE))) / (NODES // 2)
    # a node that is not finite makes the mean or the estimate so
    ok = math.isfinite(mean) and est * est <= MAX_BOUND * abs(mean)
    return mean if ok else None


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


def _generic_engine(spec: GenericLadderSpec, n: Optional[int] = None) -> _Recursion:
    """The recursion over the first ``n`` levels of ``spec`` (all: None)."""
    levels = [
        _LadderLevel(
            nu=spec.nu[k], claim=spec.c_lsts[k], p0=spec.p0[k], w=1.0 - spec.p0[k]
        )
        for k in range(spec.n if n is None else n)
    ]
    return _Recursion(_One(), levels, direct=True)


def pi_generic(spec: GenericLadderSpec, alpha: float) -> float:
    """Transform of the generic ladder maximum at ``alpha``."""
    return _generic_engine(spec).value(alpha)


def atom_at_zero(spec: GenericLadderSpec, k: int) -> float:
    """Probability that the level-``k`` ladder maximum is exactly zero."""
    if not 0 <= k <= spec.n:
        raise ValueError("k must lie in 0..n")
    return _generic_engine(spec, k).atom()


def generic_spec_from_drift(
    model: ModelSpec, beta: float, n: int
) -> GenericLadderSpec:
    """Generic ladder data realizing the drift model: C_k is the claim
    transform of the next arrival, nu_k = lam_k / r_k, p0_k = beta / lam_k."""
    require_killing(model, beta, "the generic ladder realization")
    require_drift_model(model, "the generic ladder realization")
    nu, cls_, p0 = [], [], []
    for k in range(1, n + 1):
        lam = model.rate_for_state(k) + beta
        nu.append(lam / model.regimes[k].r)
        cls_.append(model.claim_for_state(k))
        p0.append(beta / lam)
    return GenericLadderSpec(n=n, nu=tuple(nu), c_lsts=tuple(cls_), p0=tuple(p0))


def _killed_max_piece(regime: LevyRegime, lam: float, psi: Optional[float] = None):
    """The killed-maximum factor as a recursion piece (None: K = 1, a flat
    or positive pure drift); ``psi`` as in :func:`killed_max_series`."""
    if regime.pure_drift and regime.r >= 0:
        return None
    if regime.nondecreasing:
        return _KilledMax(regime, lam, None)
    return _KilledMax(regime, lam, inverse_exponent(regime, lam) if psi is None else psi)


class _Held:
    """What one thread keeps for its most recent model object: the jets of
    :func:`pi_jet` by (beta, n), for every beta asked of it, and for its
    most recent beta the model engines by ``n``, the overshoot state, which
    :mod:`poolruin.overshoot` fills in, and the exact phase-type laws of
    :func:`poolruin.phase_type.running_max_ph` by ``n``.  The model itself
    is held by a weak reference only."""

    def __init__(self, model: ModelSpec, beta: float, jets: dict):
        self.model = weakref.ref(model)
        self.beta = beta
        self.engines: dict = {}
        self.overshoot = None
        self.laws: dict = {}
        self.jets = jets


_held = threading.local()


def _memo(model: ModelSpec, beta: float) -> _Held:
    """The state kept for (``model``, ``beta``) in the calling thread.

    A thread keeps one model object only, its most recent: a request for
    another model object replaces everything, and one for another beta
    replaces the engines, the overshoot state and the phase-type laws but
    keeps the jets.  The model is matched by identity, never by equality,
    so a fresh model object, even one equal to the kept one, starts cold;
    and since each thread has its own slot, two threads never share an
    engine, a law or a jet.
    Only values that were computed are kept: a request that raised stored
    nothing and raises again.
    """
    held = getattr(_held, "slot", None)
    if held is None or held.model() is not model:
        held = _held.slot = _Held(model, beta, {})
    elif held.beta != beta:
        held = _held.slot = _Held(model, beta, held.jets)
    return held


def _check_request(model: ModelSpec, beta: float, n: int):
    """Refuse (``beta``, ``n``) unless :func:`engine` can serve them."""
    if not 0 <= n <= model.m:
        raise ValueError("n must lie in 0..m")
    require_killing(model, beta, "the ladder recursion")


def engine(model: ModelSpec, beta: float, n: int) -> _Recursion:
    """Evaluator of the running-maximum transform started with ``n`` clients
    and killed at rate ``beta`` (beta = 0 gives the infinite horizon and
    needs the drift model).

    One engine serves any number of arguments: its memo is keyed on
    (level, point), so a value never depends on earlier requests.  The
    engine is shared by the calls of one thread: every call for the same
    model object, beta and ``n`` returns the same engine while that
    (model, beta) is the thread's most recent (:func:`_memo`).
    """
    _check_request(model, beta, n)
    engines = _memo(model, beta).engines
    eng = engines.get(n)
    if eng is None:
        eng = engines[n] = _model_engine(model, beta, n)
    return eng


def _model_engine(model: ModelSpec, beta: float, n: int) -> _Recursion:
    levels = []
    for k in range(1, n + 1):
        reg = model.regimes[k]
        lam_circ = model.rate_for_state(k)
        lam = lam_circ + beta
        claim = model.claim_for_state(k)
        # the ladder rate is psi(lam), the root the killed-maximum factor
        # divides out: solve it once per level; a nondecreasing path peaks
        # at the segment end and has none
        nu = None if reg.nondecreasing else inverse_exponent(reg, lam)
        post = _killed_max_piece(reg, lam, nu)
        levels.append(
            _LadderLevel(nu=nu, claim=claim, p0=beta / lam, w=lam_circ / lam, post=post)
        )
    base = _killed_max_piece(model.regimes[0], beta)
    return _Recursion(_One() if base is None else base, levels, direct=True)


def pi_max(model: ModelSpec, beta: float, n: int, alpha: float) -> float:
    """Running-maximum transform at ``alpha``, from the thread's
    :func:`engine` for (model, beta, n)."""
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
    branch contributing constants only.  The thread keeps the jet of every
    (beta, n) asked of its most recent model object, keyed on the exact
    float beta (:func:`_memo`), so a repeated request builds no engine; the
    arguments are checked on every call.
    """
    _check_request(model, beta, n)
    jets = _memo(model, beta).jets
    jet = jets.get((beta, n))
    if jet is None:
        jet = jets[(beta, n)] = engine(model, beta, n).jet(0.0)
    return jet
