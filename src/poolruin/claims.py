"""Claim-size distribution library.

Every claim law exposes its Laplace-Stieltjes transform together with
derivatives of any order (as truncated Taylor expansions; the package's own
routes ask for order two at most, the jets of the moments), the transform
at arrays of complex arguments with the distance ``left_singularity`` from
zero to its nearest singularity on the left and a bound of its modulus on
a right half-plane (``modulus_bound``), the survival function, exact
sampling, and the first two moments when they exist.  The complement
1 - C, at floats and at complex arguments, comes in forms that do not
cancel far below the law's scale (``lst_complement``,
``lst_complement_complex``), for the Laplace exponents of
:mod:`poolruin.model`.  The exponential law is the Erlang law with one
phase: :class:`Exponential` is :class:`Erlang` at k = 1.  Erlang laws
give the first and second divided differences of their transform in a
form with no removable point (``divided_difference``); for the other laws
the overshoot route takes contour means of the complex transform around
the removable points (:mod:`poolruin.overshoot`), never high-order
expansions.  ``atom`` is the law's mass at zero.  The
Lomax law additionally carries regular-variation metadata (tail index,
transform coefficient) that drives the heavy-tail asymptotics; Erlang and
explicit phase-type laws expose a phase-type representation for the exact
running-maximum construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import phase_type as pht
from ._lazy import LazyModule
from .errors import MomentUndefined, NoConvergence, NotPhaseType, PoolRuinError
from .errors import require_finite, require_nonnegative
from .seriesops import Taylor, TransformJet, _from_log

integrate = LazyModule("scipy.integrate")  # the Lomax quadrature only

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=400)

# Lomax transform at complex arguments: power series below this |cz|,
# continued fraction above; both stop by this many terms
_LOMAX_SERIES_RADIUS = 1.0
_LOMAX_TERMS = 2000


def _int_power(q, k: int):
    """q^k for an integer k >= 1 by squarings: the same operations on a
    float and on an array."""
    out = None
    while True:
        if k & 1:
            out = q if out is None else out * q
        k >>= 1
        if not k:
            return out
        q = q * q


_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitting constant


def _product_error(a, b, p):
    """a * b - p for p = fl(a * b), exactly (Dekker's two-product), at
    floats or float arrays."""
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _ratio(mu: float, x):
    """u = mu / (mu + x) rounded, and its remainder du to first order
    (u + du is exact to about eps^2 relative), at a float or an array of
    floats: the rounding of the sum from Knuth's two-sum, that of the
    quotient from its exact residual.  A remainder that overflows (x near
    the float range) is zero."""
    s = mu + x
    bb = s - mu
    e = (mu - (s - bb)) + (x - bb)
    u = mu / s
    p = u * s
    if not isinstance(x, np.ndarray):  # floats never warn: no errstate to pay for
        du = ((mu - p) - _product_error(u, s, p) - u * e) / s
        return u, du if abs(du) < math.inf else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        du = ((mu - p) - _product_error(u, s, p) - u * e) / s
    return u, np.where(np.abs(du) < math.inf, du, 0.0)


class PowerDividedDifference:
    """z -> C[z, p_1, ..., p_n] for C(x) = u(x)^k, u(x) = mu / (mu + x),
    over fixed real points p (n = 1 or 2).  The divided differences of u^k
    are

        C[z, p_1, ..., p_n] = (-1/mu)^n u(z) u(p_1) ... u(p_n) h_{k-1}(u(z), u(p_1), ...)

    with h_d the complete homogeneous symmetric polynomial of degree d: on
    the real axis a sum of positive terms, with no removable point.  h over
    the points comes from the recurrence h_j(P + {v}) = h_j(P) + v
    h_{j-1}(P + {v}), once, and u(z) enters last, by Horner's rule; O(k).
    A term of degree k + n would carry k + n times the rounding of each u,
    so the remainders of :func:`_ratio` ride along to first order (dual
    numbers) at the points and at a real z; complex nodes take u(z) as
    rounded."""

    def __init__(self, mu: float, k: int, points: tuple):
        self.mu = mu
        self.k = k
        h = [1.0] + [0.0] * (k - 1)  # h_j over no point
        dh = [0.0] * k
        coef, dcoef = 1.0, 0.0
        for p in points:
            v, dv = _ratio(mu, p)
            for j in range(1, k):
                dh[j] = dh[j] + (v * dh[j - 1] + dv * h[j - 1])
                h[j] = h[j] + v * h[j - 1]
            dcoef = dcoef * v + coef * dv
            coef = coef * v
        coef = coef + dcoef
        for _ in points:
            coef = coef / -mu
        self._h = [a + b for a, b in zip(h, dh)]
        self._coef = coef  # (-1/mu)^n prod u(p)
        # every u, Horner step and product adds a few eps relative to the
        # sum of the terms' moduli
        self._rounding = 4.0 * (k + len(points) + 1)

    def __call__(self, z):
        mu, h = self.mu, self._h
        if isinstance(z, np.ndarray) and z.dtype.kind == "c":
            return self._plain(mu / (mu + z))
        q, dq = _ratio(mu, z)
        total, dtotal = 1.0, 0.0
        for j in range(1, self.k):
            dtotal = q * dtotal + dq * total
            total = h[j] + q * total
        return (q * total) * self._coef + (dq * total + q * dtotal) * self._coef

    def _plain(self, q):
        total = 1.0
        for j in range(1, self.k):
            total = self._h[j] + q * total
        return (q * total) * self._coef

    def bound(self, t):
        """A bound of the rounding amplification (the absolute error in
        units of eps) at every z with Re z >= t, at a float or an array of
        floats t >= 0, the same bits for a float as for that float in an
        array: every term's modulus is at most its value at t."""
        return self._rounding * abs(self._plain(self.mu / (self.mu + t)))


@dataclass(frozen=True)
class RVMeta:
    """Regular-variation metadata: tail index, transform coefficient and
    the integer part of the tail index."""

    delta: float
    theta: float
    n_delta: int


class ClaimDistribution:
    """Base interface; concrete laws override the series and sampling."""

    kind: str = "abstract"

    def lst(self, alpha: float) -> float:
        return self.lst_series(alpha, 0).c[0]

    def lst_complement(self, alpha: float) -> float:
        """1 - lst(alpha) at a float alpha >= 0, for the jump part of
        :func:`poolruin.model.laplace_exponent`.  Exponential, Erlang,
        phase-type and point-mass laws override it with a form that does
        not cancel once alpha is far below the law's scale, where 1 - lst
        keeps only the digits of alpha times the mean.  This default, which
        Lomax keeps, is the difference: Lomax has no closed-form transform,
        only a quadrature whose absolute error 1 - lst keeps in any form,
        and a complement of its own would be a second quadrature at every
        evaluation."""
        return 1.0 - self.lst(alpha)

    def lst_complement_complex(self, z):
        """1 - lst_complex(z) at complex arguments, elementwise as
        :meth:`lst_complex`, in the same cancellation-free forms as
        :meth:`lst_complement` where the law has one.  This default, which
        Lomax keeps, is the difference: its series and continued fraction
        give the transform, not its complement, and the Lomax law's branch
        point at zero keeps the contour nodes away from small |z|."""
        return 1.0 - self.lst_complex(z)

    def lst_series(self, alpha: float, order: int) -> Taylor:
        raise NotImplementedError

    def lst_jet(self, alpha: float) -> TransformJet:
        return self.lst_series(alpha, 2).jet()

    def lst_complex(self, z: np.ndarray) -> np.ndarray:
        """Transform at complex arguments (an array, or one number) with
        Re z > -d, where d is :attr:`left_singularity`.  Each node is
        computed on its own: its value does not depend on the other nodes
        of the array or on the array's size, so contour means stacked in
        one call equal those of their circles taken one at a time
        (:mod:`poolruin.ladder`)."""
        raise NotImplementedError

    @property
    def left_singularity(self) -> float:
        """d >= 0 such that the transform is analytic on Re z > -d and
        singular at -d (inf for an entire transform)."""
        raise NotImplementedError

    def modulus_bound(self, t):
        """A bound of |C(z)| on Re z >= t, at a float or an array of floats
        t >= 0, with the same bits for a float as for that float in an
        array.  The transform of a nonnegative law has |C(z)| <= C(Re z)
        <= C(t), so a law with a closed-form transform gives C(t); the
        others give 1, which holds for every law (the Lomax transform on
        the real axis is a quadrature, too dear for a bound)."""
        return 1.0

    def divided_difference(self, *points) -> Optional["PowerDividedDifference"]:
        """The divided difference z -> C[z, points] of the transform over
        one or two real points (c, or a and c, each >= 0), in a form with
        no removable point: no difference of nearly equal values where z or
        the points meet.  It is evaluated at a float z >= 0 or at an array
        of complex z with Re z > 0, elementwise, and with the same bits for
        a float as for that float in an array, and it carries an a priori
        bound of its rounding amplification on Re z >= t.  None where the
        law has no such form (this default): the overshoot route then takes
        the quotient of differences, removable where the points meet, with
        contour means around them."""
        return None

    @property
    def atom(self) -> float:
        """P(claim = 0), the transform's limit at infinity."""
        raise NotImplementedError

    def tail(self, u: float) -> float:
        raise NotImplementedError

    def sample(
        self, rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``size`` independent draws, into ``out`` (a float array of that
        length) when given, which is returned."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def phase_type(self) -> Optional[pht.PhaseType]:
        """Phase-type representation, or None when the law has none; one
        that would build over ``MAX_DENSE_PHASES`` phases raises
        :class:`NotPhaseType`."""
        return None

    @property
    def rv_meta(self) -> Optional[RVMeta]:
        return None


@dataclass(frozen=True)
class Erlang(ClaimDistribution):
    k: int
    mu: float
    kind = "erlang"

    def __post_init__(self):
        require_finite(type(self).__name__, k=self.k, mu=self.mu)
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    def lst_series(self, alpha: float, order: int) -> Taylor:
        if not 0 <= alpha < math.inf:  # inline: called at every jet's level
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha!r}")
        base = self.mu + alpha
        k = self.k
        coeffs = []
        for i in range(order + 1):
            try:
                coeffs.append(
                    (-1.0) ** i * math.comb(k + i - 1, i) * self.mu**k / base ** (k + i)
                )
            except (OverflowError, ZeroDivisionError):
                log_abs = (
                    math.log(math.comb(k + i - 1, i))
                    + k * math.log(self.mu)
                    - (k + i) * math.log(base)
                )
                coeffs.append(_from_log((-1.0) ** i, log_abs))
        return Taylor(coeffs)

    def lst(self, alpha: float) -> float:
        if not 0 <= alpha < math.inf:  # inline: called at every real point
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha!r}")
        return (self.mu / (self.mu + alpha)) ** self.k

    def lst_complex(self, z):
        return (self.mu / (self.mu + z)) ** self.k

    def lst_complement(self, alpha: float) -> float:
        require_nonnegative("alpha", alpha)
        if self.k == 1:
            return alpha / (self.mu + alpha)
        return -math.expm1(-self.k * math.log1p(alpha / self.mu))

    def lst_complement_complex(self, z):
        # 1 - q^k = (1 - q)(1 + q + ... + q^(k-1)), q = mu / (mu + z), and
        # 1 - q = z / (mu + z): no difference of nearly equal terms
        c = z / (self.mu + z)
        if self.k == 1:
            return c
        q = self.mu / (self.mu + z)
        total = 1.0
        for _ in range(self.k - 1):
            total = 1.0 + q * total
        return c * total

    def modulus_bound(self, t):
        return _int_power(self.mu / (self.mu + t), self.k)

    def divided_difference(self, *points):
        return PowerDividedDifference(self.mu, self.k, points)

    atom = 0.0

    @property
    def left_singularity(self) -> float:
        return self.mu

    def tail(self, u: float) -> float:
        # P(Gamma(k, mu) > u) = e^{-mu u} sum_{j<k} (mu u)^j / j!
        require_nonnegative("u", u)
        x = self.mu * u
        term = 1.0
        acc = 1.0
        for j in range(1, self.k):
            term *= x / j
            acc += term
        return math.exp(-x) * acc

    def sample(self, rng, size, out=None):
        # the draws and products of rng.gamma(k, 1.0 / mu, size)
        out = rng.standard_gamma(self.k, size, out=out)
        out *= 1.0 / self.mu
        return out

    def mean(self) -> float:
        return self.k / self.mu

    def second_moment(self) -> float:
        return self.k * (self.k + 1) / self.mu**2

    def phase_type(self):
        if self.k > pht.MAX_DENSE_PHASES:
            raise NotPhaseType(f"Erlang k = {self.k} is above the dense phase bound")
        S = -self.mu * np.eye(self.k) + self.mu * np.eye(self.k, k=1)
        delta = np.zeros(self.k)
        delta[0] = 1.0
        return pht.PhaseType(delta=delta, S=S)


@dataclass(frozen=True)
class Exponential(Erlang):
    """Exp(mu), the Erlang law with one phase."""

    k: int = field(default=1, init=False, repr=False)
    kind = "exp"


@dataclass(frozen=True)
class PhaseTypeClaim(ClaimDistribution):
    ph: pht.PhaseType
    kind = "ph"

    def lst_series(self, alpha: float, order: int) -> Taylor:
        return pht.ph_lst_series(self.ph, alpha, order)

    def lst(self, alpha: float) -> float:
        return pht.ph_lst(self.ph, alpha)

    def lst_complement(self, alpha: float) -> float:
        return pht.ph_lst_complement(self.ph, alpha)

    def lst_complex(self, z):
        return pht.ph_lst_complex(self.ph, z)

    def lst_complement_complex(self, z):
        return pht.ph_lst_complement_complex(self.ph, z)

    def modulus_bound(self, t):
        if isinstance(t, np.ndarray):
            values = [pht.ph_lst(self.ph, v) for v in t.ravel().tolist()]
            return np.array(values).reshape(t.shape)
        return pht.ph_lst(self.ph, t)

    @property
    def atom(self) -> float:
        return self.ph.delta_abs

    @property
    def left_singularity(self) -> float:
        return pht.ph_abscissa(self.ph)

    def tail(self, u: float) -> float:
        return pht.ph_tail(self.ph, u)

    def sample(self, rng, size, out=None):
        draws = pht.ph_sample(self.ph, rng, size)
        if out is None:
            return draws
        out[...] = draws
        return out

    def mean(self) -> float:
        return pht.ph_mean(self.ph)

    def second_moment(self) -> float:
        return pht.ph_second_moment(self.ph)

    def phase_type(self):
        return self.ph


@dataclass(frozen=True)
class Lomax(ClaimDistribution):
    """Pareto-type law with survival (C / (C + u))^eps and non-integer eps.

    The transform has no elementary closed form and is evaluated by adaptive
    quadrature of the density kernel; moments at zero use the exact product
    formulas instead so that coefficients stay exact where they exist.
    """

    c: float
    eps: float
    _kernel_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    kind = "lomax"

    def __post_init__(self):
        require_finite("Lomax", c=self.c, eps=self.eps)
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if float(self.eps).is_integer():
            raise ValueError("integer tail index is not supported")

    def _density(self, u: float) -> float:
        return self.eps * self.c**self.eps / (self.c + u) ** (self.eps + 1)

    def _kernel_moment(self, alpha: float, i: int) -> float:
        """int u^i e^{-alpha u} density(u) du, scaled in log space so that
        high-order kernels (whose peak exp(i ln u - alpha u) is astronomical)
        never overflow inside the quadrature."""
        key = (alpha, i)
        hit = self._kernel_cache.get(key)
        if hit is not None:
            return hit
        peak = 0.0 if i == 0 else i * (math.log(i / alpha) - 1.0)

        def integrand(u):
            if u <= 0.0:
                return 0.0 if i else math.exp(-peak) * self._density(u)
            log_term = i * math.log(u) - alpha * u - peak
            if log_term < -745.0:
                return 0.0
            return math.exp(log_term) * self._density(u)

        try:
            val, _ = integrate.quad(integrand, 0.0, np.inf, **_QUAD_OPTS)
        except OverflowError as exc:
            raise PoolRuinError(
                f"Lomax(c={self.c!r}, eps={self.eps!r}) transform at alpha = "
                f"{alpha!r}: the density overflowed in the quadrature of "
                f"kernel moment {i}"
            ) from exc
        out = val * math.exp(peak) if peak < 709.0 else math.inf
        self._kernel_cache[key] = out
        return out

    def lst_series(self, alpha: float, order: int) -> Taylor:
        require_nonnegative("alpha", alpha)
        if alpha == 0.0:
            coeffs = [1.0]
            prod = 1.0
            for i in range(1, order + 1):
                if self.eps <= i:
                    raise MomentUndefined(
                        f"moment {i} of Lomax(eps={self.eps}) does not exist"
                    )
                prod *= -self.c / (self.eps - i)
                coeffs.append(prod)
            return Taylor(coeffs)
        coeffs = []
        sign = 1.0
        fact = 1.0
        for i in range(order + 1):
            if i > 0:
                fact *= i
                sign = -sign
            coeffs.append(sign * self._kernel_moment(alpha, i) / fact)
        return Taylor(coeffs)

    def lst_complex(self, z):
        """eps (cz)^eps e^{cz} Gamma(-eps, cz) on Re z > 0: the power series
        of the lower incomplete gamma function for |cz| < 1, Legendre's
        continued fraction (modified Lentz) beyond; each node stops at its
        own convergence."""
        w = self.c * np.asarray(z, dtype=complex)
        small = np.abs(w) < _LOMAX_SERIES_RADIUS
        out = np.empty_like(w)
        if small.any():
            out[small] = self._lst_series_form(w[small])
        if not small.all():
            out[~small] = self._lst_fraction_form(w[~small])
        return out

    def _lst_series_form(self, w):
        # Gamma(-eps, w) = Gamma(-eps) - sum_n (-1)^n w^(n-eps) / (n! (n-eps))
        eps = self.eps
        sums = np.empty_like(w)
        live = np.arange(w.size)  # nodes still summing
        neg = -w  # named: never an elided right operand (see poolruin.ladder)
        acc = np.zeros_like(w)
        term = np.ones_like(w)  # (-w)^n / n!
        for n in range(_LOMAX_TERMS):
            step = term / (n - eps)
            acc += step
            done = np.abs(step) <= 1e-17 * np.abs(acc)
            sums[live[done]] = acc[done]
            keep = ~done
            live, neg, acc, term = live[keep], neg[keep], acc[keep], term[keep]
            if not live.size:
                break
            term = term * neg / (n + 1)
        else:
            raise NoConvergence("Lomax transform series did not converge")
        return eps * np.exp(w) * (w**eps * math.gamma(-eps) - sums)

    def _lst_fraction_form(self, w):
        # Gamma(a, w) = e^{-w} w^a / (w + 1 - a - 1 (1 - a) / (w + 3 - a - ...))
        # with a = -eps; the prefactors cancel against eps w^eps e^w
        a = -self.eps
        tiny = 1e-300
        out = np.empty_like(w)
        live = np.arange(w.size)  # nodes still iterating
        b = w + 1.0 - a
        c = np.full_like(w, 1.0 / tiny)
        d = 1.0 / b
        h = d
        for i in range(1, _LOMAX_TERMS):
            an = -i * (i - a)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = b + an / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
            done = np.abs(delta - 1.0) <= 1e-15
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not live.size:
                break
        else:
            raise NoConvergence("Lomax transform continued fraction did not converge")
        return self.eps * out

    atom = 0.0

    @property
    def left_singularity(self) -> float:
        # branch point at zero: the transform exists on Re z >= 0 only
        return 0.0

    def tail(self, u: float) -> float:
        require_nonnegative("u", u)
        return (self.c / (self.c + u)) ** self.eps

    def sample(self, rng, size, out=None):
        # c ((1 - U)^(-1/eps) - 1), in place; 1 - U lies in (0, 1]: the
        # inverse survival transform stays finite
        out = rng.random(size, out=out)
        np.subtract(1.0, out, out=out)
        np.power(out, -1.0 / self.eps, out=out)
        out -= 1.0
        out *= self.c
        return out

    def mean(self) -> float:
        if self.eps <= 1:
            raise MomentUndefined("Lomax mean needs eps > 1")
        return self.c / (self.eps - 1.0)

    def second_moment(self) -> float:
        if self.eps <= 2:
            raise MomentUndefined("Lomax second moment needs eps > 2")
        return 2.0 * self.c**2 / ((self.eps - 1.0) * (self.eps - 2.0))

    @property
    def rv_meta(self) -> RVMeta:
        n = math.floor(self.eps)
        theta = math.gamma(1.0 - self.eps) * (-1.0) ** n * self.c**self.eps
        return RVMeta(delta=self.eps, theta=theta, n_delta=n)


@dataclass(frozen=True)
class PointMass(ClaimDistribution):
    b: float
    kind = "point"

    def __post_init__(self):
        require_finite("PointMass", b=self.b)
        if self.b < 0:
            raise ValueError("b must be nonnegative")

    def lst_series(self, alpha: float, order: int) -> Taylor:
        require_nonnegative("alpha", alpha)
        e = math.exp(-alpha * self.b)
        coeffs = []
        term = e
        for i in range(order + 1):
            coeffs.append(term)
            term *= -self.b / (i + 1)
        return Taylor(coeffs)

    def lst(self, alpha: float) -> float:
        if not 0 <= alpha < math.inf:  # inline, as Erlang's
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha!r}")
        return math.exp(-alpha * self.b)

    def lst_complement(self, alpha: float) -> float:
        require_nonnegative("alpha", alpha)
        return -math.expm1(-alpha * self.b)

    def lst_complex(self, z):
        return np.exp(-self.b * z)

    def lst_complement_complex(self, z):
        return -np.expm1(-self.b * z)

    def modulus_bound(self, t):
        # e^{bt} >= 1 + bt, in operations that round alike on floats and
        # arrays
        return 1.0 / (1.0 + self.b * t)

    @property
    def atom(self) -> float:
        return 1.0 if self.b == 0.0 else 0.0

    @property
    def left_singularity(self) -> float:
        return math.inf

    def tail(self, u: float) -> float:
        require_nonnegative("u", u)
        return 1.0 if u < self.b else 0.0

    def sample(self, rng, size, out=None):
        if out is None:
            return np.full(size, self.b)
        out.fill(self.b)
        return out

    def mean(self) -> float:
        return self.b

    def second_moment(self) -> float:
        return self.b**2

    def phase_type(self):
        # only the degenerate mass at zero is phase-type
        return pht.point_mass_zero() if self.b == 0.0 else None
