"""Claim-size distribution library.

Every claim law exposes its Laplace-Stieltjes transform together with
derivatives of any order (as truncated Taylor expansions; the package's own
routes ask for order two at most, the jets of the moments), the transform
at arrays of complex arguments with the distance ``left_singularity`` from
zero to its nearest singularity on the left, the survival function, exact
sampling, and the first two moments when they exist.  Divided differences
of a transform near their removable point are contour means of the complex
transform (:mod:`poolruin.overshoot`), never high-order expansions.  The
Lomax law additionally carries regular-variation metadata (tail index,
transform coefficient) that drives the heavy-tail asymptotics; exponential,
Erlang and explicit phase-type laws expose a phase-type representation for
the exact running-maximum construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import phase_type as pht
from ._lazy import LazyModule
from .errors import MomentUndefined, NoConvergence
from .seriesops import Taylor, TransformJet, _from_log

integrate = LazyModule("scipy.integrate")  # the Lomax quadrature only

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=400)

# Lomax transform at complex arguments: power series below this |cz|,
# continued fraction above; both stop by this many terms
_LOMAX_SERIES_RADIUS = 1.0
_LOMAX_TERMS = 2000


@dataclass(frozen=True)
class RVMeta:
    """Regular-variation metadata: tail index, transform coefficient, slowly
    varying part (None means the constant function 1)."""

    delta: float
    theta: float
    n_delta: int
    L: Optional[Callable[[float], float]] = None

    def slowly_varying(self, x: float) -> float:
        return 1.0 if self.L is None else self.L(x)


class ClaimDistribution:
    """Base interface; concrete laws override the series and sampling."""

    kind: str = "abstract"

    def lst(self, alpha: float) -> float:
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        return self.lst_series(alpha, 0).c[0]

    def lst_series(self, alpha: float, order: int) -> Taylor:
        raise NotImplementedError

    def lst_jet(self, alpha: float) -> TransformJet:
        return self.lst_series(alpha, 2).jet()

    def lst_complex(self, z: np.ndarray) -> np.ndarray:
        """Transform at an array of complex arguments with Re z > -d, where
        d is :attr:`left_singularity`."""
        raise NotImplementedError

    @property
    def left_singularity(self) -> float:
        """d >= 0 such that the transform is analytic on Re z > -d and
        singular at -d (inf for an entire transform)."""
        raise NotImplementedError

    def tail(self, u: float) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def phase_type(self) -> Optional[pht.PhaseType]:
        """Phase-type representation, or None when the law has none."""
        return None

    @property
    def rv_meta(self) -> Optional[RVMeta]:
        return None


@dataclass(frozen=True)
class Exponential(ClaimDistribution):
    mu: float
    kind = "exp"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    def lst_series(self, alpha: float, order: int) -> Taylor:
        base = self.mu + alpha
        coeffs = []
        for i in range(order + 1):
            try:
                coeffs.append(self.mu * (-1.0) ** i / base ** (i + 1))
            except (OverflowError, ZeroDivisionError):
                log_abs = math.log(self.mu) - (i + 1) * math.log(base)
                coeffs.append(_from_log((-1.0) ** i, log_abs))
        return Taylor(coeffs)

    def lst(self, alpha: float) -> float:
        return self.mu / (self.mu + alpha)

    def lst_complex(self, z):
        return self.mu / (self.mu + z)

    @property
    def left_singularity(self) -> float:
        return self.mu

    def tail(self, u: float) -> float:
        return math.exp(-self.mu * u)

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.mu, size)

    def mean(self) -> float:
        return 1.0 / self.mu

    def second_moment(self) -> float:
        return 2.0 / self.mu**2

    def phase_type(self):
        return pht.PhaseType(delta=np.array([1.0]), S=np.array([[-self.mu]]))


@dataclass(frozen=True)
class Erlang(ClaimDistribution):
    k: int
    mu: float
    kind = "erlang"

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    def lst_series(self, alpha: float, order: int) -> Taylor:
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
        return (self.mu / (self.mu + alpha)) ** self.k

    def lst_complex(self, z):
        return (self.mu / (self.mu + z)) ** self.k

    @property
    def left_singularity(self) -> float:
        return self.mu

    def tail(self, u: float) -> float:
        # P(Gamma(k, mu) > u) = e^{-mu u} sum_{j<k} (mu u)^j / j!
        x = self.mu * u
        term = 1.0
        acc = 1.0
        for j in range(1, self.k):
            term *= x / j
            acc += term
        return math.exp(-x) * acc

    def sample(self, rng, size):
        return rng.gamma(self.k, 1.0 / self.mu, size)

    def mean(self) -> float:
        return self.k / self.mu

    def second_moment(self) -> float:
        return self.k * (self.k + 1) / self.mu**2

    def phase_type(self):
        S = -self.mu * np.eye(self.k) + self.mu * np.eye(self.k, k=1)
        delta = np.zeros(self.k)
        delta[0] = 1.0
        return pht.PhaseType(delta=delta, S=S)


@dataclass(frozen=True)
class PhaseTypeClaim(ClaimDistribution):
    ph: pht.PhaseType
    kind = "ph"

    def lst_series(self, alpha: float, order: int) -> Taylor:
        return pht.ph_lst_series(self.ph, alpha, order)

    def lst(self, alpha: float) -> float:
        return pht.ph_lst(self.ph, alpha)

    def lst_complex(self, z):
        return pht.ph_lst_complex(self.ph, z)

    @property
    def left_singularity(self) -> float:
        return pht.ph_abscissa(self.ph)

    def tail(self, u: float) -> float:
        return pht.ph_tail(self.ph, u)

    def sample(self, rng, size):
        return pht.ph_sample(self.ph, rng, size)

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
    _kernel_cache: dict = field(default_factory=dict, compare=False, repr=False)
    kind = "lomax"

    def __post_init__(self):
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

        val, _ = integrate.quad(integrand, 0.0, np.inf, **_QUAD_OPTS)
        out = val * math.exp(peak) if peak < 709.0 else math.inf
        self._kernel_cache[key] = out
        return out

    def lst_series(self, alpha: float, order: int) -> Taylor:
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
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
        continued fraction (modified Lentz) beyond."""
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
        acc = np.zeros_like(w)
        term = np.ones_like(w)  # (-w)^n / n!
        for n in range(_LOMAX_TERMS):
            step = term / (n - eps)
            acc += step
            if np.all(np.abs(step) <= 1e-17 * np.abs(acc)):
                break
            term = term * (-w) / (n + 1)
        else:
            raise NoConvergence("Lomax transform series did not converge")
        return eps * np.exp(w) * (w**eps * math.gamma(-eps) - acc)

    def _lst_fraction_form(self, w):
        # Gamma(a, w) = e^{-w} w^a / (w + 1 - a - 1 (1 - a) / (w + 3 - a - ...))
        # with a = -eps; the prefactors cancel against eps w^eps e^w
        a = -self.eps
        tiny = 1e-300
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
            if np.all(np.abs(delta - 1.0) <= 1e-15):
                break
        else:
            raise NoConvergence("Lomax transform continued fraction did not converge")
        return self.eps * h

    @property
    def left_singularity(self) -> float:
        # branch point at zero: the transform exists on Re z >= 0 only
        return 0.0

    def tail(self, u: float) -> float:
        return (self.c / (self.c + u)) ** self.eps

    def sample(self, rng, size):
        # 1 - U lies in (0, 1]: the inverse survival transform stays finite
        return self.c * ((1.0 - rng.random(size)) ** (-1.0 / self.eps) - 1.0)

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
        if self.b < 0:
            raise ValueError("b must be nonnegative")

    def lst_series(self, alpha: float, order: int) -> Taylor:
        e = math.exp(-alpha * self.b)
        coeffs = []
        term = e
        for i in range(order + 1):
            coeffs.append(term)
            term *= -self.b / (i + 1)
        return Taylor(coeffs)

    def lst(self, alpha: float) -> float:
        return math.exp(-alpha * self.b)

    def lst_complex(self, z):
        return np.exp(-self.b * z)

    @property
    def left_singularity(self) -> float:
        return math.inf

    def tail(self, u: float) -> float:
        return 1.0 if u < self.b else 0.0

    def sample(self, rng, size):
        return np.full(size, self.b)

    def mean(self) -> float:
        return self.b

    def second_moment(self) -> float:
        return self.b**2

    def phase_type(self):
        # only the degenerate mass at zero is phase-type
        return pht.point_mass_zero() if self.b == 0.0 else None
