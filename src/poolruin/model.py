"""Model primitives for the finite-pool risk process.

A model holds ``m`` major clients with state-dependent claim arrival rates,
per-arrival claim laws, and one spectrally-positive Levy regime per state
(the state counts clients that have not claimed yet).  A regime is its
parameters, described through the exponent ``phi(a) = log E exp(-a Z(1))``;
a premium drift enters with positive ``r`` so that ``phi`` is convex,
vanishes at zero and increases without bound unless the path is
nondecreasing.  The parameters alone decide every shape question
(:attr:`LevyRegime.nondecreasing`, :attr:`LevyRegime.pure_drift`).  The exponent
and the killed-maximum factor take arrays of complex arguments as well as
floats; :func:`left_root` gives the factor's singularity on the negative
axis.

Where the roots of lam = phi(z) on the negative axis have a closed form,
the killed-maximum factor is a :class:`ProductForm` over them, with no
removable point (:func:`product_form`): a pure drift, Brownian motion with
drift, and compound Poisson with exponential jumps (Lewis & Mordecki 2008,
"Wiener-Hopf factorization for Levy processes having positive jumps with
rational transforms").  Every other regime keeps the defining formula,
removable at psi(lam).

The ladder rate psi(lam), the right inverse of phi, has a closed form in
the same regimes (:func:`inverse_exponent`): lam / r for a pure drift, the
root of a quadratic for Brownian motion and for Exp jumps without
diffusion, and for Exp jumps with diffusion the one positive root of a
cubic, reached by a float Newton that descends from above.  Newton with
series derivatives remains for the jump laws without a product form.  The
exponent takes 1 - C(a) in a form that does not cancel at small |a|, at
floats and at complex arguments (:func:`laplace_exponent`), so the Newton
residual, the defining formula of the killed-maximum factor and the
factor of a nondecreasing regime keep their digits at small rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .claims import ClaimDistribution, Exponential
from .errors import KillingRequired, NoRoot, RegimeMismatch, require_finite
from .seriesops import WINDOW, Taylor, div_by_linear_root

# Newton on psi stops once a step is this many ulp of the iterate.
_PSI_ULPS = 4


@dataclass(frozen=True)
class LevyRegime:
    """One regime: drift ``r``, Brownian variance ``sigma2``, jumps at
    ``jump_rate`` with law ``jump_law``.  The parameters are the process,
    so two spellings of one process are equal (``drift(0) ==
    subordinator(0)``), and they decide the shape of the path."""

    r: float = 0.0
    sigma2: float = 0.0
    jump_rate: float = 0.0
    jump_law: Optional[ClaimDistribution] = None

    def __post_init__(self):
        require_finite(
            "LevyRegime", r=self.r, sigma2=self.sigma2, jump_rate=self.jump_rate
        )
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be nonnegative")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ValueError("jump_rate > 0 needs a jump law")
        if self.jump_rate == 0:  # no jumps: the law plays no part
            object.__setattr__(self, "jump_law", None)

    @property
    def nondecreasing(self) -> bool:
        """No diffusion and no premium drift: a subordinator, or flat."""
        return self.sigma2 == 0 and self.r <= 0

    @property
    def pure_drift(self) -> bool:
        """No diffusion and no jumps: the path is the line ``-r t``."""
        return self.sigma2 == 0 and self.jump_rate == 0


def drift(r: float) -> LevyRegime:
    return LevyRegime(r=r)


def brownian_drift(r: float, sigma2: float) -> LevyRegime:
    regime = LevyRegime(r=r, sigma2=sigma2)  # the finite checks come first
    if sigma2 <= 0:
        raise ValueError("brownian regime needs sigma2 > 0")
    return regime


def compound_poisson_drift(
    r: float, sigma2: float, jump_rate: float, jump_law: ClaimDistribution
) -> LevyRegime:
    return LevyRegime(r=r, sigma2=sigma2, jump_rate=jump_rate, jump_law=jump_law)


def subordinator(
    r: float = 0.0,
    jump_rate: float = 0.0,
    jump_law: Optional[ClaimDistribution] = None,
) -> LevyRegime:
    """Nondecreasing regime: upward drift ``-r`` (r <= 0) plus positive jumps."""
    regime = LevyRegime(r=r, jump_rate=jump_rate, jump_law=jump_law)
    if r > 0:
        raise ValueError("subordinator regime must be nondecreasing: r <= 0")
    return regime


def laplace_exponent(regime: LevyRegime, alpha):
    """phi(a) = r a + sigma2 a^2 / 2 - rate (1 - C(a)), at a nonnegative
    float, or at a complex number or an array of them.

    The jump part takes 1 - C(a) from the jump law's complement
    (:meth:`~poolruin.claims.ClaimDistribution.lst_complement` at a float,
    ``lst_complement_complex`` at complex arguments), never as the
    difference 1 - C(a), which keeps only the digits of a times the mean
    once |a| is far below the law's scale: a / (mu + a) for Exp(mu);
    a / (mu + a) sum_{i<k} (mu / (mu + a))^i for Erlang(k, mu);
    a delta^T (a I - S)^(-1) 1 for a phase type; -expm1(-b a) for a point
    mass at b.  Lomax keeps the difference (its transform has no
    complement form)."""
    at_complex = isinstance(alpha, (complex, np.ndarray))
    if not at_complex and alpha < 0:
        raise ValueError("alpha must be nonnegative")
    val = regime.r * alpha + 0.5 * regime.sigma2 * alpha * alpha
    if regime.jump_rate > 0:
        law = regime.jump_law
        complement = law.lst_complement_complex if at_complex else law.lst_complement
        val = val - regime.jump_rate * complement(alpha)
    return val


def exponent_series(regime: LevyRegime, alpha: float, order: int) -> Taylor:
    x = Taylor.identity(alpha, order)
    val = regime.r * x + 0.5 * regime.sigma2 * (x * x)
    if regime.jump_rate > 0:
        val = val - regime.jump_rate * (
            1.0 - regime.jump_law.lst_series(alpha, order)
        )
    return val


def exponent_derivative(regime: LevyRegime, alpha: float) -> float:
    return exponent_series(regime, alpha, 1).c[1]


def inverse_exponent(regime: LevyRegime, lam: float) -> float:
    """Largest nonnegative root psi of phi(a) = lam.

    Closed forms for pure drifts and Brownian regimes, and for Exp jumps
    (:func:`_exp_jump_inverse`).  Every other jump law takes a bracketed
    Newton on the convex increasing branch, until a step or the bracket is
    a few ulp of the iterate.  Its residual phi(a) - lam takes the jump
    part from :meth:`~poolruin.claims.ClaimDistribution.lst_complement`
    (:func:`laplace_exponent`), which does not cancel at a far below the
    law's scale, so psi keeps its digits at small lam.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if regime.nondecreasing:
        raise NoRoot("a nondecreasing regime has phi <= 0 < lam: no root")
    if regime.pure_drift:
        return lam / regime.r
    if regime.jump_rate == 0:
        return _brownian_inverse(regime.r, regime.sigma2, lam)
    if isinstance(regime.jump_law, Exponential):
        return _exp_jump_inverse(regime, lam)
    # jumps with r > 0 or sigma2 > 0: phi is convex, vanishes at
    # zero and is unbounded
    hi = 1.0
    while laplace_exponent(regime, hi) <= lam:
        hi *= 2.0
        if hi > 1e300:
            raise NoRoot("exponent stays below lam")
    lo = 0.0
    x = hi
    for _ in range(200):
        f = laplace_exponent(regime, x) - lam
        if f == 0.0:
            return x
        if f > 0:
            hi = x
        else:
            lo = x
        fp = exponent_derivative(regime, x)
        if fp > 0:
            step = f / fp
            x_new = x - step
            # a step of a few ulp ends the search even when it rounds onto
            # the bracket end x itself; bisecting from there would halve
            # the bracket [0, psi] down to the ulp
            if abs(step) <= _PSI_ULPS * math.ulp(x):
                return x_new
            if lo < x_new < hi:
                x = x_new
                continue
        x = 0.5 * (lo + hi)
        if hi - lo <= _PSI_ULPS * math.ulp(x):
            return x
    return x


def _brownian_inverse(r: float, s2: float, lam: float) -> float:
    """The positive root of s2 a^2 / 2 + r a = lam (s2 > 0), in the form
    that does not cancel: for r > 0, (root - r) / s2 loses every digit once
    2 s2 lam << r^2."""
    root = math.sqrt(r * r + 2.0 * s2 * lam)
    return 2.0 * lam / (r + root) if r > 0.0 else (root - r) / s2


def _exp_jump_inverse(regime: LevyRegime, lam: float) -> float:
    """psi for jumps Exp(mu) at rate c, from (lam - phi(a))(mu + a) = 0.

    Without diffusion that is the quadratic r a^2 + b a - lam mu with
    b = r mu - c - lam, whose positive root is taken in the form without
    cancellation for either sign of b.  With diffusion it is the cubic
    (s2/2) a^3 + (s2 mu / 2 + r) a^2 + b a - lam mu, which has one positive
    root; Newton on phi starts above it, at the least of two Brownian roots
    (phi(a) is at least (r - c/mu) a + s2 a^2 / 2 and r a + s2 a^2 / 2 - c),
    and descends on the convex branch.  Either way the last step is Newton
    on the residual a (r + s2 a / 2 - c / (mu + a)) - lam, whose rounding
    error is that of its terms, so psi is within a few ulp of the exact root
    times its condition number (|r| + s2 psi / 2 + c / (mu + psi)) / phi'(psi);
    the closed form alone rounds its square root and its b.
    """
    r, s2, c = regime.r, regime.sigma2, regime.jump_rate
    mu = float(regime.jump_law.mu)
    if s2 == 0.0:  # r > 0: not nondecreasing
        b = r * mu - c - lam
        root = math.sqrt(b * b + 4.0 * r * lam * mu)
        x = 2.0 * lam * mu / (b + root) if b > 0.0 else (root - b) / (2.0 * r)
    else:
        x = min(_brownian_inverse(r - c / mu, s2, lam), _brownian_inverse(r, s2, lam + c))
    for _ in range(100):
        slope = r + s2 * x - c * mu / ((mu + x) * (mu + x))
        step = (x * (r + 0.5 * s2 * x - c / (mu + x)) - lam) / slope
        x -= step
        # from above, every step is a clear descent until the residual is
        # rounding: a step of a few ulp, or one back up, ends the descent
        if step <= _PSI_ULPS * math.ulp(x):
            break
    return x


def left_root(regime: LevyRegime, lam: float) -> float:
    """Distance from zero to the root of phi(a) = lam on the negative axis,
    the singularity of the killed-maximum factor nearest to zero on the
    left (inf when phi stays below lam there, as for a flat path).

    Closed forms without jumps; otherwise bisection to three digits between
    zero and the jump law's own singularity, which is all the contour rule
    needs of it.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    r, s2 = regime.r, regime.sigma2
    if regime.jump_rate == 0.0:
        if s2 > 0.0:
            # the mirror image of the Brownian psi, without cancellation
            root = math.sqrt(r * r + 2.0 * s2 * lam)
            return 2.0 * lam / (root - r) if r < 0.0 else (r + root) / s2
        return -lam / r if r < 0.0 else math.inf
    wall = regime.jump_law.left_singularity
    if wall == 0.0:
        return 0.0

    def above(a: float) -> bool:
        return laplace_exponent(regime, complex(-a)).real > lam

    lo, hi = 0.0, min(1.0, 0.5 * wall)
    while not above(hi):
        lo = hi
        hi = 0.5 * (hi + wall) if math.isfinite(wall) else 2.0 * hi
        if hi > 1e300 or hi - lo <= 1e-12 * hi:
            return hi
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo


class ProductForm(NamedTuple):
    """A killed-maximum factor from its roots,

        K(z) = prod_a (1 + z/a) / prod_b (1 + z/b),

    over the distances ``zeros`` (a) and ``poles`` (b, ascending) from zero
    of its zeros and poles on the negative axis.  Exactly one at the float
    zero, and no removable point: each factor is computed to a few eps
    relative at every z with Re z >= 0, where the ladder evaluates it."""

    zeros: tuple
    poles: tuple

    @property
    def left(self) -> float:
        """Distance from zero to the nearest pole (inf: none)."""
        return self.poles[0] if self.poles else math.inf

    def value(self, z):
        """K at a float or at an array of complex arguments, as the product
        of b / (b + z) over the poles and 1 + z/a over the zeros."""
        if not self.poles:  # no roots: a positive pure drift
            return np.ones_like(z) if isinstance(z, np.ndarray) else 1.0
        first, *rest = self.poles
        out = first / (first + z)
        # a named right operand: a complex temporary on the right of a
        # product rounds differently once numpy elides it (ladder docstring)
        for b in rest:
            factor = b / (b + z)
            out = out * factor
        for a in self.zeros:
            factor = 1.0 + z / a
            out = out * factor
        return out

    def series(self, alpha: float, order: int) -> Taylor:
        """Taylor expansion around ``alpha``: a pole's factor
        b / (b + alpha + h) is the geometric series in -h / (b + alpha), and
        a zero's (a + alpha + h) / a is linear in h."""
        if not self.poles:
            return Taylor.constant(1.0, order)
        terms = [
            Taylor([b * (-1.0) ** i / (b + alpha) ** (i + 1) for i in range(order + 1)])
            for b in self.poles
        ]
        terms += [
            Taylor([(a + alpha) / a, 1.0 / a, *(0.0,) * (order - 1)][: order + 1])
            for a in self.zeros
        ]
        out = terms[0]
        for term in terms[1:]:
            out = out * term
        return out


def product_form(
    regime: LevyRegime, lam: float, psi: Optional[float] = None
) -> Optional[ProductForm]:
    """The killed-maximum factor of a regime that is not nondecreasing, in
    product form where the roots of lam = phi(z) with z < 0 have a closed
    form; None otherwise (jump laws other than the exponential keep the
    defining formula of :func:`killed_max`).  ``psi`` as in
    :func:`killed_max_series`.

    - A positive pure drift: no roots, K = 1.
    - Brownian motion with drift: lam - phi(z) = -(s2/2)(z - psi)(z + rho),
      so K(z) = rho / (rho + z), and Vieta gives rho = 2 lam / (s2 psi)
      (the :func:`left_root`).
    - Compound Poisson with Exp(mu) jumps at rate c: (lam - phi(z))(mu + z)
      is a polynomial with root psi, and K(z) = (1 + z/mu) / prod(1 + z/rho)
      over its other roots -rho.  Without diffusion it is the quadratic
      -r z^2 + (lam - r mu + c) z + lam mu, and Vieta gives
      rho = lam mu / (r psi).  With diffusion the cubic divided by
      (z - psi) has roots -rho_1, -rho_2 with rho_1 + rho_2 =
      mu + psi + 2r/s2 and rho_1 rho_2 = 2 lam mu / (s2 psi), one in
      (0, mu) and one above mu.

    :func:`inverse_exponent` takes psi from the same polynomials, so a
    level of any of these regimes is built without series: no Newton with
    series derivatives and no :func:`exponent_series`.
    """
    if regime.nondecreasing:
        return None
    if regime.pure_drift:
        return ProductForm((), ())
    law = regime.jump_law
    if regime.jump_rate > 0.0 and not isinstance(law, Exponential):
        return None
    if psi is None:
        psi = inverse_exponent(regime, lam)
    s2 = regime.sigma2
    if regime.jump_rate == 0.0:
        return ProductForm((), (2.0 * lam / (s2 * psi),))
    mu, r = float(law.mu), regime.r
    if s2 == 0.0:
        return ProductForm((mu,), (lam * mu / (r * psi),))
    total = mu + psi + 2.0 * r / s2
    prod = 2.0 * lam * mu / (s2 * psi)
    # the roots straddle mu, so the discriminant is positive but for rounding
    big = 0.5 * (total + math.sqrt(max(total * total - 4.0 * prod, 0.0)))
    return ProductForm((mu,), (prod / big, big))


def killed_max(regime: LevyRegime, z, lam: float, psi: Optional[float] = None):
    """Killed-maximum transform at a float or at an array of complex
    arguments: lam / (lam - phi(z)) for a nondecreasing regime, the
    :func:`product_form` where there is one, and otherwise the defining
    formula (psi - z) / (lam - phi(z)) * lam / psi, which loses digits near
    z = psi, where the caller takes contour means instead; ``psi`` as in
    :func:`killed_max_series`.  Exactly one at z = 0, where the formula
    would round (psi / lam) (lam / psi)."""
    if not isinstance(z, np.ndarray) and z == 0.0:
        return 1.0
    if regime.nondecreasing:
        return lam / (lam - laplace_exponent(regime, z))
    form = product_form(regime, lam, psi)
    if form is not None:
        return form.value(z)
    if psi is None:
        psi = inverse_exponent(regime, lam)
    return (psi - z) / (lam - laplace_exponent(regime, z)) * (lam / psi)


def killed_max_series(
    regime: LevyRegime,
    alpha: float,
    lam: float,
    order: int,
    psi: Optional[float] = None,
) -> Taylor:
    """Taylor expansion around ``alpha`` of the transform of the regime
    maximum over an exponentially killed interval.  A nondecreasing regime
    peaks at its endpoint, giving lam / (lam - phi(a)); a regime with a
    :func:`product_form` takes the series of its factors (identically one
    for a positive pure drift, whose killed maximum is zero); any other is

        (psi(lam) - a) / (lam - phi(a)) * lam / psi(lam),

    whose removable singularity at a = psi(lam) is divided out.  ``psi`` is
    the root psi(lam) when the caller already holds it.  For this last
    kind, an ``alpha`` within ``WINDOW`` of psi raises ``ValueError``: the
    ladder takes a contour mean there.
    """
    if regime.nondecreasing:
        return Taylor.constant(lam, order) / (lam - exponent_series(regime, alpha, order))
    form = product_form(regime, lam, psi)
    if form is not None:
        return form.series(alpha, order)
    if psi is None:
        psi = inverse_exponent(regime, lam)
    if abs(psi - alpha) <= WINDOW * psi:
        raise ValueError(
            f"alpha = {alpha!r} lies within the window of the removable point "
            f"psi = {psi!r}"
        )
    # numerator and denominator share the simple zero at psi: divide the
    # root out of the denominator, then the factor is (lam/psi) / G with
    # G = (lam - phi(x)) / (psi - x) bounded away from zero near psi
    g = -div_by_linear_root(lam - exponent_series(regime, alpha, order), psi - alpha)
    return Taylor.constant(lam / psi, order) / g


@dataclass(frozen=True)
class ModelSpec:
    """Full model: client count, arrival rates, claim laws, per-state regimes.

    ``lambda_circ[n-1]`` is the claim arrival rate while ``n`` clients
    remain; ``claims[i]`` is the law of the (i+1)-th *arriving* claim, so the
    next claim when ``n`` remain follows ``claims[m-n]``; ``regimes[n]`` is
    active while ``n`` clients remain.  Equal claim laws are held as one
    object (the first of them), so the caches of a law serve every client
    that has it.
    """

    m: int
    lambda_circ: tuple
    claims: tuple
    regimes: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambda_circ", tuple(self.lambda_circ))
        object.__setattr__(self, "claims", _interned(self.claims))
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a nonnegative integer")
        if len(self.lambda_circ) != self.m:
            raise ValueError("lambda_circ must have one rate per client")
        for i, rate in enumerate(self.lambda_circ):
            if not math.isfinite(rate):
                raise ValueError(
                    f"ModelSpec: lambda_circ[{i}] must be finite, got {rate!r}"
                )
        if any(rate <= 0 for rate in self.lambda_circ):
            raise ValueError("arrival rates must be positive")
        if len(self.claims) != self.m:
            raise ValueError("claims must have one law per client")
        if len(self.regimes) != self.m + 1:
            raise ValueError("regimes must have m + 1 entries (states 0..m)")

    def claim_for_state(self, n: int) -> ClaimDistribution:
        """Law of the next claim while ``n >= 1`` clients remain."""
        if not 1 <= n <= self.m:
            raise ValueError("state must have at least one remaining client")
        return self.claims[self.m - n]

    def rate_for_state(self, n: int) -> float:
        if not 1 <= n <= self.m:
            raise ValueError("state must have at least one remaining client")
        return self.lambda_circ[n - 1]


def _interned(laws) -> tuple:
    """``laws`` with each law replaced by the first one equal to it; an
    unhashable law is kept as it is."""
    first: dict = {}
    out = []
    for law in laws:
        try:
            law = first.setdefault(law, law)
        except TypeError:
            pass
        out.append(law)
    return tuple(out)


def is_drift_model(model: ModelSpec) -> bool:
    """True when every active regime is a positive pure drift (state 0 may
    be flat: its maximum contribution is zero either way)."""
    reg0 = model.regimes[0]
    if not reg0.pure_drift or reg0.r < 0:
        return False
    return all(reg.pure_drift and reg.r > 0 for reg in model.regimes[1:])


def require_drift_model(model: ModelSpec, what: str) -> None:
    """:class:`RegimeMismatch` naming ``what`` unless :func:`is_drift_model`."""
    if not is_drift_model(model):
        raise RegimeMismatch(
            f"{what} needs the drift model: a positive pure drift in every "
            "state with clients and a nonnegative pure drift in state 0"
        )


def require_beta(beta: float) -> None:
    """Refuse a killing rate that is not finite and nonnegative."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")


def require_killing(model: ModelSpec, beta: float, what: str) -> None:
    """The one killing-rate rule: :func:`require_beta`, and beta = 0 (the
    infinite horizon) in the drift model only, else :class:`KillingRequired`."""
    require_beta(beta)
    if beta == 0 and not is_drift_model(model):
        raise KillingRequired(
            f"{what} at beta = 0 (infinite horizon) needs the drift model"
        )
