"""Model primitives for the finite-pool risk process.

A model holds ``m`` major clients with state-dependent claim arrival rates,
per-arrival claim laws, and one spectrally-positive Levy regime per state
(the state counts clients that have not claimed yet).  The regime is
described through the exponent ``phi(a) = log E exp(-a Z(1))``; a premium
drift enters with positive ``r`` so that ``phi`` is convex, vanishes at zero
and increases without bound unless the path is nondecreasing.  Increasing
(subordinator) regimes are flagged explicitly and use a separate transform
for their killed maximum.  The exponent and the killed-maximum factor take
arrays of complex arguments as well as floats; :func:`left_root` gives the
factor's singularity on the negative axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .claims import ClaimDistribution
from .errors import NoRoot, NotSubordinator, SubordinatorRegime
from .seriesops import Taylor, _root_div_order, div_by_linear_root

_PSI_TOL = 1e-12


@dataclass(frozen=True)
class LevyRegime:
    """One regime: drift, Brownian part, compound-Poisson jumps.

    ``kind`` is one of ``drift``, ``brownian``, ``compound_poisson``,
    ``subordinator``; the subordinator flag is always explicit since the
    killed-maximum treatment differs structurally.
    """

    kind: str
    r: float = 0.0
    sigma2: float = 0.0
    jump_rate: float = 0.0
    jump_law: Optional[ClaimDistribution] = None

    def __post_init__(self):
        if self.kind not in ("drift", "brownian", "compound_poisson", "subordinator"):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be nonnegative")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ValueError("jump_rate > 0 needs a jump law")
        if self.kind == "drift" and (self.sigma2 != 0 or self.jump_rate != 0):
            raise ValueError("drift regime cannot carry diffusion or jumps")
        if self.kind == "brownian":
            if self.sigma2 <= 0:
                raise ValueError("brownian regime needs sigma2 > 0")
            if self.jump_rate != 0:
                raise ValueError("brownian regime cannot carry jumps")
        if self.kind == "subordinator":
            if self.r > 0 or self.sigma2 != 0:
                raise ValueError(
                    "subordinator regime must be nondecreasing: r <= 0, no diffusion"
                )

    @property
    def is_subordinator(self) -> bool:
        return self.kind == "subordinator"


def drift(r: float) -> LevyRegime:
    return LevyRegime(kind="drift", r=r)


def brownian_drift(r: float, sigma2: float) -> LevyRegime:
    return LevyRegime(kind="brownian", r=r, sigma2=sigma2)


def compound_poisson_drift(
    r: float, sigma2: float, jump_rate: float, jump_law: ClaimDistribution
) -> LevyRegime:
    return LevyRegime(
        kind="compound_poisson",
        r=r,
        sigma2=sigma2,
        jump_rate=jump_rate,
        jump_law=jump_law,
    )


def subordinator(
    r: float = 0.0,
    jump_rate: float = 0.0,
    jump_law: Optional[ClaimDistribution] = None,
) -> LevyRegime:
    """Nondecreasing regime: upward drift ``-r`` (r <= 0) plus positive jumps."""
    return LevyRegime(kind="subordinator", r=r, jump_rate=jump_rate, jump_law=jump_law)


def laplace_exponent(regime: LevyRegime, alpha):
    """phi(a) = r a + sigma2 a^2 / 2 - rate (1 - jump transform), at a
    nonnegative float or at an array of complex arguments."""
    if isinstance(alpha, np.ndarray):
        jump = regime.jump_law.lst_complex if regime.jump_rate > 0 else None
    elif alpha < 0:
        raise ValueError("alpha must be nonnegative")
    else:
        jump = regime.jump_law.lst if regime.jump_rate > 0 else None
    val = regime.r * alpha + 0.5 * regime.sigma2 * alpha * alpha
    if jump is not None:
        val = val - regime.jump_rate * (1.0 - jump(alpha))
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
    """Largest nonnegative root of phi(a) = lam.

    Closed forms for pure drifts and Brownian regimes; bracketed Newton on
    the convex increasing branch otherwise.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if regime.is_subordinator:
        raise SubordinatorRegime("right inverse is ill-defined for subordinators")
    if regime.kind == "drift":
        if regime.r <= 0:
            raise NoRoot(
                "nonpositive pure drift never reaches a positive level; "
                "flag the regime as a subordinator"
            )
        return lam / regime.r
    if regime.kind == "brownian":
        r, s2 = regime.r, regime.sigma2
        return (-r + math.sqrt(r * r + 2.0 * s2 * lam)) / s2
    # compound Poisson: phi is convex with phi(0) = 0; unbounded iff r > 0
    # or sigma2 > 0
    if regime.sigma2 == 0.0 and regime.r <= 0.0:
        raise NoRoot(
            "compound-Poisson regime without premium drift is nondecreasing; "
            "flag it as a subordinator"
        )
    hi = 1.0
    while laplace_exponent(regime, hi) <= lam:
        hi *= 2.0
        if hi > 1e300:
            raise NoRoot("exponent stays below lam")
    lo = 0.0
    x = hi
    for _ in range(200):
        f = laplace_exponent(regime, x) - lam
        if abs(f) <= _PSI_TOL * max(1.0, lam):
            return x
        if f > 0:
            hi = x
        else:
            lo = x
        fp = exponent_derivative(regime, x)
        if fp > 0:
            x_new = x - f / fp
            if lo < x_new < hi:
                x = x_new
                continue
        x = 0.5 * (lo + hi)
    return x


def left_root(regime: LevyRegime, lam: float) -> float:
    """Distance from zero to the root of phi(a) = lam on the negative axis,
    the singularity of the killed-maximum factor nearest to zero on the
    left (inf when phi stays below lam there, as for a flat path).

    Closed forms without jumps; otherwise bisection to three digits between
    zero and the jump law's own singularity, which is all the contour rule
    needs of it.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    r, s2 = regime.r, regime.sigma2
    if regime.jump_rate == 0.0:
        if s2 > 0.0:
            return (r + math.sqrt(r * r + 2.0 * s2 * lam)) / s2
        return -lam / r if r < 0.0 else math.inf
    law = regime.jump_law
    wall = law.left_singularity
    if wall == 0.0:
        return 0.0

    def above(a: float) -> bool:
        z = np.array([complex(-a)])
        val = -r * a + 0.5 * s2 * a * a - regime.jump_rate * (1.0 - law.lst_complex(z)[0].real)
        return val > lam

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


def killed_max(regime: LevyRegime, z, lam: float, psi: Optional[float] = None):
    """Killed-maximum transform at a float or at an array of complex
    arguments, by its defining formula: lam / (lam - phi(z)) for a
    subordinator, (psi - z) / (lam - phi(z)) * lam / psi otherwise.  Loses
    digits near z = psi, where the caller takes contour means instead;
    ``psi`` as in :func:`wiener_hopf_series`."""
    if regime.is_subordinator:
        return lam / (lam - laplace_exponent(regime, z))
    if psi is None:
        psi = inverse_exponent(regime, lam)
    return (psi - z) / (lam - laplace_exponent(regime, z)) * (lam / psi)


def wiener_hopf_series(
    regime: LevyRegime,
    alpha: float,
    lam: float,
    order: int,
    psi: Optional[float] = None,
) -> Taylor:
    """Taylor expansion around ``alpha`` of the transform of the regime
    maximum over an exponentially killed interval,

        (psi(lam) - a) / (lam - phi(a)) * lam / psi(lam),

    whose removable singularity at a = psi(lam) is divided out.  Identically
    one for nonnegative pure drifts, whose killed maximum is zero.  ``psi``
    is the root psi(lam) when the caller already holds it.
    """
    if regime.is_subordinator:
        raise SubordinatorRegime("use subordinator_max_series")
    if regime.kind == "drift":
        if regime.r < 0:
            raise SubordinatorRegime(
                "negative pure drift must be flagged as a subordinator"
            )
        return Taylor.constant(1.0, order)
    if psi is None:
        psi = inverse_exponent(regime, lam)
    # numerator and denominator share the simple zero at psi: divide the
    # root out of the denominator, then the factor is (lam/psi) / G with
    # G = (lam - phi(x)) / (psi - x) bounded away from zero near psi
    margin_scale = min(abs(alpha), psi) or psi
    den = lam - exponent_series(
        regime, alpha, _root_div_order(order, psi - alpha, psi, margin_scale)
    )
    g = -div_by_linear_root(den, psi - alpha, psi)
    return Taylor.constant(lam / psi, order) / g.truncate(order)


def subordinator_max_series(
    regime: LevyRegime, alpha: float, lam: float, order: int
) -> Taylor:
    """Killed-maximum transform lam / (lam - phi(a)) of a nondecreasing path."""
    if not regime.is_subordinator:
        raise NotSubordinator("regime is not flagged as a subordinator")
    return Taylor.constant(lam, order) / (lam - exponent_series(regime, alpha, order))


def killed_max_series(
    regime: LevyRegime,
    alpha: float,
    lam: float,
    order: int,
    psi: Optional[float] = None,
) -> Taylor:
    """Killed-maximum transform for any regime kind; ``psi`` as in
    :func:`wiener_hopf_series`."""
    if regime.is_subordinator:
        return subordinator_max_series(regime, alpha, lam, order)
    return wiener_hopf_series(regime, alpha, lam, order, psi)


@dataclass(frozen=True)
class ModelSpec:
    """Full model: client count, arrival rates, claim laws, per-state regimes.

    ``lambda_circ[n-1]`` is the claim arrival rate while ``n`` clients
    remain; ``claims[i]`` is the law of the (i+1)-th *arriving* claim, so the
    next claim when ``n`` remain follows ``claims[m-n]``; ``regimes[n]`` is
    active while ``n`` clients remain.
    """

    m: int
    lambda_circ: tuple
    claims: tuple
    regimes: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambda_circ", tuple(self.lambda_circ))
        object.__setattr__(self, "claims", tuple(self.claims))
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a nonnegative integer")
        if len(self.lambda_circ) != self.m:
            raise ValueError("lambda_circ must have one rate per client")
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


def is_drift_model(model: ModelSpec) -> bool:
    """True when every active regime is a positive pure drift (state 0 may
    be flat: its maximum contribution is zero either way)."""
    reg0 = model.regimes[0]
    if reg0.kind != "drift" or reg0.r < 0:
        return False
    return all(
        reg.kind == "drift" and reg.r > 0 for reg in model.regimes[1:]
    )
