"""Overshoot transforms and ladder-height representations.

In the drift model, ruin at an exponentially distributed reserve level is
described by the double transform xi_{n,k}(alpha, beta, gamma): the
overshoot transform in alpha, on the event that the level is exceeded while
``k`` clients remain, with the level itself exponential of rate gamma.  The
level-zero specialization zeta_{n,k} gives the ladder-height transforms,
from which the running-maximum transform can be rebuilt either recursively
or as an explicit sum over descending index chains; both must agree with the
direct ladder recursion, which is the strongest cross-check in the package.

The base transform is one second-order divided difference of the claim
transform,

    xi_{n,n-1}(alpha, beta, gamma) = (lam_circ_n gamma / r_n) B[gamma, alpha, nu_n]
        = (lam_circ_n gamma / r_n) (B[gamma, alpha] - B[alpha, nu_n]) / (gamma - nu_n),

evaluated directly with one real divided difference B[alpha, nu_n], which
also gives zeta_{n,n-1}.  Every removable point (alpha = nu_n in
B[alpha, nu_n], gamma = alpha and gamma = nu_n in the base) is a contour
mean of the same evaluator as the running-maximum ladder (see
:mod:`poolruin.ladder`), and deeper levels follow the same two-point
recursion in gamma.  The overshoot route stays a separate formula, so it
remains an independent check of the ladder.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .claims import ClaimDistribution
from .errors import ChainBudgetExceeded, KillingRequired, RegimeMismatch
from .ladder import _LadderLevel, _Recursion
from .model import ModelSpec, is_drift_model

__all__ = [
    "OvershootTable",
    "xi",
    "zeta",
    "pi_via_ladders",
    "pi_explicit_chains",
    "ruin_prob_at_zero",
]

_DEFAULT_CHAIN_BUDGET = 4096


class _Slope:
    """Divided difference B[z, c] = (C(z) - C(c)) / (z - c) of a claim
    transform, removable at z = c."""

    def __init__(self, claim: ClaimDistribution, c: float):
        self.claim = claim
        self.c = c
        self.removable = (c,)
        self.left = claim.left_singularity
        self._at_c = claim.lst(c)

    def real(self, x):
        return (self.claim.lst(x) - self._at_c) / (x - self.c)

    def nodes(self, z):
        val = self.claim.lst_complex(z)
        amp = (np.abs(val) + abs(self._at_c)) / np.abs(z - self.c)
        return (val - self._at_c) / (z - self.c), amp


class _OvershootBase:
    """Base of the xi recursion in gamma = z,

        xi_{n,n-1}(z) = (lam_circ/r) z (B[z, alpha] - B[alpha, nu]) / (z - nu),

    removable at z = alpha and z = nu, given ``dd`` = B[alpha, nu]."""

    def __init__(
        self, claim: ClaimDistribution, alpha: float, nu: float, scale: float, dd: float
    ):
        self.claim = claim
        self.alpha = alpha
        self.nu = nu
        self.scale = scale
        self.removable = (alpha, nu)
        self.left = claim.left_singularity
        self._b_alpha = claim.lst(alpha)
        self._dd = dd

    def real(self, x):
        inner = (self.claim.lst(x) - self._b_alpha) / (x - self.alpha)
        return self.scale * x * (inner - self._dd) / (x - self.nu)

    def nodes(self, z):
        inner = (self.claim.lst_complex(z) - self._b_alpha) / (z - self.alpha)
        outer = self.scale * z / (z - self.nu)
        amp = np.abs(outer) * (2.0 / np.abs(z - self.alpha) + abs(self._dd))
        return outer * (inner - self._dd), amp


class OvershootTable:
    """Caching evaluator of xi and zeta for one (model, beta).

    beta = 0 evaluates the infinite-horizon quantities by direct
    substitution lam_n = lam_circ_n.
    """

    def __init__(self, model: ModelSpec, beta: float):
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        if not is_drift_model(model):
            raise RegimeMismatch("overshoot analysis requires the drift model")
        self.model = model
        self.beta = beta
        m = model.m
        self._lam = [model.lambda_circ[n - 1] + beta for n in range(1, m + 1)]
        self._nu = [
            self._lam[n - 1] / model.regimes[n].r for n in range(1, m + 1)
        ]
        self._claim = [model.claim_for_state(n) for n in range(1, m + 1)]
        self._slopes: dict = {}
        self._engines: dict = {}
        self._zeta_cache: dict = {}

    def lam(self, n: int) -> float:
        return self._lam[n - 1]

    def nu(self, n: int) -> float:
        return self._nu[n - 1]

    def _slope(self, n: int) -> _Recursion:
        """Evaluator of B[., nu_n] for the claim law of state ``n``."""
        slope = self._slopes.get(n)
        if slope is None:
            slope = self._slopes[n] = _Recursion(
                _Slope(self._claim[n - 1], self.nu(n)), ()
            )
        return slope

    def _xi_engine(self, k: int, alpha: float) -> _Recursion:
        """Recursion in gamma for xi_{., k}(alpha, beta, .); level j of the
        engine holds xi_{k+1+j, k}."""
        key = (k, alpha)
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        n0 = k + 1
        base = _OvershootBase(
            claim=self._claim[n0 - 1],
            alpha=alpha,
            nu=self.nu(n0),
            scale=self.model.rate_for_state(n0) / self.model.regimes[n0].r,
            dd=self._slope(n0).value(alpha),
        )
        levels = [
            _LadderLevel(
                nu=self.nu(j),
                claim=self._claim[j - 1],
                p0=0.0,
                w=self.model.rate_for_state(j) / self.lam(j),
            )
            for j in range(k + 2, self.model.m + 1)
        ]
        engine = _Recursion(base, levels)
        self._engines[key] = engine
        return engine

    def xi(self, n: int, k: int, alpha: float, gamma: float) -> float:
        if not 1 <= n <= self.model.m:
            raise ValueError("n must lie in 1..m")
        if not 0 <= k <= n - 1:
            raise ValueError("k must lie in 0..n-1")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return self._xi_engine(k, alpha).level_value(n - k - 1, float(gamma))

    def zeta(self, n: int, k: int, alpha: float) -> float:
        if not 1 <= n <= self.model.m:
            raise ValueError("n must lie in 1..m")
        if not 0 <= k <= n - 1:
            raise ValueError("k must lie in 0..n-1")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        key = (n, k, alpha)
        hit = self._zeta_cache.get(key)
        if hit is not None:
            return hit
        lam_circ = self.model.rate_for_state(n)
        nu_n = self.nu(n)
        if k == n - 1:
            # (lam_circ / r) (B(nu) - B(alpha)) / (alpha - nu); confluent at
            # alpha = nu where the value is -(lam_circ / r) B'(nu)
            r = self.model.regimes[n].r
            val = -(lam_circ / r) * self._slope(n).value(alpha)
        else:
            val = (
                (lam_circ / self.lam(n))
                * self._claim[n - 1].lst(nu_n)
                * self.xi(n - 1, k, alpha, nu_n)
            )
        self._zeta_cache[key] = val
        return val

    def survive_zero(self, n: int) -> float:
        """P_n(level 0 is never exceeded before the kill)."""
        if n == 0:
            return 1.0
        return 1.0 - sum(self.zeta(n, k, 0.0) for k in range(n))

    def pi_via_ladders(self, alpha: float) -> float:
        pis = [1.0]
        for j in range(1, self.model.m + 1):
            val = self.survive_zero(j)
            for k in range(j):
                val += self.zeta(j, k, alpha) * pis[k]
            pis.append(val)
        return pis[self.model.m]

    def pi_explicit_chains(
        self, alpha: float, budget: int = _DEFAULT_CHAIN_BUDGET
    ) -> float:
        m = self.model.m
        if 2**m > budget:
            raise ChainBudgetExceeded(
                f"2^{m} descending chains exceed the budget of {budget}"
            )
        if m == 0:
            return 1.0
        total = 0.0
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                chain = [m] + sorted(combo, reverse=True)
                prod = 1.0
                for a, b in zip(chain, chain[1:]):
                    prod *= self.zeta(a, b, alpha)
                last = chain[-1]
                if last == 0:
                    total += prod
                else:
                    total += prod * self.survive_zero(last)
        return total


def xi(
    model: ModelSpec, n: int, k: int, alpha: float, beta: float, gamma: float
) -> float:
    """Overshoot transform over an exponential level of rate gamma, on the
    event that the level is exceeded while k clients remain."""
    if beta <= 0:
        raise KillingRequired("xi is defined for beta > 0")
    return OvershootTable(model, beta).xi(n, k, alpha, gamma)


def zeta(model: ModelSpec, n: int, k: int, alpha: float, beta: float) -> float:
    """Ladder-height transform: overshoot over level zero, joint with the
    client count k at the exceedance."""
    if beta <= 0:
        raise KillingRequired("zeta is defined for beta > 0")
    return OvershootTable(model, beta).zeta(n, k, alpha)


def pi_via_ladders(model: ModelSpec, beta: float, alpha: float) -> float:
    """Running-maximum transform rebuilt recursively from ladder heights."""
    if beta <= 0:
        raise KillingRequired("the ladder representation needs beta > 0")
    return OvershootTable(model, beta).pi_via_ladders(alpha)


def pi_explicit_chains(
    model: ModelSpec,
    beta: float,
    alpha: float,
    budget: int = _DEFAULT_CHAIN_BUDGET,
) -> float:
    """Running-maximum transform as the explicit sum over descending chains
    of ladder indices (2^m terms)."""
    if beta <= 0:
        raise KillingRequired("the chain representation needs beta > 0")
    return OvershootTable(model, beta).pi_explicit_chains(alpha, budget)


def ruin_prob_at_zero(model: ModelSpec) -> float:
    """Probability that the net claim process ever becomes positive, from
    the infinite-horizon ladder heights (beta = 0 by direct substitution)."""
    table = OvershootTable(model, 0.0)
    return sum(table.zeta(model.m, k, 0.0) for k in range(model.m))
