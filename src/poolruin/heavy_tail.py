"""Regular-variation asymptotics of the ruin probability.

With i.i.d. regularly varying claims of non-integer tail index, the running
maximum inherits the claim tail up to the factor Phi_m(beta), a product-sum
of the thinning probabilities lam_circ_i / lam_i.  That factor telescopes to
theta times the expected number of claims arriving before the kill, so the
large-reserve ruin probability is approximately E M * P(B > u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .claims import ClaimDistribution, RVMeta
from .errors import NonIdenticalClaims
from .model import ModelSpec


def _rv_claim(model: ModelSpec) -> tuple[ClaimDistribution, RVMeta]:
    if model.m == 0:
        raise ValueError("model has no major claims")
    first = model.claims[0]
    if any(c != first for c in model.claims[1:]):
        raise NonIdenticalClaims("regular-variation results need i.i.d. claims")
    meta = first.rv_meta
    if meta is None:
        raise ValueError(f"claim kind {first.kind!r} has no regular-variation tail")
    return first, meta


def _thinning_products(model: ModelSpec, beta: float, n: int) -> list:
    """prod_{i=j..n} lam_circ_i / lam_i for j = 1..n (index j-1)."""
    out = [0.0] * n
    acc = 1.0
    for i in range(n, 0, -1):
        rate = model.lambda_circ[i - 1]
        acc *= rate / (rate + beta)
        out[i - 1] = acc
    return out


def phi_coefficient(model: ModelSpec, beta: float, n: int) -> float:
    """Tail coefficient Phi_n(beta) = theta * sum_{j<=n} prod_{i=j..n}
    lam_circ_i / lam_i of the running-maximum transform expansion."""
    if not 0 <= n <= model.m:
        raise ValueError("n must lie in 0..m")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    _, meta = _rv_claim(model)
    # summed from j = n down, the order in which the products accumulate
    return meta.theta * sum(reversed(_thinning_products(model, beta, n)))


def m_distribution(model: ModelSpec, beta: float) -> np.ndarray:
    """Distribution of the number of claims arriving before the kill."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    m = model.m
    probs = np.empty(m + 1)
    acc = 1.0
    for n in range(m + 1):
        # lam_{m-n} with the convention lam_circ_0 = 0, lam_0 = beta
        lam_next = beta if n == m else model.lambda_circ[m - n - 1] + beta
        probs[n] = acc * beta / lam_next
        if n < m:
            rate = model.lambda_circ[m - n - 1]
            acc *= rate / (rate + beta)
    return probs


def expected_claims(model: ModelSpec, beta: float) -> float:
    """E M = sum_{j=1..m} prod_{i=j..m} lam_circ_i / lam_i; equals m when
    beta = 0 (no killing, every claim arrives)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return float(sum(_thinning_products(model, beta, model.m)))


def rv_tail_approx(model: ModelSpec, beta: float, u: float) -> float:
    """Large-u ruin approximation E M * P(B > u) (exact asymptote up to
    lower-order terms; not a probability near u = 0)."""
    claim, _ = _rv_claim(model)
    return expected_claims(model, beta) * claim.tail(u)


@dataclass(frozen=True)
class RVAsymptote:
    """Assembled asymptote data: transform coefficient, tail prefactor,
    expected claim count, and the approximation handle u -> E M * P(B > u)."""

    phi_m: float
    prefactor: float
    em: float
    p_big: Callable[[float], float]


def rv_asymptote(model: ModelSpec, beta: float) -> RVAsymptote:
    claim, meta = _rv_claim(model)
    phi_m = phi_coefficient(model, beta, model.m)
    em = expected_claims(model, beta)
    prefactor = phi_m * (-1.0) ** meta.n_delta / math.gamma(1.0 - meta.delta)
    return RVAsymptote(
        phi_m=phi_m,
        prefactor=prefactor,
        em=em,
        p_big=lambda u: em * claim.tail(u),
    )
