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

    xi_{n,n-1}(alpha, beta, gamma) = (lam_circ_n gamma / r_n) B[gamma, alpha, nu_n],

and zeta_{n,n-1} is the first-order one, B[alpha, nu_n].  Where the claim
law has them in its own form
(:meth:`~poolruin.claims.ClaimDistribution.divided_difference`: for
exponential and Erlang laws, sums of positive terms on the real axis),
they are evaluated directly, with no removable point.  Other laws take the
quotients

    B[alpha, nu_n] = (B(alpha) - B(nu_n)) / (alpha - nu_n),
    B[gamma, alpha, nu_n] = (B[gamma, alpha] - B[alpha, nu_n]) / (gamma - nu_n),

whose removable points (alpha = nu_n, gamma = alpha and gamma = nu_n) are
contour means of the same evaluator as the running-maximum ladder (see
:mod:`poolruin.ladder`).  Deeper levels follow the same two-point
recursion in gamma, removable at the level rates nu_j.  The overshoot
route stays a separate formula, so it remains an independent check of
the ladder.  Its recursions keep a contour mean at every windowed point
(they are built without ``direct``), where the ladder's small engines take
the direct formula once its rounding bound certifies it, so the two
routes treat the windows differently too.

Only the base of an xi recursion depends on alpha and k: its levels,
xi_{k+2,k} up to xi_{m,k}, are levels 2..m of the model whatever alpha and
k are.  So one set of those levels is kept per (model, beta), and the
recursion of each (k, alpha) runs on its suffix from level k + 2.  They
are the ladder's level records (:func:`poolruin.ladder._levels`) with
p0 = 0.  The shared levels memoize what a contour needs of them and that
does not depend on the base (:class:`poolruin.ladder._LevelMemo`): each
level's step of the a priori bound on each circle, and its factors at the
nodes of each certified ring.  A zeta matrix then costs, per alpha and k,
each circle's candidate radii and truncation terms, the base's bound and
node values, the recurrences over the levels, the anchors and the means.
Every kept value comes from the same operations on the same operands as
on a recursion of its own, so the sharing moves no value.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from .claims import ClaimDistribution
from .errors import ChainBudgetExceeded, require_nonnegative
from .ladder import _gap, _kept, _levels, _LevelMemo, _Recursion
from .model import ModelSpec, require_drift_model, require_killing

__all__ = [
    "OvershootTable",
    "xi",
    "zeta",
    "pi_via_ladders",
    "pi_explicit_chains",
    "ruin_prob_at_zero",
]

# Most descending chains pi_explicit_chains sums: 2^m of them, so m <= 12.
_CHAIN_BUDGET = 4096

_CHAINS: dict = {}  # m -> _chains(m)


def _chains(m: int) -> tuple:
    """The descending chains m > i_1 > ... > i_s >= 0 of ladder indices, by
    size and then in lexicographic order of the ascending indices, each as
    its links (row a - 1 and column b of the zeta matrix per step a -> b)
    and its last index; enumerated once per m."""
    chains = _CHAINS.get(m)
    if chains is None:
        out = []
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                chain = [m] + sorted(combo, reverse=True)
                links = tuple((a - 1, b) for a, b in zip(chain, chain[1:]))
                out.append((links, chain[-1]))
        chains = _CHAINS[m] = tuple(out)
    return chains


class _Slope:
    """Divided difference B[z, c] = (C(z) - C(c)) / (z - c) of a claim
    transform without a form of its own, removable at z = c."""

    def __init__(self, claim: ClaimDistribution, c: float):
        self.claim = claim
        self.c = c
        self.removable = (c,)
        self.left = claim.left_singularity
        self._at_c = claim.lst(c)

    def real(self, x):
        return (self.claim.lst(x) - self._at_c) / (x - self.c)

    def nodes(self, z, track=True):
        """B at the nodes with its rounding amplification (None unless
        ``track``)."""
        val = self.claim.lst_complex(z)
        amp = None
        if track:
            amp = (np.abs(val) + abs(self._at_c)) / np.abs(z - self.c)
        return (val - self._at_c) / (z - self.c), amp

    def amp_bound(self, x, r):
        """Bound of the nodes' amplification over the circles |z - x| = r
        (arrays; see :meth:`poolruin.ladder._Recursion._amp_bounds`)."""
        return (self.claim.modulus_bound(x - r) + abs(self._at_c)) / _gap(self.c, x, r)


class _OvershootBase:
    """Base of the xi recursion in gamma = z for a claim law without a
    divided difference of its own,

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
        self._points = np.array([nu, alpha])[:, None, None]
        self.left = claim.left_singularity
        self._b_alpha = claim.lst(alpha)
        self._dd = dd

    def real(self, x):
        inner = (self.claim.lst(x) - self._b_alpha) / (x - self.alpha)
        return self.scale * x * (inner - self._dd) / (x - self.nu)

    def nodes(self, z, track=True):
        """The base at the nodes with its rounding amplification (None
        unless ``track``)."""
        # a named right operand for the product (see :mod:`poolruin.ladder`)
        inner = (self.claim.lst_complex(z) - self._b_alpha) / (z - self.alpha) - self._dd
        outer = self.scale * z / (z - self.nu)
        amp = None
        if track:
            amp = np.abs(outer) * (2.0 / np.abs(z - self.alpha) + abs(self._dd))
        return outer * inner, amp

    def amp_bound(self, x, r):
        """Bound of the nodes' amplification over the circles |z - x| = r
        (arrays): |z| <= x + r (see
        :meth:`poolruin.ladder._Recursion._amp_bounds`)."""
        to_nu, to_alpha = _gap(self._points, x, r)
        outer = abs(self.scale) * (x + r) / to_nu
        return outer * (2.0 / to_alpha + abs(self._dd))


class _OvershootForm:
    """Base of the xi recursion in gamma = z,

        xi_{n,n-1}(z) = (lam_circ/r) z B[z, alpha, nu],

    from the claim law's own second divided difference ``dd``
    (:meth:`~poolruin.claims.ClaimDistribution.divided_difference`): no
    removable point."""

    removable = ()

    def __init__(self, dd, scale: float, left: float):
        self.dd = dd
        self.scale = scale
        self.left = left

    def real(self, x):
        return self.scale * x * self.dd(x)

    def nodes(self, z, track=True):
        """The base at the nodes with its rounding amplification (None
        unless ``track``): the divided difference's bound at Re z, whose
        margin covers the product, times |scale z|."""
        outer = self.scale * z
        # a named right operand for the product (see :mod:`poolruin.ladder`)
        dd = self.dd(z)
        amp = np.abs(outer) * self.dd.bound(z.real) if track else None
        return outer * dd, amp

    def amp_bound(self, x, r):
        """Bound of the nodes' amplification over the circles |z - x| = r
        (arrays): |z| <= x + r, and the divided difference's bound at
        x - r (see :meth:`poolruin.ladder._Recursion._amp_bounds`)."""
        return abs(self.scale) * (x + r) * self.dd.bound(x - r)


class _Kept:
    """What the overshoot routes keep for one (model, beta), shared by every
    table of the thread's kept pair (:func:`poolruin.ladder._kept`): the
    levels 2..m of every xi recursion, which are the ladder's level records
    with p0 = 0 and a memo of rings and a priori walks each; the divided
    differences B[., nu_n] by client, the zeta matrix by alpha, the
    survival probabilities at level zero, and the xi engines of
    :meth:`OvershootTable.xi` by (k, alpha).  The routes read zetas only, so
    their xi engines are not kept.  All of it lives as long as the pair is
    the thread's most recent one: a request for another model object or
    another beta drops it."""

    def __init__(self, records: tuple):
        self.levels = [replace(lv, p0=0.0, memo=_LevelMemo()) for lv in records[1:]]
        self.slopes: dict = {}
        self.zetas: dict = {}
        self.survive = None
        self.xi_engines: dict = {}


class OvershootTable:
    """Evaluator of xi and zeta for one (model, beta).

    Each zeta is computed once per alpha, with the whole zeta matrix of
    that alpha, from one transient xi engine per k, built on the suffix of
    one level set shared by every engine and every alpha (see the module
    docstring); the level set, the matrices, the survival probabilities at
    level zero and the divided differences are kept with the thread's most
    recent (model object, beta), so every table built for that pair, and
    the module functions, share them.  Only :meth:`xi` keeps engines, since
    it takes an arbitrary gamma.

    beta = 0 evaluates the infinite-horizon quantities by direct
    substitution lam_n = lam_circ_n.
    """

    def __init__(self, model: ModelSpec, beta: float):
        require_killing(model, beta, "overshoot analysis")
        require_drift_model(model, "overshoot analysis")
        self.model = model
        self.beta = beta
        self._records = _levels(model, beta)
        self._kept = _kept(model, beta, "overshoot", lambda: _Kept(self._records))

    def nu(self, n: int) -> float:
        return self._records[n - 1].nu

    def _slope(self, n: int):
        """B[., nu_n] for the claim law of state ``n``: its own divided
        difference where it has one, and otherwise the evaluator of the
        quotient, with contour means around nu_n."""
        slopes = self._kept.slopes
        slope = slopes.get(n)
        if slope is None:
            lv = self._records[n - 1]
            slope = lv.claim.divided_difference(lv.nu)
            if slope is None:
                slope = _Recursion(_Slope(lv.claim, lv.nu), ()).value
            slopes[n] = slope
        return slope

    def _xi_engine(self, k: int, alpha: float) -> _Recursion:
        """Recursion in gamma for xi_{., k}(alpha, beta, .); level j of the
        engine holds xi_{k+1+j, k}, on the kept level of state k + 1 + j.

        The engine's anchors are filled when it is built, in one sweep of
        its levels: anchor j is C(nu_n) xi_{n-1, k}(alpha, beta, nu_n) with
        n = k + 1 + j, which is zeta(n, k, alpha) up to the factor
        lam_n / lam_circ_n.
        """
        n0 = k + 1
        claim, nu = self._records[n0 - 1].claim, self._records[n0 - 1].nu
        scale = self.model.rate_for_state(n0) / self.model.regimes[n0].r
        dd = claim.divided_difference(alpha, nu)
        if dd is None:
            base = _OvershootBase(claim, alpha, nu, scale, self._slope(n0)(alpha))
        else:
            base = _OvershootForm(dd, scale, claim.left_singularity)
        engine = _Recursion(base, self._kept.levels[k:])
        engine._fill_anchors(len(engine.levels))
        return engine

    def _zetas(self, alpha: float) -> list:
        """The zeta matrix at ``alpha``: row n - 1 holds zeta(n, k, alpha)
        for k = 0..n-1.  Filled whole, from one xi engine per k, and kept
        only once every entry is computed."""
        require_nonnegative("alpha", alpha)
        rows = self._kept.zetas.get(alpha)
        if rows is not None:
            return rows
        m = self.model.m
        rows = [[0.0] * n for n in range(1, m + 1)]
        for n in range(1, m + 1):
            # (lam_circ / r) (B(nu) - B(alpha)) / (alpha - nu); confluent at
            # alpha = nu where the value is -(lam_circ / r) B'(nu)
            lam_circ, r = self.model.rate_for_state(n), self.model.regimes[n].r
            rows[n - 1][n - 1] = -(lam_circ / r) * self._slope(n)(alpha)
        for k in range(m - 1):
            engine = self._xi_engine(k, alpha)
            for n in range(k + 2, m + 1):
                # xi_{n-1, k}(alpha, beta, nu_n) sits at level n - k - 2
                lv = self._records[n - 1]
                rows[n - 1][k] = lv.w * lv.claim.lst(lv.nu) * engine.level_value(n - k - 2, lv.nu)
        self._kept.zetas[alpha] = rows
        return rows

    def xi(self, n: int, k: int, alpha: float, gamma: float) -> float:
        if not 1 <= n <= self.model.m:
            raise ValueError("n must lie in 1..m")
        if not 0 <= k <= n - 1:
            raise ValueError("k must lie in 0..n-1")
        require_nonnegative("alpha", alpha)
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        engines = self._kept.xi_engines
        engine = engines.get((k, alpha))
        if engine is None:
            engine = engines[(k, alpha)] = self._xi_engine(k, alpha)
        return engine.level_value(n - k - 1, float(gamma))

    def zeta(self, n: int, k: int, alpha: float) -> float:
        if not 1 <= n <= self.model.m:
            raise ValueError("n must lie in 1..m")
        if not 0 <= k <= n - 1:
            raise ValueError("k must lie in 0..n-1")
        return self._zetas(alpha)[n - 1][k]

    def survive_zero(self, n: int) -> float:
        """P_n(level 0 is never exceeded before the kill)."""
        if not 0 <= n <= self.model.m:
            raise ValueError("n must lie in 0..m")
        kept = self._kept
        if kept.survive is None:
            kept.survive = [1.0] + [1.0 - sum(row) for row in self._zetas(0.0)]
        return kept.survive[n]

    def pi_via_ladders(self, alpha: float) -> float:
        zetas = self._zetas(alpha)
        pis = [1.0]
        for j in range(1, self.model.m + 1):
            val = self.survive_zero(j)
            row = zetas[j - 1]
            for k in range(j):
                val += row[k] * pis[k]
            pis.append(val)
        return pis[self.model.m]

    def pi_explicit_chains(self, alpha: float) -> float:
        m = self.model.m
        if 2**m > _CHAIN_BUDGET:
            raise ChainBudgetExceeded(
                f"2^{m} descending chains exceed the budget of {_CHAIN_BUDGET}"
            )
        zetas = self._zetas(alpha)
        # survive[0] = 1: a chain that ends at zero adds its product, exactly
        survive = [self.survive_zero(n) for n in range(m + 1)]
        total = 0.0
        for links, last in _chains(m):
            prod = 1.0
            for a, b in links:
                prod *= zetas[a][b]
            total += prod * survive[last]
        return total


def xi(
    model: ModelSpec, n: int, k: int, alpha: float, beta: float, gamma: float
) -> float:
    """Overshoot transform over an exponential level of rate gamma, on the
    event that the level is exceeded while k clients remain (beta >= 0)."""
    return OvershootTable(model, beta).xi(n, k, alpha, gamma)


def zeta(model: ModelSpec, n: int, k: int, alpha: float, beta: float) -> float:
    """Ladder-height transform: overshoot over level zero, joint with the
    client count k at the exceedance (beta >= 0)."""
    return OvershootTable(model, beta).zeta(n, k, alpha)


def pi_via_ladders(model: ModelSpec, beta: float, alpha: float) -> float:
    """Running-maximum transform rebuilt from ladder heights (beta >= 0)."""
    return OvershootTable(model, beta).pi_via_ladders(alpha)


def pi_explicit_chains(model: ModelSpec, beta: float, alpha: float) -> float:
    """Running-maximum transform as the explicit sum over descending chains
    of ladder indices (2^m terms; beta >= 0)."""
    return OvershootTable(model, beta).pi_explicit_chains(alpha)


def ruin_prob_at_zero(model: ModelSpec) -> float:
    """Probability that the net claim process ever becomes positive, from
    the infinite-horizon ladder heights (beta = 0 by direct substitution)."""
    table = OvershootTable(model, 0.0)
    return sum(table.zeta(model.m, k, 0.0) for k in range(model.m))
