"""Ladder recursions for the running-maximum transform.

The running maximum up to an exponentially killed horizon decomposes into at
most ``m`` ladder steps, each the positive part of a claim-plus-carryover
minus an independent exponential.  Its transform therefore satisfies a
two-point recursion: level ``k`` references the previous level both at the
evaluation argument and at the fixed ladder rate ``nu_k``,

    F_k(x) = p_k + w_k * nu_k/(nu_k - x)
             * ( C_k(x) F_{k-1}(x) - (x/nu_k) C_k(nu_k) F_{k-1}(nu_k) ),

with a removable singularity at ``x = nu_k``.  The evaluator below runs the
recursion bottom-up over the argument set {alpha} + {nu_k}, memoizing per
level, in O(n^2) transform evaluations.  All values are carried as truncated
Taylor expansions so the singular branches and the moment jets fall out of
the same code path.

Two specializations are provided: the generic recursion over explicit
(nu, C, p0) data, and the model recursion built by :func:`engine`, which
takes each level's type from its own regime.  A positive pure drift gives a
plain ladder level with rate lambda_n / r_n; a flat or nondecreasing regime
switches to a division step without a fixed argument; any other regime
multiplies its ladder level by the killed-maximum series of the regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import KillingRequired, RegimeMismatch
from .model import (
    ModelSpec,
    exponent_series,
    inverse_exponent,
    is_drift_model,
    killed_max_series,
)
from .seriesops import (
    ROOT_DIV_WINDOW,
    SeriesFn,
    Taylor,
    TransformJet,
    _root_div_order,
    div_by_linear_root,
    margin_for_shift,
    series_from_callable,
)

__all__ = [
    "GenericLadderSpec",
    "TransformJet",
    "pi_generic",
    "atom_at_zero",
    "engine",
    "pi_max",
    "ruin_transform",
    "pi_jet",
    "generic_spec_from_drift",
]

# Levels whose ladder rates sit within the root-division window of each
# other share one expansion anchor, and evaluation points inside the window
# of an anchor are computed there and re-centered once.  High-order
# expansions of these functions are only well conditioned at (or tightly
# around) their own removable singularities, so anchors must never chain
# across distinct nearby rates.
_SING_WINDOW = ROOT_DIV_WINDOW


@dataclass(frozen=True)
class _Prop1Level:
    nu: float
    clst: SeriesFn
    p0: float
    w: float
    post: Optional[SeriesFn] = None


@dataclass(frozen=True)
class _SubLevel:
    """Division step for an a.s. nondecreasing regime:
    F_k(x) = (beta + lam_circ * C(x) F_{k-1}(x)) / (lam - phi(x))."""

    beta: float
    lam_circ: float
    lam: float
    clst: SeriesFn
    phi: SeriesFn


class _Recursion:
    """Memoized bottom-up evaluator of the two-point recursion."""

    def __init__(self, base: SeriesFn, levels: Sequence):
        self.base = base
        self.levels = list(levels)
        self._cache: dict = {}
        self._anchor = self._cluster_anchors()

    def _cluster_anchors(self) -> dict:
        """One shared expansion anchor per group of nearby ladder rates."""
        rated = [
            (lv.nu, idx)
            for idx, lv in enumerate(self.levels)
            if isinstance(lv, _Prop1Level)
        ]
        rated.sort()
        anchors = {}
        group = []

        def flush():
            if group:
                rep = group[len(group) // 2][0]
                for _, i in group:
                    anchors[i] = rep

        for nu, idx in rated:
            if group and nu - group[-1][0] > _SING_WINDOW * nu:
                flush()
                group = []
            group.append((nu, idx))
        flush()
        return anchors

    def series(self, level: int, point: float, order: int) -> Taylor:
        # keyed on the exact order: a truncated higher-order expansion can
        # differ from a direct one, and a value must not depend on which
        # requests came before it
        key = (level, point, order)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._compute(level, point, order)
        return hit

    def value(self, point: float) -> float:
        if point < 0:
            raise ValueError("alpha must be nonnegative")
        return self.series(len(self.levels), point, 0).c[0]

    def jet(self, point: float) -> TransformJet:
        return self.series(len(self.levels), point, 2).jet()

    def _compute(self, level: int, point: float, order: int) -> Taylor:
        if level == 0:
            return self.base(point, order)
        lv = self.levels[level - 1]
        if isinstance(lv, _SubLevel):
            prev = self.series(level - 1, point, order)
            num = lv.beta + lv.lam_circ * (lv.clst(point, order) * prev)
            den = lv.lam - lv.phi(point, order)
            return num / den
        anchor = self._anchor[level - 1]
        if abs(point - anchor) <= _SING_WINDOW * abs(anchor):
            # expand at the cluster anchor, clear the root, re-center once;
            # the conservative convergence radius at the anchor is the
            # anchor itself (transform singularities sit left of zero)
            shift = point - anchor
            o2 = order + margin_for_shift(abs(shift) / abs(anchor))
            out = self._bracket_at(level, anchor, o2)
            if lv.post is not None:
                out = out * lv.post(anchor, o2)
            return out.shift(shift).truncate(order)
        out = self._bracket_at(level, point, order)
        if lv.post is not None:
            out = out * lv.post(point, order)
        return out

    def _bracket_at(self, level: int, point: float, order: int) -> Taylor:
        """p0 + w * nu/(nu - x) * (C(x) F(x) - (x/nu) C(nu) F(nu)) as a
        series at ``point``, the removable singularity divided out against
        the numerator's analytic root at ``x = nu``."""
        lv = self.levels[level - 1]
        nu = lv.nu
        margin_scale = min(abs(point), abs(nu)) or abs(nu)
        o_num = _root_div_order(order, nu - point, abs(nu), margin_scale)
        C = lv.clst(point, o_num)
        P = self.series(level - 1, point, o_num)
        cp_nu = lv.clst(nu, 0).c[0] * self.series(level - 1, nu, 0).c[0]
        x = Taylor.identity(point, o_num)
        N = C * P - (cp_nu / nu) * x
        quotient = div_by_linear_root(N, nu - point, abs(nu))
        return (lv.p0 + lv.w * (-nu) * quotient).truncate(order)


def _as_series_fn(obj) -> SeriesFn:
    if hasattr(obj, "lst_series"):
        return obj.lst_series
    if callable(obj):
        return series_from_callable(obj)
    raise TypeError(f"cannot use {obj!r} as a transform handle")


@dataclass(frozen=True)
class GenericLadderSpec:
    """Data of the generic recursion: per level ``k`` (1-based) an
    exponential rate ``nu[k-1]``, a composite transform ``c_lsts[k-1]`` and
    an atom probability ``p0[k-1]``."""

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
        if any(v <= 0 for v in self.nu):
            raise ValueError("ladder rates must be positive")
        if any(not 0.0 <= p <= 1.0 for p in self.p0):
            raise ValueError("atom probabilities must lie in [0, 1]")


def _generic_engine(spec: GenericLadderSpec) -> _Recursion:
    levels = [
        _Prop1Level(
            nu=spec.nu[k],
            clst=_as_series_fn(spec.c_lsts[k]),
            p0=spec.p0[k],
            w=1.0 - spec.p0[k],
        )
        for k in range(spec.n)
    ]
    return _Recursion(lambda point, order: Taylor.constant(1.0, order), levels)


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
    cval = _as_series_fn(spec.c_lsts[k - 1])(nu, 0).c[0]
    prev = _generic_engine(spec).series(k - 1, nu, 0).c[0]
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


def _killed_max(regime, lam: float, psi: Optional[float] = None) -> SeriesFn:
    return lambda point, order: killed_max_series(regime, point, lam, order, psi)


def engine(model: ModelSpec, beta: float, n: int) -> _Recursion:
    """Evaluator of the running-maximum transform started with ``n`` clients
    and killed at rate ``beta`` (beta = 0 gives the infinite horizon and
    needs the drift model).

    One engine serves any number of arguments: its memo is keyed on the
    exact expansion order, so a value never depends on earlier requests.
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
        clst = model.claim_for_state(k).lst_series
        if reg.is_subordinator or (reg.kind == "drift" and reg.r == 0.0):
            # flat or nondecreasing path: the segment maximum sits at the
            # segment end, giving a plain division step
            levels.append(
                _SubLevel(
                    beta=beta,
                    lam_circ=lam_circ,
                    lam=lam,
                    clst=clst,
                    phi=lambda point, order, reg=reg: exponent_series(
                        reg, point, order
                    ),
                )
            )
            continue
        # the ladder rate is psi(lam), the root the killed-maximum series
        # divides out: solve it once per level
        nu = inverse_exponent(reg, lam)
        levels.append(
            _Prop1Level(
                nu=nu,
                clst=clst,
                p0=beta / lam,
                w=lam_circ / lam,
                # a positive pure drift has a zero killed maximum
                post=None if reg.kind == "drift" else _killed_max(reg, lam, nu),
            )
        )
    return _Recursion(_killed_max(model.regimes[0], beta), levels)


def pi_max(model: ModelSpec, beta: float, n: int, alpha: float) -> float:
    """Running-maximum transform at ``alpha`` from a fresh :func:`engine`."""
    return engine(model, beta, n).value(alpha)


def ruin_transform(engine: _Recursion, alpha: float) -> float:
    """Laplace transform in the reserve level of the ruin probability,
    (1 - pi_n(alpha, beta)) / alpha, from an engine built by :func:`engine`."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (1.0 - engine.value(alpha)) / alpha


def pi_jet(model: ModelSpec, beta: float, n: int) -> TransformJet:
    """Order-2 jet of the transform at alpha = 0.

    The jet is (1, -E max, E max^2): the whole recursion runs in truncated
    Taylor arithmetic, the fixed-argument branch contributing constants only.
    """
    return engine(model, beta, n).jet(0.0)
