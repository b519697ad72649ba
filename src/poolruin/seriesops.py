"""Truncated Taylor arithmetic and confluent divided differences.

The transform recursions in this package repeatedly evaluate expressions of
the form ``nu/(nu - alpha) * (C(alpha) F(alpha) - (alpha/nu) C(nu) F(nu))``
whose numerator vanishes together with the denominator at ``alpha = nu``.
All of these removable singularities are resolved analytically by expanding
the ingredients as truncated Taylor series around the critical point and
cancelling the vanishing factor exactly.  The same machinery doubles as the
order-2 jet propagation used to extract moments from a transform.

A :class:`Taylor` value stores coefficients ``c[i] = f^(i)(a) / i!`` around
an expansion point that the caller tracks; binary operations assume both
operands are expanded around the same point and truncate to the shorter
operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Node pairs of a second divided difference closer than this (relative)
# collapse onto their midpoint with an even-order correction; differencing
# the two first-order slices would cancel eps/distance.
DD_NODE_RTOL = 1e-4

# Relative distance below which a removable root is divided out top-down
# (truncation-limited, needs margin orders) rather than bottom-up (round-off
# limited by the constant term's cancellation, eps / rel); evaluation points
# this close to a ladder rate are also computed at a shared anchor.
ROOT_DIV_WINDOW = 0.35


def margin_for_shift(rel: float) -> int:
    """Extra series orders so that re-centering by a relative distance
    ``rel`` (against a convergence radius at least the anchor scale) leaves
    a truncation error below ~1e-14."""
    if rel <= 1e-5:
        return 3
    return min(40, 1 + math.ceil(14.0 / -math.log10(min(rel, 0.4))))


@dataclass(frozen=True)
class TransformJet:
    """Value of a transform with its first two derivatives in the argument."""

    v: float
    d1: float
    d2: float


class Taylor:
    """Truncated Taylor expansion around an implicit expansion point."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(float(x) for x in coeffs)
        if not self.c:
            raise ValueError("Taylor series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @staticmethod
    def constant(value: float, order: int) -> "Taylor":
        return Taylor((float(value),) + (0.0,) * order)

    @staticmethod
    def identity(point: float, order: int) -> "Taylor":
        """Series of f(x) = x around ``point``."""
        if order == 0:
            return Taylor((float(point),))
        return Taylor((float(point), 1.0) + (0.0,) * (order - 1))

    def truncate(self, order: int) -> "Taylor":
        if order >= self.order:
            return self
        return Taylor(self.c[: order + 1])

    def __add__(self, other):
        if isinstance(other, Taylor):
            n = min(len(self.c), len(other.c))
            return Taylor(tuple(self.c[i] + other.c[i] for i in range(n)))
        return Taylor((self.c[0] + other,) + self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Taylor(tuple(-x for x in self.c))

    def __sub__(self, other):
        if isinstance(other, Taylor):
            n = min(len(self.c), len(other.c))
            return Taylor(tuple(self.c[i] - other.c[i] for i in range(n)))
        return Taylor((self.c[0] - other,) + self.c[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Taylor):
            n = min(len(self.c), len(other.c))
            out = [0.0] * n
            for i in range(n):
                ci = self.c[i]
                if ci == 0.0:
                    continue
                for j in range(n - i):
                    out[i + j] += ci * other.c[j]
            return Taylor(out)
        return Taylor(tuple(x * other for x in self.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Taylor):
            return Taylor(tuple(x / other for x in self.c))
        n = min(len(self.c), len(other.c))
        b0 = other.c[0]
        if b0 == 0.0:
            raise ZeroDivisionError(
                "series division by a series with vanishing constant term"
            )
        out = [0.0] * n
        for k in range(n):
            acc = self.c[k]
            for j in range(1, k + 1):
                acc -= other.c[j] * out[k - j]
            out[k] = acc / b0
        return Taylor(out)

    def shift(self, h: float) -> "Taylor":
        """Re-center the (truncated) expansion from ``a`` to ``a + h``.

        Exact polynomial re-centering; the discarded true remainder is the
        only error, which is why singular branches carry extra orders.
        """
        if h == 0.0:
            return self
        n = len(self.c)
        out = [0.0] * n
        for i, ci in enumerate(self.c):
            if ci == 0.0:
                continue
            for j in range(i + 1):
                out[j] += ci * math.comb(i, j) * h ** (i - j)
        return Taylor(out)

    def eval(self, h: float) -> float:
        """Evaluate at expansion point + ``h`` (Horner)."""
        acc = 0.0
        for ci in reversed(self.c):
            acc = acc * h + ci
        return acc

    def jet(self) -> TransformJet:
        c1 = self.c[1] if len(self.c) > 1 else 0.0
        c2 = self.c[2] if len(self.c) > 2 else 0.0
        return TransformJet(self.c[0], c1, 2.0 * c2)

    def __repr__(self):
        return f"Taylor({list(self.c)!r})"


# A series provider: (expansion point, order) -> Taylor of that order.
SeriesFn = Callable[[float, int], Taylor]


def series_from_callable(fn: Callable[[float], float], h: float = 1e-5) -> SeriesFn:
    """Adapt a plain value-callable into a series provider.

    Derivatives come from central differences, so only orders up to 2 are
    supported and accuracy is limited; transform objects with analytic
    series should be preferred whenever a singular branch can trigger.
    """

    def series(point: float, order: int) -> Taylor:
        if order == 0:
            return Taylor((fn(point),))
        if order > 2:
            raise ValueError(
                "finite-difference series adapter supports order <= 2; "
                "supply an object with analytic series instead"
            )
        step = h * max(1.0, abs(point))
        fm, f0, fp = fn(point - step), fn(point), fn(point + step)
        d1 = (fp - fm) / (2.0 * step)
        d2 = (fp - 2.0 * f0 + fm) / (step * step)
        return Taylor((f0, d1, d2 / 2.0)).truncate(order)

    return series


def root_div_topdown(y0: float, scale: float) -> bool:
    """Direction of the root division; top-down needs extra numerator
    orders (see :func:`_root_div_order`), which callers must provide."""
    return abs(y0) <= ROOT_DIV_WINDOW * scale


def div_by_linear_root(num: Taylor, y0: float, scale: float = 1.0) -> Taylor:
    """Divide a series by ``(y - y0)`` given that ``y0`` is an analytic root.

    This is the one numerically safe way to clear the removable
    singularities of the transform recursions.  The quotient recursion runs
    top-down when the root is close (each step contracts by ``|y0|``, and
    the cancellation-polluted constant coefficient is never consumed: the
    analytic root condition replaces it; output one order shorter) and
    bottom-up when the root is far (each step contracts by ``1/|y0|``;
    output keeps the numerator's order).  Plain series division would
    amplify rounding by ``1/|y0|`` per order near the root.
    """
    a = num.c
    n = len(a) - 1
    if root_div_topdown(y0, scale):
        if n < 1:
            raise ValueError("top-down root division needs order >= 1")
        q = [0.0] * n
        q[n - 1] = a[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = a[k] + y0 * q[k]
        return Taylor(q)
    q = [0.0] * (n + 1)
    q[0] = -a[0] / y0
    for k in range(1, n + 1):
        q[k] = (q[k - 1] - a[k]) / y0
    return Taylor(q)


def _root_div_order(order: int, y0: float, scale: float, margin_scale=None) -> int:
    """Numerator order needed for a root division returning ``order``.

    ``scale`` drives the direction (cancellation criterion, in units of the
    root location); ``margin_scale`` is a conservative convergence-radius
    proxy at the expansion point for the top-down truncation margin.
    """
    if not root_div_topdown(y0, scale):
        return order
    if margin_scale is None:
        margin_scale = scale
    return order + margin_for_shift(abs(y0) / max(margin_scale, 1e-300))


def _dd_scales(point: float, c: float) -> tuple:
    scale = max(abs(point), abs(c))
    if scale == 0.0:
        scale = 1.0
    margin_scale = min(abs(point), abs(c)) or scale
    return scale, margin_scale


def dd1_series(f: SeriesFn, c: float, point: float, order: int) -> Taylor:
    """Series around ``point`` of the divided difference f[x, c].

    f[x, c] = (f(x) - f(c)) / (x - c), extended continuously by f'(c) at
    the coincidence x = c.
    """
    scale, ms = _dd_scales(point, c)
    num = f(point, _root_div_order(order, c - point, scale, ms)) - f(c, 0).c[0]
    return div_by_linear_root(num, c - point, scale).truncate(order)


def _ddk_confluent(f: SeriesFn, c: float, point: float, order: int, k: int) -> Taylor:
    """Series around ``point`` of f[x, c, ..., c] with ``k`` repeated nodes."""
    if k == 1:
        return dd1_series(f, c, point, order)
    scale, ms = _dd_scales(point, c)
    prev = _ddk_confluent(
        f, c, point, _root_div_order(order, c - point, scale, ms), k - 1
    )
    num = prev - f(c, k - 1).c[k - 1]
    return div_by_linear_root(num, c - point, scale).truncate(order)


def dd2_series(f: SeriesFn, c1: float, c2: float, point: float, order: int) -> Taylor:
    """Series around ``point`` of the second divided difference f[x, c1, c2].

    Symmetric in (c1, c2); nearby nodes collapse onto their midpoint, where
    the odd corrections vanish and one even correction term pushes the
    substitution error to O(|c1 - c2|^4).
    """
    if abs(c1 - c2) >= DD_NODE_RTOL * max(1.0, abs(c1), abs(c2)):
        a = dd1_series(f, c1, point, order)
        b = dd1_series(f, c2, point, order)
        return (a - b) / (c1 - c2)
    cm = 0.5 * (c1 + c2)
    out = _ddk_confluent(f, cm, point, order, 2)
    if c1 != c2:
        spread = (c1 - c2) ** 2 / 4.0
        out = out + spread * _ddk_confluent(f, cm, point, order, 4)
    return out


def dd1_value(f: SeriesFn, c: float, x: float) -> float:
    return dd1_series(f, c, x, 0).c[0]


def dd2_value(f: SeriesFn, c1: float, c2: float, x: float) -> float:
    return dd2_series(f, c1, c2, x, 0).c[0]
