"""Truncated Taylor arithmetic and confluent divided differences.

The ladder recursion (:mod:`poolruin.ladder`) evaluates its levels
directly and takes contour means near its removable points, so it needs
series only for order-2 jets (moments) at points away from every removable
point.  The divided differences of claim transforms, such as the real
B[alpha, nu] of the overshoot base and the ladder heights, still meet their
removable singularity at coinciding nodes; they expand the transform as a
truncated Taylor series around the evaluation point and cancel the
vanishing factor exactly (:func:`div_by_linear_root`).

A :class:`Taylor` value stores coefficients ``c[i] = f^(i)(a) / i!`` around
an expansion point that the caller tracks; binary operations assume both
operands are expanded around the same point and truncate to the shorter
operand.

Products and quotients of long series run on numpy arrays: a product once
both operands reach ``ARRAY_MIN_LEN`` coefficients, a quotient from its
coefficient ``ARRAY_MIN_LEN`` on, whose fold has that many terms.  Below
the crossover the per-call cost of numpy exceeds the Python loop's
(measured on a 2-core x86-64 host: arrays win from about 36 coefficients for
products and 50 fold terms for quotients).  The array kernels add the same
products in the same order as the loops, so every coefficient is bit for
bit the loop's: a product adds the rows ``a[i] * b`` in ascending ``i``
(``np.add.accumulate`` down blocks of rows), skipping ``a[i] == 0`` as the
loop does, and a quotient coefficient folds its terms left to right
(``np.subtract.accumulate``).  No ``dot``, FFT convolution or
triangular-Toeplitz solve is used: each adds in an order of its own
(pairwise, blocked, transformed), which would move the low bits of every
coefficient.  The kernels run under ``np.errstate``, so inf and NaN
propagate silently, as through Python floats.  No series of the package's
own routes reaches that length any more; the kernels and
:meth:`Taylor.shift` serve callers of the public arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Node pairs of a second divided difference closer than this (relative)
# collapse onto their midpoint with an even-order correction; differencing
# the two first-order slices would cancel eps/distance.
DD_NODE_RTOL = 1e-4

# Relative distance below which a removable root is divided out top-down
# (truncation-limited, needs margin orders) rather than bottom-up (round-off
# limited by the constant term's cancellation, eps / rel).
ROOT_DIV_WINDOW = 0.35

# Series length from which products and quotients run on numpy arrays
# (see the module docstring).
ARRAY_MIN_LEN = 48

# Rows per accumulate block of the array product: a block spans only the
# columns from its first row's diagonal on, so larger blocks add more of the
# zeros left of the diagonal, smaller ones make more numpy calls.
MUL_BLOCK = 64


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
        self.c = tuple(map(float, coeffs))
        if not self.c:
            raise ValueError("Taylor series needs at least the constant term")

    @classmethod
    def _wrap(cls, coeffs) -> "Taylor":
        """A result computed here from Python floats: skips the per-element
        conversion of the public constructor."""
        out = object.__new__(cls)
        out.c = tuple(coeffs)
        return out

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @staticmethod
    def constant(value: float, order: int) -> "Taylor":
        return Taylor._wrap((float(value),) + (0.0,) * order)

    @staticmethod
    def identity(point: float, order: int) -> "Taylor":
        """Series of f(x) = x around ``point``."""
        if order == 0:
            return Taylor._wrap((float(point),))
        return Taylor._wrap((float(point), 1.0) + (0.0,) * (order - 1))

    def truncate(self, order: int) -> "Taylor":
        if order >= self.order:
            return self
        return Taylor._wrap(self.c[: order + 1])

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor._wrap([x + y for x, y in zip(self.c, other.c)])
        return Taylor._wrap((self.c[0] + float(other),) + self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Taylor._wrap([-x for x in self.c])

    def __sub__(self, other):
        if isinstance(other, Taylor):
            return Taylor._wrap([x - y for x, y in zip(self.c, other.c)])
        return Taylor._wrap((self.c[0] - float(other),) + self.c[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            other = float(other)
            return Taylor._wrap([x * other for x in self.c])
        a, b = self.c, other.c
        n = min(len(a), len(b))
        if n >= ARRAY_MIN_LEN:
            return Taylor._wrap(_mul_rows(a, b, n))
        out = [0.0] * n
        for i in range(n):
            ci = a[i]
            if ci == 0.0:
                continue
            for j in range(n - i):
                out[i + j] += ci * b[j]
        return Taylor._wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Taylor):
            other = float(other)
            return Taylor._wrap([x / other for x in self.c])
        a, b = self.c, other.c
        n = min(len(a), len(b))
        b0 = b[0]
        if b0 == 0.0:
            raise ZeroDivisionError(
                "series division by a series with vanishing constant term"
            )
        out = [0.0] * n
        for k in range(min(n, ARRAY_MIN_LEN)):
            acc = a[k]
            for j in range(1, k + 1):
                acc -= b[j] * out[k - j]
            out[k] = acc / b0
        if n > ARRAY_MIN_LEN:
            out = _div_folds(a, b, out, ARRAY_MIN_LEN)
        return Taylor._wrap(out)

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
                try:
                    out[j] += ci * math.comb(i, j) * h ** (i - j)
                except OverflowError:
                    out[j] += _shift_term_from_log(ci, i, j, h)
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


def _shift_term_from_log(ci: float, i: int, j: int, h: float) -> float:
    """The shift term ``ci * C(i, j) * h**(i - j)`` where the binomial
    (past about 1,030 coefficients) or the power leaves the float range."""
    k = i - j
    sign = math.copysign(1.0, ci) * (-1.0 if h < 0 and k % 2 else 1.0)
    log_abs = math.log(abs(ci)) + math.log(math.comb(i, j)) + k * math.log(abs(h))
    return _from_log(sign, log_abs)


def _from_log(sign: float, log_abs: float) -> float:
    """A term or coefficient whose direct evaluation left the float range,
    from the log of its magnitude: 0.0 below the float range, inf above it."""
    try:
        return math.copysign(math.exp(log_abs), sign)
    except OverflowError:
        return math.copysign(math.inf, sign)


def _mul_rows(a: tuple, b: tuple, n: int) -> list:
    """First ``n`` coefficients of the product as the scalar loop adds them.

    Row ``i`` holds ``a[i] * b[k - i]`` at column ``k >= i`` and exact zeros
    left of it, which leave a sum unchanged.  Each block of rows is stacked
    under the running sums and added down by an ``accumulate``.
    """
    av = np.array(a[:n])
    padded = np.zeros(2 * n - 1)
    padded[n - 1 :] = b[:n]
    shifted = sliding_window_view(padded, n)[::-1]  # row i: b moved right by i
    # 0 * inf and inf * 0 are NaN: zero the rows the loop skips (a[i] == 0)
    # and, for a non-finite a[i], the cells left of the diagonal
    skip_zero = not np.isfinite(padded).all()
    clear_left = not np.isfinite(av).all()
    out = np.zeros(n)  # the loop's sums start from +0.0
    with np.errstate(all="ignore"):
        for lo in range(0, n, MUL_BLOCK):
            hi = min(lo + MUL_BLOCK, n)
            rows = np.empty((hi - lo + 1, n - lo))
            rows[0] = out[lo:]
            block = rows[1:]
            np.multiply(av[lo:hi, None], shifted[lo:hi, lo:], out=block)
            if skip_zero:
                block[av[lo:hi] == 0.0] = 0.0
            if clear_left:
                block[np.tril_indices(hi - lo, -1, n - lo)] = 0.0
            np.add.accumulate(rows, axis=0, out=rows)
            out[lo:] = rows[-1]
    return out.tolist()


def _div_folds(a: tuple, b: tuple, head: list, start: int) -> list:
    """The quotient's coefficients from ``start`` on, after the first
    ``start`` in ``head``: coefficient ``k`` folds ``a[k] - b[1] q[k-1] - ...
    - b[k] q[0]`` left to right (an ``accumulate``, strictly sequential)
    before dividing by ``b[0]``, as the scalar loop does."""
    n = len(head)
    b0 = b[0]
    bv = np.array(b[1:n])
    rev = np.array(head[::-1])  # rev[n - 1 - k] = q[k]: q[k-1], ..., q[0] is a slice
    buf = np.empty(n)
    with np.errstate(all="ignore"):
        for k in range(start, n):
            buf[0] = a[k]
            np.multiply(bv[:k], rev[n - k :], out=buf[1 : k + 1])
            np.subtract.accumulate(buf[: k + 1], out=buf[: k + 1])
            rev[n - 1 - k] = buf.item(k) / b0
    return rev[::-1].tolist()


# A series provider: (expansion point, order) -> Taylor of that order.
SeriesFn = Callable[[float, int], Taylor]


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
    y0 = float(y0)
    if root_div_topdown(y0, scale):
        if n < 1:
            raise ValueError("top-down root division needs order >= 1")
        q = [0.0] * n
        q[n - 1] = a[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = a[k] + y0 * q[k]
        return Taylor._wrap(q)
    q = [0.0] * (n + 1)
    q[0] = -a[0] / y0
    for k in range(1, n + 1):
        q[k] = (q[k - 1] - a[k]) / y0
    return Taylor._wrap(q)


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
