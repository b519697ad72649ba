"""Truncated Taylor arithmetic.

The package meets removable singularities in one way: a real point within
``WINDOW`` (relative) of a removable point is the mean of the function over
a circle around it (see :mod:`poolruin.ladder`), never a series with the
vanishing factor divided out.  Series serve the order-2 jets (moments) at
points outside every window, where a root still to be cleared is divided
out bottom-up (:func:`div_by_linear_root`).

A :class:`Taylor` value stores coefficients ``c[i] = f^(i)(a) / i!`` around
an expansion point that the caller tracks; binary operations assume both
operands are expanded around the same point and keep the shorter operand's
length.  Products and quotients run as plain Python loops over floats, so
inf and NaN propagate silently; :meth:`Taylor.shift` re-centers a series
for callers of the public arithmetic.

Operands of three coefficients (every jet the package builds) take a
closed-form branch of each operator instead of the loop.  Each branch
performs the loop's floating-point operations in the loop's order: a
product's coefficients start from ``0.0`` and add ``a[i] * b[j]`` for
ascending ``i``, skipping a row with ``a[i] == 0.0`` (so ``0 * inf`` is
never formed), and the quotient's last coefficient is
``((a2 - b1 q1) - b2 q0) / b0``.  So every result is the loop's to the last
bit.  That matters here: Stehfest's weights sum to 6.5e8 in modulus, so a
jet moved by 4e-16 moves a moment curve by about 2e-9.  Every other length
keeps the general loops (:func:`_mul_loop`, :func:`_div_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# A point this close (relative) to a removable point is never expanded in
# series: the ladder takes a contour mean there (see :mod:`poolruin.ladder`),
# and a root is divided out of a series only from outside this window.
WINDOW = 0.35


@dataclass(frozen=True)
class TransformJet:
    """Value of a transform with its first two derivatives in the argument."""

    v: float
    d1: float
    d2: float


class Taylor:
    """Truncated Taylor expansion around an implicit expansion point.

    An operation on operands of three coefficients is written out in the
    general loop's own operations and order (see the module docstring), so
    its result is bit-identical to the loop's; any other length runs the
    loop.
    """

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

    @staticmethod
    def constant(value: float, order: int) -> "Taylor":
        return Taylor._wrap((float(value),) + (0.0,) * order)

    @staticmethod
    def identity(point: float, order: int) -> "Taylor":
        """Series of f(x) = x around ``point``."""
        if order == 0:
            return Taylor._wrap((float(point),))
        return Taylor._wrap((float(point), 1.0) + (0.0,) * (order - 1))

    def __add__(self, other):
        a = self.c
        if isinstance(other, Taylor):
            b = other.c
            if len(a) == 3 == len(b):
                return Taylor._wrap((a[0] + b[0], a[1] + b[1], a[2] + b[2]))
            return Taylor._wrap([x + y for x, y in zip(a, b)])
        return Taylor._wrap((a[0] + float(other),) + a[1:])

    __radd__ = __add__

    def __neg__(self):
        return Taylor._wrap([-x for x in self.c])

    def __sub__(self, other):
        a = self.c
        if isinstance(other, Taylor):
            b = other.c
            if len(a) == 3 == len(b):
                return Taylor._wrap((a[0] - b[0], a[1] - b[1], a[2] - b[2]))
            return Taylor._wrap([x - y for x, y in zip(a, b)])
        return Taylor._wrap((a[0] - float(other),) + a[1:])

    def __rsub__(self, other):
        a = self.c
        if len(a) == 3:
            return Taylor._wrap((-a[0] + float(other), -a[1], -a[2]))
        return (-self) + other

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, Taylor):
            other = float(other)
            if len(a) == 3:
                return Taylor._wrap((a[0] * other, a[1] * other, a[2] * other))
            return Taylor._wrap([x * other for x in a])
        b = other.c
        if len(a) != 3 or len(b) != 3:
            return Taylor._wrap(_mul_loop(a, b))
        # the loop's rows: each sum starts from 0.0 (so a -0.0 product
        # never shows) and a zero row adds nothing (so no 0 * inf is formed)
        a0, a1, a2 = a
        b0, b1, b2 = b
        if a0 != 0.0:
            c0, c1, c2 = 0.0 + a0 * b0, 0.0 + a0 * b1, 0.0 + a0 * b2
        else:
            c0 = c1 = c2 = 0.0
        if a1 != 0.0:
            c1 += a1 * b0
            c2 += a1 * b1
        if a2 != 0.0:
            c2 += a2 * b0
        return Taylor._wrap((c0, c1, c2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self.c
        if not isinstance(other, Taylor):
            other = float(other)
            if len(a) == 3:
                return Taylor._wrap((a[0] / other, a[1] / other, a[2] / other))
            return Taylor._wrap([x / other for x in a])
        b = other.c
        if b[0] == 0.0:
            raise ZeroDivisionError(
                "series division by a series with vanishing constant term"
            )
        if len(a) != 3 or len(b) != 3:
            return Taylor._wrap(_div_loop(a, b))
        b0, b1, b2 = b
        q0 = a[0] / b0
        q1 = (a[1] - b1 * q0) / b0
        return Taylor._wrap((q0, q1, ((a[2] - b1 * q1) - b2 * q0) / b0))

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


def _mul_loop(a, b) -> list:
    """Coefficients of the truncated product of coefficient tuples ``a``
    and ``b``: row ``i`` adds ``a[i] * b[j]`` into ``i + j``, and a zero
    ``a[i]`` adds nothing."""
    n = min(len(a), len(b))
    out = [0.0] * n
    for i in range(n):
        ci = a[i]
        if ci == 0.0:
            continue
        for j in range(n - i):
            out[i + j] += ci * b[j]
    return out


def _div_loop(a, b) -> list:
    """Coefficients of the truncated quotient ``a / b`` (``b[0]`` nonzero),
    each from the ones before it."""
    n = min(len(a), len(b))
    b0 = b[0]
    out = [0.0] * n
    for k in range(n):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc / b0
    return out


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


def div_by_linear_root(num: Taylor, y0: float) -> Taylor:
    """Divide a series by ``(y - y0)`` given that ``y0`` is an analytic root.

    The quotient recursion runs bottom-up, each step contracting by
    ``1/|y0|``; the output keeps the numerator's order.  The constant
    coefficient cancels to a relative ``eps / |y0|``, so callers divide
    only from outside :data:`WINDOW` of the root.
    """
    a = num.c
    y0 = float(y0)
    q = [0.0] * len(a)
    q[0] = -a[0] / y0
    for k in range(1, len(a)):
        q[k] = (q[k - 1] - a[k]) / y0
    return Taylor._wrap(q)
