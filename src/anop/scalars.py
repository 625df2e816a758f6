"""Complex scalars that are either exact (rational parts) or floating.

Arithmetic between two exact scalars stays exact; any floating operand
makes the result floating. Equality between exact scalars is decidable,
floating comparisons elsewhere always go through an explicit tolerance.
"""

import math
from fractions import Fraction


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact part must be int or Fraction, got {type(x).__name__}")


class Scalar:
    __slots__ = ("re", "im", "is_exact")

    def __init__(self, re, im, is_exact):
        self.re = re
        self.im = im
        self.is_exact = is_exact

    @classmethod
    def exact(cls, re, im=0):
        return cls(_frac(re), _frac(im), True)

    @classmethod
    def inexact(cls, re, im=0.0):
        return cls(float(re), float(im), False)

    @classmethod
    def of(cls, value):
        """Coerce a python number (or Scalar) to a Scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.exact(value)
        if isinstance(value, float):
            return cls.inexact(value)
        if isinstance(value, complex):
            return cls.inexact(value.real, value.imag)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    # -- arithmetic ---------------------------------------------------------

    def _pair(self, other):
        other = Scalar.of(other)
        if self.is_exact and other.is_exact:
            return other, True
        return other, False

    def __add__(self, other):
        o, ex = self._pair(other)
        if ex:
            return Scalar(self.re + o.re, self.im + o.im, True)
        return Scalar(float(self.re) + float(o.re), float(self.im) + float(o.im), False)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im, self.is_exact)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        o, ex = self._pair(other)
        if ex:
            return Scalar(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re, True)
        a, b = float(self.re), float(self.im)
        c, d = float(o.re), float(o.im)
        return Scalar(a * c - b * d, a * d + b * c, False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o, ex = self._pair(other)
        if ex:
            den = o.re * o.re + o.im * o.im
            if den == 0:
                raise ZeroDivisionError("Scalar division by zero")
            return Scalar((self.re * o.re + self.im * o.im) / den,
                          (self.im * o.re - self.re * o.im) / den, True)
        z = complex(self) / complex(o)
        return Scalar(z.real, z.imag, False)

    def conj(self):
        return Scalar(self.re, -self.im, self.is_exact)

    def abs2(self):
        """|z|^2, same exactness kind as z (real Scalar)."""
        return Scalar(self.re * self.re + self.im * self.im, 0 if self.is_exact else 0.0,
                      self.is_exact)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            try:
                other = Scalar.of(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((Fraction(self.re) if self.is_exact else self.re,
                     Fraction(self.im) if self.is_exact else self.im))

    # -- conversions --------------------------------------------------------

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        kind = "exact" if self.is_exact else "float"
        if self.im == 0:
            return f"Scalar({self.re!s}, {kind})"
        return f"Scalar({self.re!s}+{self.im!s}j, {kind})"


ZERO = Scalar.exact(0)
ONE = Scalar.exact(1)


def exact_sqrt(x):
    """Square root of a nonnegative rational as (Fraction, True) if perfect,
    else (float, False)."""
    x = _frac(x)
    if x < 0:
        raise ValueError("negative input")
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd), True
    return math.sqrt(pn / pd), False


def scalar_sqrt(s):
    """Square root of a nonnegative real Scalar; exact when a perfect square."""
    s = Scalar.of(s)
    if not s.is_real():
        raise ValueError("scalar_sqrt needs a real scalar")
    if s.is_exact:
        r, perfect = exact_sqrt(s.re)
        if perfect:
            return Scalar.exact(r)
        return Scalar.inexact(r)
    if s.re < 0:
        raise ValueError("negative input")
    return Scalar.inexact(math.sqrt(s.re))
