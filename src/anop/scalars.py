"""Complex scalars that are either exact (Gaussian rationals) or floating.

Arithmetic between two exact scalars stays exact; any floating operand
makes the result floating. Equality between exact scalars is decidable,
floating comparisons elsewhere always go through an explicit tolerance.

An exact scalar is stored in lowest terms as (re_num + i*im_num)/denom with
Python ints, denom > 0 and gcd(re_num, im_num, denom) = 1; zero is (0, 0, 1).
The form is canonical, so exact equality compares the three fields, and
every exact operation runs on ints with one gcd. Fractions are built only
where a caller reads `.re` or `.im`. An exact part converts to a float as the
int true division re_num / denom, which is correctly rounded, as
`Fraction.__float__` is, and raises OverflowError when the part is too large
for a float. A floating scalar keeps its two float parts in re_num and
im_num, with denom None.

The fields and the positional constructor Scalar(re_num, im_num, denom) are
private to this module and `exactla`; everything else goes through
`Scalar.exact`, `Scalar.inexact`, `Scalar.of` and `.re`/`.im`.
"""

import math
from fractions import Fraction


def _ratio(x):
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"exact part must be int or Fraction, got {type(x).__name__}")


def _reduced(n, m, d):
    """The exact Scalar (n + i m)/d for ints with d > 0."""
    g = math.gcd(n, m, d)
    if g != 1:
        return Scalar(n // g, m // g, d // g)
    return Scalar(n, m, d)


class Scalar:
    __slots__ = ("re_num", "im_num", "denom", "is_exact")

    def __init__(self, re_num, im_num, denom):
        self.re_num = re_num
        self.im_num = im_num
        self.denom = denom
        self.is_exact = denom is not None

    @classmethod
    def exact(cls, re, im=0):
        rn, rd = _ratio(re)
        if type(im) is int:
            return cls(rn, im * rd, rd)
        inum, idn = _ratio(im)
        # lowest terms already: the highest power of a prime dividing the
        # lcm divides one of the denominators, whose numerator is prime to it
        if rd == idn:
            return cls(rn, inum, rd)
        d = math.lcm(rd, idn)
        return cls(rn * (d // rd), inum * (d // idn), d)

    @classmethod
    def inexact(cls, re, im=0.0):
        return cls(float(re), float(im), None)

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

    # -- parts --------------------------------------------------------------

    @property
    def re(self):
        """The real part: a Fraction when exact, else a float."""
        if self.denom is None:
            return self.re_num
        return Fraction(self.re_num, self.denom)

    @property
    def im(self):
        """The imaginary part: a Fraction when exact, else a float."""
        if self.denom is None:
            return self.im_num
        return Fraction(self.im_num, self.denom)

    def _floats(self):
        """(float(re), float(im)), correctly rounded for exact parts."""
        d = self.denom
        if d is None:
            return self.re_num, self.im_num
        return self.re_num / d, self.im_num / d

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.denom, o.denom
        if d is not None and e is not None:
            if d == e:
                return _reduced(self.re_num + o.re_num, self.im_num + o.im_num, d)
            return _reduced(self.re_num * e + o.re_num * d,
                            self.im_num * e + o.im_num * d, d * e)
        a, b = self._floats()
        c, f = o._floats()
        return Scalar(a + c, b + f, None)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re_num, -self.im_num, self.denom)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.denom, o.denom
        if d is not None and e is not None:
            a, b, c, f = self.re_num, self.im_num, o.re_num, o.im_num
            return _reduced(a * c - b * f, a * f + b * c, d * e)
        a, b = self._floats()
        c, f = o._floats()
        return Scalar(a * c - b * f, a * f + b * c, None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.denom, o.denom
        if d is not None and e is not None:
            a, b, c, f = self.re_num, self.im_num, o.re_num, o.im_num
            # (a + ib)/d divided by (c + if)/e is (a + ib)(c - if) e / (d (c^2 + f^2))
            nrm = c * c + f * f
            if not nrm:
                raise ZeroDivisionError("Scalar division by zero")
            return _reduced((a * c + b * f) * e, (b * c - a * f) * e, d * nrm)
        z = complex(self) / complex(o)
        return Scalar(z.real, z.imag, None)

    def conj(self):
        return Scalar(self.re_num, -self.im_num, self.denom)

    def abs2(self):
        """|z|^2, same exactness kind as z (real Scalar)."""
        a, b, d = self.re_num, self.im_num, self.denom
        if d is None:
            return Scalar(a * a + b * b, 0.0, None)
        return _reduced(a * a + b * b, 0, d * d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.re_num == 0 and self.im_num == 0

    def is_real(self):
        return self.im_num == 0

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            try:
                other = Scalar.of(other)
            except TypeError:
                return NotImplemented
        if self.is_exact and other.is_exact:
            return (self.re_num == other.re_num and self.im_num == other.im_num
                    and self.denom == other.denom)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions --------------------------------------------------------

    def __complex__(self):
        return complex(*self._floats())

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
    pn, pd = _ratio(x)
    if pn < 0:
        raise ValueError("negative input")
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
