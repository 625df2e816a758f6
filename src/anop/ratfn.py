"""Rational functions of an integer index over Q.

These drive the asymptotic tier of diagonal sequences: an entry rule is a
rational function r(i) = num(i)/den(i) with rational coefficients whose
denominator is positive for every i >= 0 and deg num <= deg den (bounded
entries). Everything about such a rule is decidable exactly: its limit,
a decay certificate, its zero set, its sign and its monotonicity from any
starting index. Polynomials are coefficient tuples, low degree first.
"""

from fractions import Fraction

from .errors import BadParams


# -- polynomial helpers -----------------------------------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly(coeffs):
    return _trim(Fraction(c) for c in coeffs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def poly_scale(a, c):
    c = Fraction(c)
    return _trim([ai * c for ai in a])


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def poly_eval(a, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_compose_shift(a, d):
    """p(i) -> p(i + d) by Horner-style composition with (i + d)."""
    d = Fraction(d)
    out = ()
    for c in reversed(a):
        out = poly_add(poly_mul(out, poly([d, 1])), poly([c]))
    return out


def poly_deg(a):
    return len(a) - 1 if a else -1


def _root_bound(a):
    """All real roots of a lie in [-B, B] (Cauchy bound)."""
    lead = abs(a[-1])
    return 1 + max((abs(c) for c in a[:-1]), default=Fraction(0)) / lead


def poly_integer_zeros_from(a, i0):
    """Integer roots >= i0; None means the polynomial is identically zero."""
    if not a:
        return None
    bound = _root_bound(a)
    hi = int(bound) + 1
    return [i for i in range(i0, hi + 1) if poly_eval(a, i) == 0]


def _power_of_linear(deg):
    """(i + 1)^deg as a polynomial."""
    out = poly([1])
    for _ in range(deg):
        out = poly_mul(out, poly([1, 1]))
    return out


def poly_sign_from(a, i0):
    """+1 / -1 / 0 when p(i) has that sign for every integer i >= i0,
    otherwise None."""
    if not a:
        return 0
    bound = int(_root_bound(a)) + 1
    lead_sign = 1 if a[-1] > 0 else -1
    signs = set()
    for i in range(i0, bound + 2):
        v = poly_eval(a, i)
        signs.add(0 if v == 0 else (1 if v > 0 else -1))
    signs.add(lead_sign)
    if len(signs) == 1:
        return signs.pop()
    return None


# -- rational functions -----------------------------------------------------

class RationalFn:
    """num(i)/den(i) with den(i) > 0 for all i >= valid_from and bounded
    values; index shifts may push the validity threshold above zero."""

    __slots__ = ("num", "den", "valid_from")

    def __init__(self, num, den, valid_from=0):
        num = poly(num)
        den = poly(den)
        if not den:
            raise BadParams("zero denominator")
        valid_from = int(valid_from)
        if den[-1] <= 0:
            raise BadParams("rule denominator is not eventually positive")
        bound = int(_root_bound(den)) + 1
        for i in range(max(bound, valid_from), valid_from - 1, -1):
            if poly_eval(den, i) <= 0:
                valid_from = i + 1
                break
        if poly_deg(num) > poly_deg(den):
            raise BadParams("rule must stay bounded (deg num <= deg den)")
        self.num = num
        self.den = den
        self.valid_from = valid_from

    # construction helpers

    @classmethod
    def const(cls, c):
        return cls(poly([Fraction(c)]), poly([1]))

    @classmethod
    def power_term(cls, scale, shift, power):
        """scale / (i + shift)^power with shift > 0, power >= 1."""
        scale, shift = Fraction(scale), Fraction(shift)
        if shift <= 0 or power < 1:
            raise BadParams("power rule needs shift > 0 and power >= 1")
        den = poly([1])
        lin = poly([shift, 1])
        for _ in range(int(power)):
            den = poly_mul(den, lin)
        return cls(poly([scale]), den)

    def eval(self, i):
        if i < self.valid_from:
            raise BadParams(f"rule evaluated below its validity index "
                            f"({i} < {self.valid_from})")
        return poly_eval(self.num, i) / poly_eval(self.den, i)

    def __add__(self, other):
        return self._over_product_den(poly_add(poly_mul(self.num, other.den),
                                               poly_mul(other.num, self.den)), other)

    def __mul__(self, other):
        return self._over_product_den(poly_mul(self.num, other.num), other)

    def _over_product_den(self, num, other):
        """num / (self.den * other.den) without the validity scan of
        __init__: each denominator is positive from its own valid_from, so
        their product is positive from the larger one and the scan could not
        move it. Leading coefficients stay positive and deg num stays within
        deg den, so the other checks of __init__ hold as well."""
        out = object.__new__(RationalFn)
        out.num = num
        out.den = poly_mul(self.den, other.den)
        out.valid_from = max(self.valid_from, other.valid_from)
        return out

    def scale(self, c):
        return RationalFn(poly_scale(self.num, c), self.den, self.valid_from)

    def shift_index(self, d):
        """r(i) -> r(i + d); the validity threshold moves accordingly."""
        return RationalFn(poly_compose_shift(self.num, d),
                          poly_compose_shift(self.den, d),
                          max(0, self.valid_from - int(d)))

    def sub_const(self, c):
        return RationalFn(poly_add(self.num, poly_scale(self.den, -Fraction(c))),
                          self.den, self.valid_from)

    # analysis

    def limit(self):
        dn, dd = poly_deg(self.num), poly_deg(self.den)
        if dn < dd:
            return Fraction(0)
        return self.num[-1] / self.den[-1]

    def is_const(self):
        lim = self.limit()
        return not self.sub_const(lim).num

    def decay(self):
        """(C, p) with |r(i) - limit| <= C / (i+1)^p for all i >= valid_from;
        p >= 1 unless the rule is constant (then (0, 1))."""
        dev = self.sub_const(self.limit())
        if not dev.num:
            return Fraction(0), 1
        p = poly_deg(dev.den) - poly_deg(dev.num)
        # den(i) >= c*(i+1)^deg for all i >= valid_from: beyond the root bound
        # of den - (lead/2)(i+1)^deg the half-lead term dominates, below it
        # the ratio is sampled directly.
        degd = poly_deg(dev.den)
        half = poly_scale(_power_of_linear(degd), dev.den[-1] / 2)
        g = poly_add(dev.den, poly_scale(half, -1))
        bound = int(_root_bound(g)) + 2 if g else 2
        c = min(poly_eval(dev.den, i) / Fraction(i + 1) ** degd
                for i in range(self.valid_from, max(bound, self.valid_from) + 1))
        c = min(c, dev.den[-1] / 2)
        num_bound = sum(abs(co) for co in dev.num)
        return num_bound / c, p

    def zeros_from(self, i0):
        """Integer indices i >= i0 with r(i) = 0; None means all of them."""
        zs = poly_integer_zeros_from(self.num, max(i0, self.valid_from))
        return zs

    def sign_from(self, i0):
        return poly_sign_from(self.num, max(i0, self.valid_from))

    def monotone_from(self, i0):
        """'inc' / 'dec' / 'const' for i >= i0, None if mixed/undecided."""
        diff = self.shift_index(1) + self.scale(-1)
        s = poly_sign_from(diff.num, max(i0, diff.valid_from))
        if s == 0:
            return "const"
        if s == 1:
            return "inc"
        if s == -1:
            return "dec"
        return None

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    def __repr__(self):
        return f"RationalFn({list(self.num)}, {list(self.den)})"

    def to_json(self):
        def enc(p):
            return [str(c) if c.denominator != 1 else c.numerator for c in p]
        return {"kind": "ratfn", "num": enc(self.num), "den": enc(self.den)}

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") == "power":
            base = cls.power_term(Fraction(str(obj["scale"])),
                                  Fraction(str(obj.get("shift", 1))),
                                  int(obj.get("power", 1)))
            lim = obj.get("limit")
            if lim is not None:
                base = base + cls.const(Fraction(str(lim)))
            return base
        if obj.get("kind") == "ratfn":
            num = [Fraction(str(c)) for c in obj["num"]]
            den = [Fraction(str(c)) for c in obj["den"]]
            return cls(num, den)
        raise BadParams(f"unknown rule kind {obj.get('kind')!r}")
