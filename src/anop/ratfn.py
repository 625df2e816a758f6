"""Rational functions of an integer index over Q.

These drive the asymptotic tier of diagonal sequences: an entry rule is a
rational function r(i) = num(i)/den(i) with rational coefficients whose
denominator is positive for every i >= 0 and deg num <= deg den (bounded
entries). Everything about such a rule is decidable exactly: its limit,
a decay certificate, its zero set, its sign and its monotonicity from any
starting index. Validity, zeros, sign, monotonicity, extremes, decay and the
counts of spectral streams all come from one primitive, `sign_runs`, at
O(deg^2 log B) polynomial evaluations for a Cauchy root bound B, instead of
one evaluation per integer up to B. Polynomials are coefficient tuples, low
degree first.
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


def _sign(x):
    return (x > 0) - (x < 0)


def _step(num, den=(Fraction(1),)):
    """Numerator of the forward difference of num/den:
    num(i+1) den(i) - num(i) den(i+1)."""
    return poly_add(poly_mul(poly_compose_shift(num, 1), den),
                    poly_scale(poly_mul(num, poly_compose_shift(den, 1)), -1))


def sign_runs(p, lo):
    """Maximal runs [(start, sign), ...] of one sign of p(i) over the integers
    i >= lo; the last run never ends.

    When the coefficients of p(lo + x) show no sign change, Descartes' rule
    leaves no root above lo. Otherwise p is monotone on each run of its
    forward difference, so bisection finds each sign change there; beyond the
    Cauchy bound p keeps the sign of its leading coefficient.
    """
    if not p:
        return [(lo, 0)]
    lead = _sign(p[-1])
    q = poly_compose_shift(p, lo) if lo else p
    if all(_sign(c) != -lead for c in q):
        return [(lo, lead)] if q[0] else [(lo, 0), (lo + 1, lead)]
    ends = [a for a, _ in sign_runs(_step(p), lo)]
    ends.append(max(ends[-1], int(_root_bound(p)) + 1))
    runs = []
    for a, b in zip(ends, ends[1:]):
        # the sign of p is monotone on [a, b]
        sb = _sign(poly_eval(p, b))
        while True:
            sa = _sign(poly_eval(p, a))
            if not runs or runs[-1][1] != sa:
                runs.append((a, sa))
            if sa == sb:
                break
            hi = b
            while hi - a > 1:
                mid = (a + hi) // 2
                a, hi = (mid, hi) if _sign(poly_eval(p, mid)) == sa else (a, mid)
            a = hi
    return runs


def _extremes(num, den, lo):
    """Exact (inf, sup) of num(i)/den(i) over i >= lo, with den positive there
    and deg num <= deg den. The ratio is monotone from each run start of its
    forward difference to the next, so those values and the limit suffice."""
    starts = [a for a, _ in sign_runs(_step(num, den), lo)]
    vals = [poly_eval(num, a) / poly_eval(den, a) for a in starts]
    vals.append(num[-1] / den[-1] if len(num) == len(den) else Fraction(0))
    return min(vals), max(vals)


def _power_of_linear(deg):
    """(i + 1)^deg as a polynomial."""
    out = poly([1])
    for _ in range(deg):
        out = poly_mul(out, poly([1, 1]))
    return out


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
        if den[-1] <= 0:
            raise BadParams("rule denominator is not eventually positive")
        if poly_deg(num) > poly_deg(den):
            raise BadParams("rule must stay bounded (deg num <= deg den)")
        self.num = num
        self.den = den
        self.valid_from = sign_runs(den, int(valid_from))[-1][0]

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
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RationalFn(num, poly_mul(self.den, other.den),
                          max(self.valid_from, other.valid_from))

    def __mul__(self, other):
        return RationalFn(poly_mul(self.num, other.num), poly_mul(self.den, other.den),
                          max(self.valid_from, other.valid_from))

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
        degd = poly_deg(self.den)
        # den(i) >= c*(i+1)^deg for all i >= valid_from, with c at most lead/2
        c = min(_extremes(self.den, _power_of_linear(degd), self.valid_from)[0],
                self.den[-1] / 2)
        return sum(abs(co) for co in dev.num) / c, degd - poly_deg(dev.num)

    def runs_from(self, i0):
        """sign_runs of r(i) over i >= i0 (and >= valid_from)."""
        return sign_runs(self.num, max(i0, self.valid_from))

    def zeros_from(self, i0):
        """Integer indices i >= i0 with r(i) = 0; None means all of them."""
        if not self.num:
            return None
        runs = self.runs_from(i0)
        return [i for (a, s), (b, _) in zip(runs, runs[1:]) if s == 0 for i in range(a, b)]

    def sign_from(self, i0):
        """+1 / -1 / 0 when r(i) has that sign for every i >= i0, else None."""
        runs = self.runs_from(i0)
        return runs[0][1] if len(runs) == 1 else None

    def monotone_from(self, i0):
        """'inc' / 'dec' / 'const' for i >= i0, None if mixed/undecided."""
        runs = sign_runs(_step(self.num, self.den), max(i0, self.valid_from))
        return {0: "const", 1: "inc", -1: "dec"}[runs[0][1]] if len(runs) == 1 else None

    def extremes_from(self, i0):
        """Exact (inf, sup) of r(i) over i >= i0 (and >= valid_from)."""
        return _extremes(self.num, self.den, max(i0, self.valid_from))

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
