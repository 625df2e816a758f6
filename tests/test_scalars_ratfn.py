import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from anop.errors import BadParams
from anop.ratfn import (RationalFn, _extremes, poly, poly_add, poly_compose_shift,
                        poly_eval, poly_mul, poly_scale, sign_runs)
from anop.scalars import Scalar, exact_sqrt, scalar_sqrt


def test_exact_arithmetic_stays_exact():
    a = Scalar.exact(Fraction(1, 3), 2)
    b = Scalar.exact(Fraction(2, 5))
    assert (a * b).is_exact
    assert (a + b).is_exact
    assert (a / b).is_exact
    assert (a * b).re == Fraction(2, 15)


def test_float_operand_contaminates():
    a = Scalar.exact(1)
    b = Scalar.inexact(0.5)
    assert not (a + b).is_exact
    assert not (a * b).is_exact


def test_conj_and_abs2():
    a = Scalar.exact(3, -4)
    assert a.conj().im == 4
    assert a.abs2().re == 25


def test_equality_decidable_on_exact():
    assert Scalar.exact(Fraction(1, 3)) == Scalar.exact(Fraction(2, 6))
    assert Scalar.exact(1, 1) != Scalar.exact(1, -1)


def test_exact_sqrt():
    r, perfect = exact_sqrt(Fraction(9, 4))
    assert perfect and r == Fraction(3, 2)
    r, perfect = exact_sqrt(Fraction(2))
    assert not perfect and abs(r - math.sqrt(2)) < 1e-15
    assert scalar_sqrt(Scalar.exact(4)).is_exact


# -- the scalar layer against a pair of Fractions -------------------------

_SMALL_PART = st.fractions(min_value=-5, max_value=5, max_denominator=9)
_HUGE_INT = st.builds(lambda n, sign: sign * n, st.integers(10 ** 199, 10 ** 200 - 1),
                      st.sampled_from((1, -1)))
# zero, small and 200-digit parts, over small and 200-digit denominators
_PART = st.one_of(st.just(Fraction(0)), _SMALL_PART,
                  st.builds(Fraction, _HUGE_INT, st.integers(1, 7)),
                  st.builds(Fraction, st.integers(-9, 9), _HUGE_INT.map(abs)),
                  st.builds(Fraction, _HUGE_INT, _HUGE_INT))
# general, real-only and pure-imaginary (re, im) pairs
_PAIR = st.one_of(st.tuples(_PART, _PART),
                  st.tuples(_PART, st.just(Fraction(0))),
                  st.tuples(st.just(Fraction(0)), _PART))
_FLOAT = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _value(s):
    """(re, im) of an exact Scalar, with the canonical form checked."""
    n, m, d = s.re_num, s.im_num, s.denom
    assert s.is_exact and d > 0 and math.gcd(n, m, d) == 1
    assert (n, m) != (0, 0) or d == 1
    assert type(s.re) is Fraction and type(s.im) is Fraction
    return s.re, s.im


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def _complex_or_overflow(re, im):
    try:
        return _bits(complex(float(re), float(im)))
    except OverflowError:
        return OverflowError


@given(_PAIR, _PAIR)
# sums, differences and products that need reducing, over equal and unequal
# denominators
@example((Fraction(1, 6), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)))
@example((Fraction(2, 3), 0), (Fraction(3, 2), 0))
def test_exact_scalar_ops_match_fraction_pairs(x, y):
    (a, b), (c, d) = x, y
    sx, sy = Scalar.exact(a, b), Scalar.exact(c, d)
    assert _value(sx) == x and _value(sy) == y
    assert _value(sx + sy) == (a + c, b + d)
    assert _value(sx - sy) == (a - c, b - d)
    assert _value(sx * sy) == (a * c - b * d, a * d + b * c)
    assert _value(-sx) == (-a, -b)
    assert _value(sx.conj()) == (a, -b)
    assert _value(sx.abs2()) == (a * a + b * b, 0)
    if (c, d) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            sx / sy
    else:
        nrm = c * c + d * d
        assert _value(sx / sy) == ((a * c + b * d) / nrm, (b * c - a * d) / nrm)
    assert (sx == sy) == (x == y)
    assert sx == Scalar.exact(a, b) and hash(sx) == hash(x)
    assert sx.is_zero() == (x == (0, 0)) and sx.is_real() == (b == 0)


@given(_PAIR, st.integers(-9, 9))
def test_exact_scalar_ops_with_python_ints(x, k):
    a, b = x
    sx = Scalar.exact(a, b)
    assert _value(Scalar.exact(a, k)) == (a, k) and _value(Scalar.exact(k, b)) == (k, b)
    assert _value(sx + k) == _value(k + sx) == (a + k, b)
    assert _value(sx - k) == (a - k, b) and _value(k - sx) == (k - a, -b)
    assert _value(sx * k) == _value(k * sx) == (a * k, b * k)
    assert (sx == k) == (x == (k, 0))
    if k == 0:
        with pytest.raises(ZeroDivisionError):
            sx / k
    else:
        assert _value(sx / k) == (a / k, b / k)


_HUGE_PART = st.builds(Fraction, st.integers(-10 ** 400, 10 ** 400),
                       st.integers(1, 10 ** 90))


@given(st.one_of(_PAIR, st.tuples(_HUGE_PART, _HUGE_PART)))
def test_complex_of_exact_scalar_is_correctly_rounded(x):
    """complex(s) is bit for bit complex(float(re), float(im)), and raises
    OverflowError exactly when one of those floats does."""
    s = Scalar.exact(*x)
    expected = _complex_or_overflow(*x)
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            complex(s)
    else:
        assert _bits(complex(s)) == expected


@given(_PAIR, _FLOAT, _FLOAT)
def test_mixed_exact_float_ops_keep_float_formulas(x, u, v):
    """An exact operand meets a float one through float(re), float(im) and
    the same float formulas as a float pair."""
    a, b = float(x[0]), float(x[1])
    sx, fy = Scalar.exact(*x), Scalar.inexact(u, v)

    def parts(s):
        assert not s.is_exact and type(s.re) is float and type(s.im) is float
        return _bits(complex(s.re, s.im))

    assert parts(sx + fy) == parts(fy + sx) == _bits(complex(a + u, b + v))
    assert parts(sx - fy) == _bits(complex(a - u, b - v))
    assert parts(fy - sx) == _bits(complex(u - a, v - b))
    assert parts(sx * fy) == parts(fy * sx) == _bits(complex(a * u - b * v, a * v + b * u))
    if (u, v) != (0, 0):
        assert parts(sx / fy) == _bits(complex(a, b) / complex(u, v))
    if x != (0, 0):
        assert parts(fy / sx) == _bits(complex(u, v) / complex(a, b))
    assert (sx == fy) == (x == (u, v))
    assert hash(fy) == hash((u, v))


def test_exact_scalar_zero_is_canonical():
    zeros = [Scalar.exact(0), Scalar.exact(Fraction(0, 5), 0),
             Scalar.exact(Fraction(1, 3)) - Scalar.exact(Fraction(1, 3)),
             Scalar.exact(0, Fraction(2, 7)) * Scalar.exact(0),
             Scalar.exact(Fraction(1, 3), 1).abs2() * 0]
    assert {(z.re_num, z.im_num, z.denom) for z in zeros} == {(0, 0, 1)}
    with pytest.raises(ZeroDivisionError):
        Scalar.exact(1, 1) / zeros[2]
    with pytest.raises(TypeError):
        Scalar.exact(0.5)


def test_scalar_fields_private_to_scalars_and_exactla():
    """Only scalars.py and exactla.py build an exact Scalar from its int
    fields or read them; every other module goes through Scalar.exact,
    Scalar.inexact, Scalar.of and .re/.im."""
    import ast
    from pathlib import Path
    import anop

    fields = {"re_num", "im_num", "denom"}

    def uses(source):
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                found.append(f".{node.attr}")
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "Scalar"
                    or getattr(node.func, "attr", None) == "Scalar"):
                found.append("Scalar(...)")
        return found

    probe = "x = Scalar(1, 0, 1)\ny = scalars.Scalar.exact(x.denom)\nz = s.Scalar(0, 0, 1)\n"
    assert sorted(uses(probe)) == [".denom", "Scalar(...)", "Scalar(...)"]
    offenders = []
    for path in sorted(Path(anop.__file__).parent.glob("*.py")):
        if path.name not in ("scalars.py", "exactla.py"):
            offenders.extend(f"{path.name}: {u}" for u in uses(path.read_text()))
    assert offenders == []


def test_power_term_entries_and_limit():
    f = RationalFn.power_term(1, 1, 1)
    assert [f.eval(i) for i in range(4)] == [1, Fraction(1, 2), Fraction(1, 3),
                                             Fraction(1, 4)]
    assert f.limit() == 0


def test_decay_certificate_is_sound():
    f = RationalFn.const(1) + RationalFn.power_term(-1, 1, 1)
    c, p = f.decay()
    lim = f.limit()
    assert lim == 1
    for i in range(0, 200):
        assert abs(f.eval(i) - lim) <= Fraction(c) / (i + 1) ** p


def test_sign_zero_monotone_analysis():
    inc = RationalFn.const(1) + RationalFn.power_term(-1, 1, 1)
    assert inc.monotone_from(0) == "inc"
    assert inc.sign_from(1) == 1
    assert inc.zeros_from(0) == [0]
    dec = RationalFn.const(1) + RationalFn.power_term(1, 1, 1)
    assert dec.monotone_from(0) == "dec"
    sq = RationalFn.power_term(1, 1, 2)
    assert sq.zeros_from(0) == []
    assert (sq * sq).sign_from(0) == 1


def test_products_and_shifts_match_pointwise():
    f = RationalFn.power_term(2, 3, 1)
    g = RationalFn.const(Fraction(1, 2)) + RationalFn.power_term(-1, 2, 2)
    h = f * g + f.scale(Fraction(1, 3))
    for i in range(0, 40):
        expect = f.eval(i) * g.eval(i) + f.eval(i) / 3
        assert h.eval(i) == expect
    s = h.shift_index(5)
    for i in range(0, 20):
        assert s.eval(i) == h.eval(i + 5)


def test_negative_shift_moves_validity():
    f = RationalFn.power_term(1, 1, 1)
    s = f.shift_index(-2)
    assert s.valid_from >= 2
    assert s.eval(3) == f.eval(1)
    with pytest.raises(BadParams):
        s.eval(0)


def test_unbounded_rule_rejected():
    with pytest.raises(BadParams):
        RationalFn([0, 0, 1], [1, 1])


def test_json_round_trip():
    f = RationalFn.const(Fraction(1, 3)) + RationalFn.power_term(-2, 2, 2)
    g = RationalFn.from_json(f.to_json())
    assert f == g


@st.composite
def _rules(draw):
    """Rules whose denominator may vanish or turn negative at small indices,
    so that valid_from is often above zero."""
    den = draw(st.lists(st.integers(-6, 6), min_size=0, max_size=2))
    den.append(draw(st.integers(1, 3)))
    num = draw(st.lists(st.integers(-3, 3), max_size=len(den)))
    return RationalFn(num, den).shift_index(draw(st.integers(-4, 0)))


# -- brute-force reference: scan every index up to a Cauchy root bound ------

def _cauchy(p):
    return int(1 + max((abs(c) for c in p[:-1]), default=0) / abs(p[-1]))


def _scanned_runs(p, lo):
    """Runs of one sign of p over [lo, bound + 2], the last one extended."""
    runs = []
    for i in range(lo, max(lo, _cauchy(p) + 2 if p else lo) + 1):
        v = poly_eval(p, i)
        s = (v > 0) - (v < 0)
        if not runs or runs[-1][1] != s:
            runs.append((i, s))
    return runs


def _scanned_extremes(num, den, lo):
    """inf/sup of num/den over i >= lo: beyond the root bound of its forward
    difference's numerator the ratio is monotone towards its limit."""
    step = poly_add(poly_mul(poly_compose_shift(num, 1), den),
                    poly_scale(poly_mul(num, poly_compose_shift(den, 1)), -1))
    hi = max(lo, _cauchy(step) + 2 if step else lo)
    vals = [poly_eval(num, i) / poly_eval(den, i) for i in range(lo, hi + 1)]
    vals.append(num[-1] / den[-1] if len(num) == len(den) else Fraction(0))
    return min(vals), max(vals)


def _scanned_validity(den, lo):
    """First index from which den stays positive, scanning from lo."""
    bad = [i for i in range(lo, max(lo, _cauchy(den) + 2)) if poly_eval(den, i) <= 0]
    return bad[-1] + 1 if bad else lo


@st.composite
def _polys(draw):
    """Products of (i - r) for integer and half-integer roots r, repeats
    included, times a rootless quadratic or not, times a scale that may be
    zero; the root bounds stay small."""
    p = poly([draw(st.integers(-3, 3))])
    for twice_r in draw(st.lists(st.integers(-8, 16), max_size=4)):
        p = poly_mul(p, poly([-twice_r, 2]))
    if draw(st.booleans()):
        p = poly_mul(p, poly([draw(st.integers(1, 4)), draw(st.integers(-1, 1)), 1]))
    return p


@given(_polys(), st.integers(-4, 12))
def test_sign_runs_match_the_scan(p, lo):
    assert sign_runs(p, lo) == _scanned_runs(p, lo)


def test_sign_runs_corner_cases():
    assert sign_runs((), 3) == [(3, 0)]
    assert sign_runs(poly([-2]), 0) == [(0, -1)]
    assert sign_runs(poly([0, -1, 1]), 0) == [(0, 0), (2, 1)]      # i(i-1)
    assert sign_runs(poly([0, 0, 1]), 0) == [(0, 0), (1, 1)]       # double root
    assert sign_runs(poly([6, -5, 1]), 9) == [(9, 1)]              # beyond the roots
    assert sign_runs(poly([-10 ** 12, 1]), 0) == [(0, -1), (10 ** 12, 0),
                                                  (10 ** 12 + 1, 1)]


@given(_rules(), st.integers(0, 6))
def test_extremes_match_the_scan(f, extra):
    lo = f.valid_from + extra
    assert _extremes(f.num, f.den, lo) == _scanned_extremes(f.num, f.den, lo)


@given(_rules(), _rules())
def test_sum_and_product_keep_the_scanned_validity(f, g):
    lo = max(f.valid_from, g.valid_from)
    for out in (f + g, f * g):
        assert out.valid_from == _scanned_validity(out.den, lo)
        assert RationalFn(out.num, out.den).valid_from == _scanned_validity(out.den, 0)


def test_root_bound_used_only_by_sign_runs():
    """Every scan up to a root bound lives in ratfn.sign_runs, so no other
    function derives a rule's sign, zeros or extremes index by index."""
    import ast
    from pathlib import Path
    import anop

    def uses(source):
        found = []

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            name = getattr(node, "id", None) or getattr(node, "attr", None) \
                or (node.name if isinstance(node, ast.alias) else None)
            if name == "_root_bound":
                found.append(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)
        visit(ast.parse(source), None)
        return found

    probe = "from .ratfn import _root_bound\ndef f(p):\n    return ratfn._root_bound(p)\n"
    assert uses(probe) == [None, "f"]
    offenders = []
    for path in sorted(Path(anop.__file__).parent.glob("*.py")):
        for owner in uses(path.read_text()):
            if not (path.name == "ratfn.py" and owner == "sign_runs"):
                offenders.append(f"{path.name} in {owner}")
    assert offenders == []
