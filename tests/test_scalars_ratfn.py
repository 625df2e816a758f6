import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
