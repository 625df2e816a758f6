import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anop.errors import BadParams
from anop.ratfn import RationalFn
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


@given(_rules(), _rules())
def test_sum_and_product_keep_the_scanned_validity(f, g):
    for out in (f + g, f * g):
        scanned = RationalFn(out.num, out.den, max(f.valid_from, g.valid_from))
        assert (out.num, out.den, out.valid_from) == \
            (scanned.num, scanned.den, scanned.valid_from)
