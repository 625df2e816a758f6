"""Verdict-engine contracts, with every Refuted witness re-validated."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anop.blocks import BandedBlock, DenseBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.errors import NotNormAttaining
from anop.gallery import (diag_operator, example1, example2, flip_unitary,
                          jacobi_operator, nilpotent_pair, right_shift)
from anop.operators import (L2, OperatorExpr, adjoint, apply, direct_sum, finite,
                            identity_operator, multiply, truncate)
from anop.predicates import (_commutator, _real_diagonal, _section, _section_min_eigs,
                             an_check, compute_M_and_Mstar, hyponormal_check, is_normal,
                             norm_attaining_check, paranormal_refute,
                             revalidate_witness, star_paranormal_check)
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.spectral import cogram, gram, modulus_summary
from anop.vectors import VectorExpr
from conftest import banded_operators, random_exact_operator


def test_is_normal_identity_and_direct_sum():
    assert is_normal(identity_operator((L2,))).status == "Proven"
    t = direct_sum(flip_unitary().scaled(3), identity_operator((L2,)).scaled(2))
    assert is_normal(t).status == "Proven"


def test_is_normal_shift_refuted_with_recheck():
    v = is_normal(right_shift(2))
    assert v.status == "Refuted"
    assert v.witness.support() == [(0, 0)]
    gap = apply(multiply(adjoint(right_shift(2)), right_shift(2)) -
                multiply(right_shift(2), adjoint(right_shift(2))),
                v.witness).inner(v.witness)
    assert gap == Scalar.exact(4)
    assert revalidate_witness(v, right_shift(2))


def test_star_paranormal_stage_three_refutes_a_rotated_weighted_shift():
    # R*WR with W the weighted shift of weights 5, 4, 4, ... (25 > 4 * 4, so
    # W is not star-paranormal) and R the rotation (3/5, 4/5) on e0, e1: one
    # sample misses, the k-grid section finds the witness
    w = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([Scalar.exact(5)], Scalar.exact(4))})})
    c, s = Fraction(3, 5), Fraction(4, 5)
    r = identity_operator((L2,)) + OperatorExpr((L2,), {(0, 0): FiniteRankBlock(
        {(0, 0): c - 1, (0, 1): -s, (1, 0): s, (1, 1): c - 1})})
    t = multiply(multiply(adjoint(r), w), r)
    v = star_paranormal_check(t, samples=1, seed=0)
    assert v.status == "Refuted" and v.evidence["stage"] == 3
    assert v.witness.is_exact() and revalidate_witness(v, t)


def test_hyponormal_shift_and_its_adjoint():
    assert hyponormal_check(right_shift()).status == "Proven"
    v = hyponormal_check(adjoint(right_shift()))
    assert v.status == "Refuted" and v.witness.support() == [(0, 0)]
    assert revalidate_witness(v, adjoint(right_shift()))


def test_hyponormal_float_corner_refuted():
    # on float data the corner of T*T - TT* goes to the eigensolver: for
    # S*/2 it is diag(-1/4, 0, ...)
    t = adjoint(right_shift()).scaled(0.5)
    v = hyponormal_check(t)
    assert v.status == "Refuted" and v.evidence["min_eig"] == -0.25
    assert revalidate_witness(v, t)


def test_is_normal_float_window_difference_small():
    t = OperatorExpr((finite(2),), {(0, 0): DenseBlock([[1.0, 1e-12], [0.0, 2.0]])})
    v = is_normal(t)
    assert v.status == "Numerical"
    assert v.evidence["window_norm"] == pytest.approx(2 ** 0.5 * 1e-12, rel=1e-6)


def test_hyponormal_example1_decided_exactly():
    v = hyponormal_check(example1())
    # the displayed operator computes as hyponormal; the verdict must come
    # from the exact corner decision, whatever the prose says
    assert v.status == "Proven"
    assert "corner" in v.evidence["rule"]


def test_hyponormal_example2_adjoint_certified_tail():
    v = hyponormal_check(adjoint(example2()))
    assert v.status == "Proven"
    assert v.evidence["tail"] == "psd"


@given(st.one_of(banded_operators(), st.integers(0, 10 ** 6).map(random_exact_operator)))
def test_commutator_limits_cancel_on_every_rule_free_diagonal(t):
    # T*T and TT* share each l2 component's symbol and every other block has
    # finite rank, so on exact data no rule-free diagonal of T*T - TT* on the
    # l2 diagonal ends in a nonzero limit: `_tail_analysis` never reads one
    d = _commutator(t)
    assert d.is_exact_scalars()
    for i in d.l2_components():
        blk = d.blocks.get((i, i))
        for seq in (blk.diagonals.values() if blk is not None else ()):
            assert seq.rule is not None or seq.limit.is_zero()


def test_paranormal_nilpotent_refuted():
    v = paranormal_refute(nilpotent_pair(), samples=50, seed=3)
    assert v.status == "Refuted"
    assert v.witness.support() == [(0, 1)]
    assert revalidate_witness(v, nilpotent_pair())


def test_paranormal_isometry_no_witness():
    v = paranormal_refute(right_shift(), samples=3000, seed=3)
    assert v.status == "Numerical"
    assert v.evidence["checked"] >= 3000


def test_paranormal_decreasing_weights_refuted():
    t = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([2], Scalar.exact(1))})})
    v = paranormal_refute(t, samples=200, seed=3)
    assert v.status == "Refuted"
    assert revalidate_witness(v, t)


def test_star_paranormal_stage1_structural():
    v = star_paranormal_check(right_shift(), samples=100, seed=1)
    assert v.status == "Proven" and v.evidence["stage"] == 1
    t3 = direct_sum(flip_unitary().scaled(3), right_shift(2))
    v3 = star_paranormal_check(t3, samples=100, seed=1)
    assert v3.status == "Proven"


def test_star_paranormal_nilpotent_witness():
    v = star_paranormal_check(nilpotent_pair(), samples=100, seed=1)
    assert v.status == "Refuted"
    assert v.witness.support() == [(0, 0)]
    assert revalidate_witness(v, nilpotent_pair())


def test_star_paranormal_example2_refuted_at_stage_two():
    # example 2 is not hyponormal, and its first basis vector already breaks
    # ||T*x||^2 <= ||T^2 x|| ||x||, so sampling refutes it before stage 3
    t2 = example2()
    v = star_paranormal_check(t2, samples=400, seed=2, k_grid=12, trunc=96)
    assert v.status == "Refuted"
    assert v.evidence["stage"] == 2 and v.evidence["checked"] == 1
    assert revalidate_witness(v, t2)


def _weighted_shift(a, b, c):
    """The weighted shift of weights a, b, c, c, c, ..."""
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([Scalar.exact(a), Scalar.exact(b)], Scalar.exact(c))})})


def test_star_paranormal_stage_three_numerical_on_a_weighted_shift():
    # weights 3, 1, 9, 9, ...: 3^2 <= 1 * 9, so no vector refutes, and the
    # k-sections are diagonal
    v = star_paranormal_check(_weighted_shift(3, 1, 9), k_grid=32, samples=200, seed=3)
    assert v.status == "Numerical" and v.evidence["stage"] == 3
    assert v.evidence["min_section_eig"] == 3.3999730400938404


@pytest.mark.parametrize("weights", [(3, 1, 9), (3, 1, 10), (4, 2, 9), (3, 2, 5)])
def test_diagonal_section_minimum_matches_the_eigensolver(weights):
    # scales on both edges of LAPACK's unscaled range, where the eigensolver
    # rescales and the diagonal alone would differ in the last bits
    for e in (-80, -60, -40, -37, 0, 36, 37, 38, 60):
        t = _weighted_shift(*weights).scaled(Fraction(10) ** e)
        sec4 = truncate(gram(multiply(t, t)), 64).matrix
        sec2 = truncate(cogram(t), 64).matrix
        assert _real_diagonal(sec4) is not None and _real_diagonal(sec2) is not None
        norm2 = modulus_summary(t).norm ** 2
        ks = np.geomspace(2.0 * norm2 * 1e-6, 2.0 * norm2, 32)
        got = [w.hex() for w in _section_min_eigs(sec4, sec2, ks)]
        want = [float(np.linalg.eigvalsh(_section(sec4, sec2, k))[0]).hex() for k in ks]
        assert got == want, e


@given(st.data())
def test_star_paranormal_on_the_weighted_shift_family(data):
    # weights a, b, c, c, ... with b < a: star-paranormal exactly when
    # a^2 <= b c, and otherwise the basis vector e1 refutes it
    a = data.draw(st.integers(2, 6))
    b = data.draw(st.integers(1, a - 1))
    c = data.draw(st.integers(b, -(-a * a // b) + 2))
    t = _weighted_shift(a, b, c)
    v = star_paranormal_check(t, samples=200)
    if a * a > b * c:
        assert v.status == "Refuted" and revalidate_witness(v, t)
    else:
        assert v.status == "Numerical" and v.evidence["stage"] == 3


def test_norm_attaining_scaled_shift_full():
    v = norm_attaining_check(right_shift(2))
    assert v.status == "Proven" and v.subspace.kind == "full"


def test_norm_attaining_example1_cofinite():
    v = norm_attaining_check(example1())
    assert v.status == "Proven"
    assert v.subspace.kind == "cofinite" and v.subspace.tails == {0: 0}


def test_norm_attaining_declared_limit_not_attained():
    rule = RationalFn.const(1) + RationalFn.power_term(-1, 1, 1)
    t = diag_operator([], rule=rule)
    v = norm_attaining_check(t)
    assert v.status == "Numerical"
    assert v.evidence["attaining"] is False


def test_an_example1_proven():
    assert an_check(example1()).status == "Proven"


def test_an_example2_adjoint_refuted():
    v = an_check(adjoint(example2()))
    assert v.status == "Refuted"
    assert "two points" in v.evidence["rule"]


def test_an_increasing_rule_refuted():
    rule = RationalFn.const(1) + RationalFn.power_term(-1, 1, 1)
    v = an_check(diag_operator([], rule=rule))
    assert v.status == "Refuted"
    assert "infinitely many" in v.evidence["rule"]


def test_an_decreasing_rule_accepted():
    rule = RationalFn.const(1) + RationalFn.power_term(1, 1, 1)
    v = an_check(diag_operator([], rule=rule))
    assert v.status == "Proven"


def test_an_exact_interval_refuted_however_narrow():
    # I + 10**-12 (S + S*): sigma_ess(T*T) is an interval of width ~8e-12,
    # below tol, but a nonconstant exact symbol has a range of positive width
    t = jacobi_operator(DiagonalSeq(limit=Scalar.exact(1)),
                        DiagonalSeq(limit=Scalar.exact(Fraction(1, 10 ** 12))))
    v = an_check(t)
    assert v.status == "Refuted"
    assert "positive diameter" in v.evidence["rule"]
    # on float data the width is compared against tol
    t = jacobi_operator(DiagonalSeq(limit=Scalar.inexact(1.0)),
                        DiagonalSeq(limit=Scalar.inexact(1e-12)))
    assert an_check(t).status == "Numerical"


def test_compute_m_mstar_scaled_shift():
    m, mstar = compute_M_and_Mstar(right_shift(2))
    assert m.kind == "full"
    assert mstar.kind == "cofinite" and mstar.tails == {0: 1}


def test_compute_m_mstar_example1_strict_inclusion():
    t = example1()
    m, mstar = compute_M_and_Mstar(t)
    assert m.tails == {0: 0}
    assert mstar.tails == {0: 1} and not mstar.vectors
    # strict: e0 lies in M but not in M*
    e0 = VectorExpr.basis(t.spaces, 0, 0)
    assert m.contains(e0) and not mstar.contains(e0)


def test_compute_m_mstar_unitary_block():
    t = direct_sum(flip_unitary().scaled(3), right_shift(2))
    m, mstar = compute_M_and_Mstar(t)
    assert m.dim() == 2 and mstar.dim() == 2
    eq, _ = m.equals(mstar, 1e-12)
    assert eq


def test_compute_m_mstar_requires_attainment():
    rule = RationalFn.const(1) + RationalFn.power_term(-1, 1, 1)
    with pytest.raises(NotNormAttaining):
        compute_M_and_Mstar(diag_operator([], rule=rule))


def test_mstar_orthogonal_to_kernels():
    t = right_shift(2)
    _, mstar = compute_M_and_Mstar(t)
    # N(T*) = span e0; the M* tail starts past it
    e0 = VectorExpr.basis(t.spaces, 0, 0)
    assert mstar.project(e0).is_zero()


def test_an_check_counts_below_the_exact_essential_minimum():
    # every entry of T*T lies below m_e^2 = a^2, though a float bound
    # 1e-17 below a^2 cuts the count off after 298 entries
    a, b = Fraction(25001, 25000), Fraction(1, 650859370833500)
    v = an_check(diag_operator([], limit=a, rule=RationalFn([a - b, a], [1, 1])))
    assert v.status == "Refuted"
    assert v.evidence["rule"].startswith("infinitely many spectrum points")


def test_norm_attaining_labels_the_norm_from_exact_data():
    # the corner entry squared is within 1e-9 of ||T||^2 = 4, which only
    # the increasing tail approaches
    t = diag_operator([Fraction(19999999999, 10 ** 10)], limit=2,
                      rule=RationalFn([1, 2], [1, 1]))
    v = norm_attaining_check(t)
    assert v.status == "Numerical" and v.evidence["attaining"] is False
    assert v.evidence["norm2"] == 4.0


def _tiny_nilpotent(e):
    """T = 10^-e e0 (x) e1*: T^2 = 0 and ||T*e0|| = 10^-e, so e0 violates
    ||T*x||^2 <= ||T^2 x|| ||x|| (and e1 the paranormal inequality)."""
    return OperatorExpr((L2,), {(0, 0): FiniteRankBlock({(0, 1): Fraction(1, 10 ** e)})})


@pytest.mark.parametrize("e", [80, 120])
def test_sampling_refutes_violations_of_tiny_norm(e):
    # ||T*e0||^4 = 10^-4e lies below 1e-300 (e = 80) or underflows to 0.0
    # (e = 120) while the right side is exactly 0.0; the exact re-check
    # still decides these columns
    t = _tiny_nilpotent(e)
    star = star_paranormal_check(t, samples=500)
    para = paranormal_refute(t, samples=500)
    assert star.status == para.status == "Refuted"
    assert star.evidence["stage"] == 2
    assert revalidate_witness(star, t) and revalidate_witness(para, t)


def test_screen_keeps_columns_whose_squared_bound_underflows():
    from anop.predicates import _sample_region, _window_screen
    t = _tiny_nilpotent(120)
    region = _sample_region(t)
    x = np.eye(len(region), dtype=complex)
    for kind, col in (("T*", (0, 0)), ("T", (0, 1))):
        assert not _window_screen(t, kind, region)(x)[region.index(col)]


@pytest.mark.parametrize("e", [79.5, 81.0])
def test_sampling_keeps_float_operators_of_tiny_scale_numerical(e):
    # float data has no exact re-check: a*a and b*c are subnormal here, and
    # their coarse rounding must not read as a violation of a paranormal
    # (scaled shift) or star-paranormal (weights 2, 1, 4, 4, ...) operator
    s = 10.0 ** -e
    shift = right_shift(s)
    weighted = OperatorExpr((L2,), {(0, 0): BandedBlock({1: DiagonalSeq(
        [Scalar.of(2 * s), Scalar.of(s)], Scalar.of(4 * s))})})
    assert not shift.is_exact_scalars() and not weighted.is_exact_scalars()
    assert paranormal_refute(shift, samples=500).status == "Numerical"
    assert star_paranormal_check(weighted, samples=500).status == "Numerical"
