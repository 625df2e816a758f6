"""Verdict-engine contracts, with every Refuted witness re-validated."""

from fractions import Fraction

import pytest

from anop.blocks import BandedBlock
from anop.diagonals import DiagonalSeq
from anop.errors import NotNormAttaining
from anop.gallery import (diag_operator, example1, example2, flip_unitary,
                          jacobi_operator, nilpotent_pair, right_shift)
from anop.operators import (L2, OperatorExpr, adjoint, apply, direct_sum,
                            identity_operator, multiply)
from anop.predicates import (an_check, compute_M_and_Mstar, hyponormal_check,
                             is_normal, norm_attaining_check, paranormal_refute,
                             revalidate_witness, star_paranormal_check)
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.vectors import VectorExpr


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


def test_hyponormal_shift_and_its_adjoint():
    assert hyponormal_check(right_shift()).status == "Proven"
    v = hyponormal_check(adjoint(right_shift()))
    assert v.status == "Refuted" and v.witness.support() == [(0, 0)]
    assert revalidate_witness(v, adjoint(right_shift()))


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


def test_star_paranormal_stage3_numerical():
    # the example-2 adjoint is proven hyponormal structurally; use the
    # example-2 operator itself, which is not hyponormal, for stage 3
    t2 = example2()
    v = star_paranormal_check(t2, samples=400, seed=2, k_grid=12, trunc=96)
    assert v.status in ("Refuted", "Numerical")
    if v.status == "Refuted":
        assert revalidate_witness(v, t2)


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
