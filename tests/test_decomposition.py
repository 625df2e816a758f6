"""Decomposition contracts: invariance, peeling, the U (+) D view, the
finite-corner block inverse, and the normality certificates."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anop import decomposition
from anop.blocks import BandedBlock, DenseBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.decomposition import (assemble_upper, block_upper_inverse,
                                certify_normal, compress_to_complement,
                                coupling_vanishes, invariance_check,
                                m_star_equals_m_check, peel_decompose,
                                reducing_check, u_plus_d_view)
from anop.errors import (HypothesisFailed, NotInvertible, ShapeMismatch,
                         StarParanormalRefuted, StructureViolation)
from anop.exactla import inverse
from anop.gallery import (diag_operator, example1, flip_unitary,
                          nilpotent_pair, random_rational_unitary,
                          random_theorem_form, right_shift, theorem_form)
from anop.operators import (L2, OperatorExpr, adjoint, apply, dense_window,
                            direct_sum, finite, identity_operator, multiply,
                            ops_equal_exact, window_layout)
from anop.predicates import an_check, compute_M_and_Mstar, star_paranormal_check
from anop.scalars import Scalar
from anop.serialize import load
from anop.spectral import (adjoint_modulus_summary, modulus_summary,
                           summary_eigenspace)
from anop.subspaces import Subspace
from anop.vectors import VectorExpr


def test_invariance_of_shift_tail():
    t = right_shift(2)
    m = Subspace.cofinite(t.spaces, {0: 1})
    assert invariance_check(t, m).status == "Proven"


def test_invariance_kernel_vector():
    t = adjoint(right_shift())
    m = Subspace.span(t.spaces, [VectorExpr.basis(t.spaces, 0, 0)])
    # S* e0 = 0 lies inside every subspace
    assert invariance_check(t, m).status == "Proven"


def test_invariance_refuted_on_flip():
    t = OperatorExpr((finite(2),), {(0, 0): DenseBlock([[0, 1], [0, 0]])})
    m = Subspace.span(t.spaces, [VectorExpr.basis(t.spaces, 0, 1)])
    v = invariance_check(t, m)
    assert v.status == "Refuted" and v.witness.support() == [(0, 1)]


def test_reducing_direct_summand():
    t = direct_sum(flip_unitary().scaled(3), right_shift(2))
    m = Subspace.span(t.spaces, [VectorExpr.basis(t.spaces, 0, 0),
                                 VectorExpr.basis(t.spaces, 0, 1)])
    assert reducing_check(t, m).status == "Proven"
    assert reducing_check(identity_operator((L2,)),
                          Subspace.cofinite((L2,), {0: 4})).status == "Proven"


def test_reducing_detects_one_sided_invariance():
    t = example1()
    _, mstar = compute_M_and_Mstar(t)
    fwd = invariance_check(t, mstar)
    v = reducing_check(t, mstar)
    assert fwd.status == "Proven"
    assert v.status == "Refuted"
    assert v.evidence["invariant_under_T_star"] == "Refuted"


def test_peel_flip_plus_shift():
    t = direct_sum(flip_unitary().scaled(3), right_shift(2))
    cert = peel_decompose(t, samples=200)
    assert [(p.value, p.space.dim()) for p in cert.peeled] == [(3.0, 2)]
    assert np.allclose(cert.peeled[0].matrix, [[0, 1], [1, 0]])
    assert cert.h2.kind == "cofinite" and cert.h2.tails == {1: 1}
    assert cert.h3.dim() == 1
    assert len(cert.a_cols) == 1 and cert.a_cols[0].get(1, 1) == Scalar.exact(2)
    assert cert.s_star_a_exact_zero
    assert cert.b_matrix[0][0].is_zero()
    assert cert.reconstruction_residual <= 1e-12
    assert cert.tail_value == 2.0


def test_peel_scalar_multiple_of_unitary():
    t = direct_sum(flip_unitary().scaled(2), identity_operator((L2,)).scaled(2))
    cert = peel_decompose(t, samples=100)
    assert not cert.peeled
    assert cert.h2.kind == "full"
    assert cert.h3.dim() == 0 and not cert.a_cols
    u, d = u_plus_d_view(cert)
    assert u == [] and d["value"] == 2.0


def test_peel_example1():
    cert = peel_decompose(example1(), samples=300)
    assert not cert.peeled
    assert cert.tail_value == 2.0 and cert.m_e == 2.0 and cert.norm == 2.0
    assert cert.h2.tails == {0: 1}
    assert cert.h3.dim() == 3
    assert sorted(round(d, 10) for d in cert.delta_spectrum) == \
        [1.0, round(math.sqrt(2), 10)]
    assert [round(b.value, 10) for b in cert.below] == [1.0]
    assert [round(a, 10) for a in cert.absorbed_deltas] == [round(math.sqrt(2), 10)]
    assert cert.s_star_a_exact_zero
    assert cert.reconstruction_residual <= 1e-12


def test_peeling_order_top_value_is_norm():
    for seed in (2, 5, 8):
        t, params = random_theorem_form(seed)
        cert = peel_decompose(t, samples=200, seed=seed)
        if cert.peeled:
            assert abs(cert.peeled[0].value - cert.norm) <= 1e-12
            vals = [p.value for p in cert.peeled]
            assert vals == sorted(vals, reverse=True)


def test_peel_certificate_projectors_consistent():
    t, _ = random_theorem_form(4)
    cert = peel_decompose(t, samples=200, seed=4)
    assert cert.split_residual <= 1e-10
    assert cert.reconstruction_residual <= 1e-8


@given(st.integers(1, 40))
def test_peel_h1_and_h3_split_the_tail_complement_exactly(seed):
    t, _ = random_theorem_form(seed)
    cert = peel_decompose(t, samples=200, seed=seed)
    family = [u for lvl in cert.peeled for u in lvl.space.vectors]
    family += list(cert.h3.vectors)
    assert all(u.is_exact() for u in family)
    for i, u in enumerate(family):
        assert all(u.inner(w).is_zero() for w in family[i + 1:])
    # H1 (+) H3 is the orthogonal complement of H2, exactly
    comp = cert.h2.complement()
    assert comp.dim() == len(family)
    for c in comp.vectors:
        r = c
        for u in family:
            r = r - u.scaled(c.inner(u) / u.norm2())
        assert r.is_zero()
    assert cert.s_star_a_exact_zero


def test_peel_refuses_non_star_paranormal():
    with pytest.raises(StarParanormalRefuted):
        peel_decompose(nilpotent_pair(), samples=200)


def test_peel_budget_truncates_declared_stream():
    from anop.gallery import diag_operator
    from anop.ratfn import RationalFn
    rule = RationalFn.const(1) + RationalFn.power_term(1, 1, 1)
    t = diag_operator([], rule=rule)
    cert = peel_decompose(t, max_peel=8, samples=100)
    assert isinstance(cert.lambda_card, str) and cert.lambda_card.startswith("truncated")
    assert len(cert.peeled) == 8
    assert cert.tier == "numerical"


def test_u_plus_d_view_flip_plus_shift():
    t = direct_sum(flip_unitary().scaled(3), right_shift(2))
    cert = peel_decompose(t, samples=200)
    u, d = u_plus_d_view(cert)
    assert len(u) == 1 and u[0][0] == 3.0
    assert d["value"] == 2.0 and d["h3_dim"] == 1
    assert d["b_matrix"][0][0] == [0.0, 0.0]


def test_u_plus_d_view_example1_below_unitary():
    cert = peel_decompose(example1(), samples=300)
    u, d = u_plus_d_view(cert)
    assert [(round(lam, 10), m.shape) for lam, m in u] == [(1.0, (1, 1))]
    assert d["h3_dim"] == 3


def test_block_inverse_2x2():
    a = OperatorExpr((finite(1),), {(0, 0): DenseBlock([[2]])})
    b = [VectorExpr(a.spaces, [{0: Scalar.exact(1)}])]
    inv = block_upper_inverse(a, b, [[1]])
    assert inv.exact and inv.residual == 0.0
    assert inv.a_inv.blocks[(0, 0)].entries[(0, 0)] == Scalar.exact(Fraction(1, 2))
    assert inv.y_cols[0].get(0, 0) == Scalar.exact(Fraction(-1, 2))
    assert inv.c_inv[0][0] == Scalar.exact(1)


def test_block_inverse_takes_the_tier_of_c_from_c(monkeypatch):
    # a float (1,1) block beside an exact c keeps c's inverse exact
    float_a = OperatorExpr((finite(1),), {(0, 0): DenseBlock([[2.0]])})
    inv = block_upper_inverse(float_a, [VectorExpr(float_a.spaces)], [[Scalar.exact(3)]])
    assert inv.c_inv == [[Scalar.exact(Fraction(1, 3))]] and inv.c_inv[0][0].is_exact
    assert not inv.exact
    # an exact (1,1) block beside a float c sends no float rows to exact elimination
    rows = []

    def exact_inverse_spy(a):
        rows.extend(a)
        return inverse(a)
    monkeypatch.setattr(decomposition, "exact_inverse", exact_inverse_spy)
    exact_a = OperatorExpr((finite(1),), {(0, 0): DenseBlock([[2]])})
    inv = block_upper_inverse(exact_a, [VectorExpr(exact_a.spaces)], [[Scalar.inexact(4.0)]])
    assert all(v.is_exact for row in rows for v in row)
    assert inv.c_inv == [[Scalar.inexact(0.25)]] and not inv.exact


def test_block_inverse_scaled_unitary_and_random_c():
    import random
    rng = random.Random(9)
    u4 = random_rational_unitary(rng, 4)
    a = OperatorExpr((finite(4),), {(0, 0): DenseBlock(u4).scaled(2)})
    b = [VectorExpr(a.spaces, [{rng.randint(0, 3): Scalar.exact(1)}])
         for _ in range(3)]
    c = [[Scalar.exact(rng.randint(1, 3)) if i == j else
          Scalar.exact(Fraction(rng.randint(-2, 2), 3)) for j in range(3)]
         for i in range(3)]
    inv = block_upper_inverse(a, b, c)
    assert inv.exact and inv.residual == 0.0


def test_block_inverse_refuses_an_empty_finite_block():
    # the finite block lives on its own finite component, which needs a
    # positive dimension
    with pytest.raises(ShapeMismatch):
        block_upper_inverse(flip_unitary(), [], [])


def test_block_inverse_singular_block_rejected():
    a = OperatorExpr((finite(2),), {(0, 0): DenseBlock([[1, 0], [0, 0]])})
    b = [VectorExpr(a.spaces, [{}])]
    with pytest.raises(NotInvertible):
        block_upper_inverse(a, b, [[1]])


@pytest.mark.parametrize("coupled", [False, True])
def test_block_inverse_tiny_finite_block_is_exact(coupled):
    # the minimum modulus 1e-11 lies below tol, yet the inverse exists and
    # its two-sided products are exactly the identity
    a = identity_operator((L2,)).scaled(2)
    b = [VectorExpr.basis(a.spaces, 0, 0) if coupled else VectorExpr(a.spaces, [{}])]
    inv = block_upper_inverse(a, b, [[Fraction(1, 10 ** 11)]])
    assert inv.exact and inv.residual == 0.0
    assert inv.c_inv[0][0] == Scalar.exact(10 ** 11)


def test_block_inverse_float_finite_block():
    a = identity_operator((L2,)).scaled(2.0)
    b = [VectorExpr(a.spaces, [{}])]
    with pytest.raises(NotInvertible):
        block_upper_inverse(a, b, [[0.0]])
    inv = block_upper_inverse(a, b, [[1e-12]])
    assert not inv.exact and inv.residual == 0.0


def test_coupling_vanishes_proven_on_zero():
    a = identity_operator((L2,)).scaled(2)
    v = coupling_vanishes(a, [VectorExpr(a.spaces, [{}])], [[1]])
    assert v.status == "Proven"


def test_coupling_strict_isometry_not_invertible():
    s2 = right_shift(2)
    b = [VectorExpr(s2.spaces, [{0: Scalar.exact(1)}])]
    with pytest.raises(NotInvertible):
        coupling_vanishes(s2, b, [[1]])


def test_coupling_hypothesis_failure():
    a = identity_operator((L2,)).scaled(2)
    b = [VectorExpr(a.spaces, [{0: Scalar.exact(1)}])]
    with pytest.raises(HypothesisFailed):
        coupling_vanishes(a, b, [[1]])  # S*b != 0 for the identity
    # invertible, but the (1,1) block diag(1, 2, 2, ...) is no scaled isometry
    a = diag_operator([1], limit=2)
    with pytest.raises(HypothesisFailed, match="not isometric"):
        coupling_vanishes(a, [VectorExpr(a.spaces, [{}])], [[1]])


def test_coupling_invertibility_is_exact_not_a_modulus_gate():
    # [[2I, 0], [0, 1/10**11]] is invertible although both minimum moduli
    # are below tol; the exact product check decides it
    a = identity_operator((L2,)).scaled(2)
    v = coupling_vanishes(a, [VectorExpr(a.spaces, [{}])],
                          [[Fraction(1, 10 ** 11)]])
    assert v.status == "Proven"
    assert v.evidence["inverse_residual"] == 0.0 and "m" not in v.evidence


def test_coupling_on_float_data_is_numerical():
    a = identity_operator((L2,)).scaled(2.0)
    v = coupling_vanishes(a, [VectorExpr(a.spaces, [{}])], [[1.0]])
    assert v.status == "Numerical" and v.evidence["b_norm"] == 0.0


def test_coupling_decides_s_star_b_exactly():
    # S = I, so S*b = b = 10**-11 e0 is nonzero although its norm is below tol
    a = identity_operator((L2,)).scaled(2)
    b = [VectorExpr(a.spaces, [{0: Scalar.exact(Fraction(1, 10 ** 11))}])]
    with pytest.raises(HypothesisFailed, match="S\\*b does not vanish"):
        coupling_vanishes(a, b, [[1]])


def _tiny_modulus_2i():
    tiny = OperatorExpr((finite(1),), {(0, 0): DenseBlock([[Fraction(1, 10 ** 11)]])})
    return direct_sum(identity_operator((L2,)).scaled(2), tiny)


def test_certify_invertible_with_tiny_minimum_modulus():
    cert = certify_normal(_tiny_modulus_2i(), samples=100)
    assert cert.route == "InvertiblePath" and cert.normal
    assert cert.commutator_bound == 0.0
    assert cert.details["m"] == pytest.approx(1e-11)
    assert "kernel_dims" not in cert.details


def test_certify_finite_only_kernel_path():
    # 0 (+) flip has no essential spectrum, so 0 lies outside it
    t = direct_sum(OperatorExpr((finite(1),), {}), flip_unitary())
    cert = certify_normal(t, samples=100)
    assert cert.route == "KernelDimPath" and cert.normal
    assert cert.commutator_bound == 0.0
    assert cert.details["zero_outside_weyl_spectrum"] is True
    assert cert.details["restricted_spaces"] == ["finite"]
    assert cert.details["restricted_route"] == "InvertiblePath"


def test_certify_zero_operator_on_finite_space():
    cert = certify_normal(OperatorExpr((finite(2),), {}), samples=100)
    assert cert.route == "KernelDimPath" and cert.normal
    assert cert.details["restricted_spaces"] == []


@st.composite
def _normal_direct_sums(draw):
    """Exact normal direct sums: scaled rational unitaries, optionally a
    1/10**11 block, a zero summand and a scaled identity on l2."""
    positive = st.fractions(min_value=Fraction(1, 3), max_value=4,
                            max_denominator=3)
    summands = []
    for lam, n, seed in draw(st.lists(st.tuples(positive, st.integers(1, 3),
                                                st.integers(0, 10 ** 6)),
                                      min_size=1, max_size=3)):
        u = random_rational_unitary(random.Random(seed), n)
        summands.append(OperatorExpr((finite(n),), {(0, 0): DenseBlock(u)})
                        .scaled(Scalar.exact(lam)))
    if draw(st.booleans()):
        summands.append(OperatorExpr((finite(1),), {(0, 0): DenseBlock(
            [[Fraction(1, 10 ** 11)]])}))
    zero = draw(st.booleans())
    if zero:
        summands.append(OperatorExpr((finite(draw(st.integers(1, 2))),), {}))
    if draw(st.booleans()):
        summands.append(identity_operator((L2,)).scaled(Scalar.exact(draw(positive))))
    order = draw(st.permutations(range(len(summands))))
    return direct_sum(*(summands[i] for i in order)), zero


@given(_normal_direct_sums())
def test_certify_normal_direct_sums(case):
    t, zero = case
    cert = certify_normal(t, samples=100)
    assert cert.normal and cert.commutator_bound == 0.0
    assert cert.route == ("KernelDimPath" if zero else "InvertiblePath")


def test_certify_invertible_path():
    t = direct_sum(flip_unitary().scaled(3), identity_operator((L2,)).scaled(2))
    cert = certify_normal(t, samples=100)
    assert cert.route == "InvertiblePath" and cert.normal
    assert cert.commutator_bound == 0.0


def test_certify_checks_hypotheses_once(monkeypatch):
    import anop.decomposition as dec
    calls = {"an_check": 0, "star_paranormal_check": 0}

    def counted(name):
        orig = getattr(dec, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dec, name, counted(name))
    t = direct_sum(flip_unitary(), identity_operator((L2,)).scaled(2))
    cert = certify_normal(t, samples=100)
    assert cert.route == "InvertiblePath" and cert.normal
    assert calls == {"an_check": 1, "star_paranormal_check": 1}


@pytest.mark.parametrize("middle, route, operators", [
    ((), "InvertiblePath", 1),
    ((OperatorExpr((finite(1),), {}),), "KernelDimPath", 2),
])
def test_certify_requires_hypotheses_once_per_operator(monkeypatch, middle, route,
                                                       operators):
    # the invertible route peels without a second hypothesis check; the
    # kernel route checks the compressed operator it certifies as well
    import anop.decomposition as dec
    seen = []
    orig = dec._require_hypotheses

    def counted(t, *args):
        seen.append(t)
        return orig(t, *args)
    monkeypatch.setattr(dec, "_require_hypotheses", counted)
    t = direct_sum(flip_unitary(), *middle, identity_operator((L2,)).scaled(2))
    cert = certify_normal(t, samples=100)
    assert cert.route == route and cert.normal
    assert len(seen) == len({id(s) for s in seen}) == operators and seen[0] is t


def _count_layers(monkeypatch):
    """Count calls of apply, multiply, positive_spectral_summary and
    kernel_basis through every anop binding of each; a kernel_basis call
    counts only when it has rows to eliminate (with none it returns the unit
    basis)."""
    import sys
    import anop.exactla
    import anop.operators
    import anop.spectral
    targets = ((anop.operators, "apply"), (anop.operators, "multiply"),
               (anop.spectral, "positive_spectral_summary"),
               (anop.exactla, "kernel_basis"))
    calls = {name: 0 for _, name in targets}

    def counted(name, orig):
        def wrapper(*args, **kwargs):
            if name != "kernel_basis" or args[0]:
                calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        orig = getattr(owner, name)
        wrapper = counted(name, orig)
        for key, mod in list(sys.modules.items()):
            if key.startswith("anop") and vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    return calls


SEED5_SCALED = Path(__file__).parent / "golden" / "operators" / \
    "theorem_form_seed5_scaled.json"


@pytest.mark.parametrize("middle, route, max_products, summaries", [
    ((), "InvertiblePath", 2, 2),
    ((OperatorExpr((finite(1),), {}),), "KernelDimPath", 4, 4),
])
def test_certify_reuses_modulus_summaries(monkeypatch, middle, route,
                                          max_products, summaries):
    """certify_normal builds T*T, TT* and their summaries once per operator
    (the KernelDimPath certifies a second, compressed operator)."""
    calls = _count_layers(monkeypatch)
    t = direct_sum(flip_unitary(), *middle, identity_operator((L2,)).scaled(2))
    cert = certify_normal(t, samples=100)
    assert cert.route == route and cert.normal
    assert calls["multiply"] <= max_products
    assert calls["positive_spectral_summary"] == summaries


def test_peel_builds_each_derived_object_once(monkeypatch):
    calls = _count_layers(monkeypatch)
    peel_decompose(example1(), samples=300)
    assert calls["multiply"] <= 2 and calls["positive_spectral_summary"] == 2
    assert calls["kernel_basis"] <= 7
    # T meets each H3 basis vector once, for both the coupling and the B block
    assert calls["apply"] <= 16


def test_block_inverse_builds_no_spectral_summary(monkeypatch):
    calls = _count_layers(monkeypatch)
    a = identity_operator((L2,)).scaled(2)
    inv = block_upper_inverse(a, [VectorExpr.basis(a.spaces, 0, 0)], [[3]])
    assert inv.exact
    assert calls["positive_spectral_summary"] == 0


def test_peel_non_hyponormal_form_builds_each_derived_object_once(monkeypatch):
    # stage 3 of the star-paranormal check needs |T| and TT* again, and
    # (T^2)*T^2 besides: 4 products and 3 summaries (|T| at two truncations)
    t = load(str(SEED5_SCALED))
    calls = _count_layers(monkeypatch)
    peel_decompose(t, samples=300)
    assert calls["multiply"] <= 4 and calls["positive_spectral_summary"] == 3
    for name in calls:
        calls[name] = 0
    assert star_paranormal_check(t, samples=300).status != "Refuted"
    assert calls["multiply"] <= 4 and calls["positive_spectral_summary"] == 1


def test_derived_memo_ends_with_the_call(monkeypatch):
    calls = _count_layers(monkeypatch)
    t = direct_sum(flip_unitary(), OperatorExpr((finite(1),), {}),
                   identity_operator((L2,)).scaled(2))
    certify_normal(t, samples=100)
    first = calls["positive_spectral_summary"]
    certify_normal(t, samples=100)
    assert calls["positive_spectral_summary"] == 2 * first
    calls["positive_spectral_summary"] = 0
    modulus_summary(t)
    modulus_summary(t)
    assert calls["positive_spectral_summary"] == 2


def test_certify_kernel_path():
    zero1 = OperatorExpr((finite(1),), {})
    t = direct_sum(zero1, flip_unitary().scaled(3),
                   identity_operator((L2,)).scaled(2))
    cert = certify_normal(t, samples=100)
    assert cert.route == "KernelDimPath" and cert.normal
    assert cert.commutator_bound == 0.0
    assert cert.details["kernel_dims"]["dim_N_T"] == 1


def test_certify_not_applicable_on_shift():
    cert = certify_normal(right_shift(2), samples=100)
    assert cert.route == "NotApplicable" and not cert.normal
    kd = cert.details["kernel_dims"]
    assert (kd["dim_N_T"], kd["dim_N_T_star"]) == (0, 1)


def test_compress_to_complement_drops_kernel_block():
    zero1 = OperatorExpr((finite(1),), {})
    t = direct_sum(zero1, flip_unitary().scaled(3),
                   identity_operator((L2,)).scaled(2))
    from anop.spectral import positive_spectral_summary, summary_eigenspace
    s = positive_spectral_summary(multiply(adjoint(t), t))
    ker = summary_eigenspace(s, Scalar.exact(0))
    assert ker.dim() == 1
    t2 = compress_to_complement(t, ker)
    assert min(modulus_summary(t2).m, adjoint_modulus_summary(t2).m) > 1.0
    assert an_check(t2).status == "Proven"


def test_compress_to_complement_keeps_couplings_between_tails():
    # T(x, y) = (D0 x + C01 y, C10 x + D1 y) on l2 (+) l2 with kernel spanned
    # by (3 e0, -4 e0): the complement keeps both tails from 1 and the extra
    # direction (4 e0, 3 e0)/5, so every coupling branch has entries
    x = Scalar.exact
    t = OperatorExpr((L2, L2), {
        (0, 0): BandedBlock({0: DiagonalSeq([x(4)], x(2))}),
        (0, 1): FiniteRankBlock({(0, 0): x(3), (0, 1): x(0, 2), (1, 2): x(1)}),
        (1, 0): FiniteRankBlock({(0, 0): x(4), (2, 0): x(4), (3, 1): x(1)}),
        (1, 1): BandedBlock({0: DiagonalSeq(limit=x(3)),
                             2: DiagonalSeq([x(3)], x(0))}),
    })
    kernel = summary_eigenspace(modulus_summary(t).base, x(0))
    assert kernel.dim() == 1
    comp = kernel.complement()
    extras = comp.onb()
    assert comp.tails == {0: 1, 1: 1} and len(extras) == 1
    c = compress_to_complement(t, kernel)
    assert {(0, 2), (2, 0), (1, 2), (2, 1)} <= set(c.blocks)
    basis = {0: lambda k: extras[k],
             1: lambda k: VectorExpr.basis(t.spaces, 0, 1 + k),
             2: lambda k: VectorExpr.basis(t.spaces, 1, 1 + k)}
    sizes = [1, 8, 8]
    _, labels = window_layout(c.spaces, sizes)
    window = dense_window(c, sizes)
    for i, (ci, k) in enumerate(labels):
        for j, (cj, kk) in enumerate(labels):
            assert window[i][j] == apply(t, basis[cj](kk)).inner(basis[ci](k)), \
                ((ci, k), (cj, kk))


def test_an_check_survives_tail_restriction():
    # restriction to a cofinite invariant tail keeps the AN verdict
    t = right_shift(2)
    ker_like = Subspace.span(t.spaces, [VectorExpr.basis(t.spaces, 0, k)
                                        for k in range(3)])
    restricted = compress_to_complement(t, ker_like)
    assert an_check(t).status == an_check(restricted).status == "Proven"


def test_mstar_equals_m_fixtures():
    t3 = direct_sum(flip_unitary().scaled(3), right_shift(2))
    assert m_star_equals_m_check(t3).status == "Proven"
    lam_u = direct_sum(flip_unitary().scaled(2),
                       OperatorExpr((L2,), {}))
    assert m_star_equals_m_check(lam_u).status == "Proven"
    v = m_star_equals_m_check(right_shift(2))
    assert v.status == "Undetermined"
    assert "MstarInfinite" in v.evidence["rule"]


def _vec_from_json(shape, payload):
    from anop.serialize import scalar_from_json
    data = [{k: scalar_from_json(v) for k, v in comp} for comp in payload]
    return VectorExpr(shape, data)


def test_certificate_json_is_externally_checkable():
    # everything needed to audit the split must survive serialization
    for fixture_seed in (None, 2, 6):
        if fixture_seed is None:
            t = direct_sum(flip_unitary().scaled(3), right_shift(2))
        else:
            t, _ = random_theorem_form(fixture_seed)
        cert = peel_decompose(t, samples=200, seed=fixture_seed or 0)
        blob = cert.to_json()
        # (a) each peeled level: T v_j = lam * sum_i S[i][j] v_i
        for lvl in blob["peeled"]:
            lam = lvl["value"]
            vecs = [_vec_from_json(t.spaces, v)
                    for v in lvl["eigenspace"]["vectors"]]
            mat = lvl["matrix"]
            for j, v in enumerate(vecs):
                tv = apply(t, v)
                rec = VectorExpr(t.spaces)
                for i, u in enumerate(vecs):
                    coef = complex(mat[i][j][0], mat[i][j][1]) * lam
                    rec = rec + u.scaled(Scalar.inexact(coef.real, coef.imag))
                assert (tv - rec).norm_float() <= 1e-9 * max(1.0, lam)
        # (b) the tail rows are isometric images of the witness basis
        iso = blob["tail"]["isometry"]
        if iso is not None:
            basis = cert.tail.window_basis()
            rows = [_vec_from_json(t.spaces, r) for r in iso["corner_rows"]]
            for i, (b1, r1) in enumerate(zip(basis, rows)):
                for j, (b2, r2) in enumerate(zip(basis, rows)):
                    lhs = complex(r1.inner(r2))
                    rhs = complex(b1.inner(b2))
                    assert abs(lhs - rhs) <= 1e-9
            # (c) coupling columns are orthogonal to the isometry's range
            for col_json in blob["tail"]["a_columns"]:
                col = _vec_from_json(t.spaces, col_json)
                for r in rows:
                    assert abs(complex(col.inner(r))) <= 1e-9
