"""Spectral module contracts: symbols, essential spectra, positive
summaries, moduli, diagonalization, and kernel dimensions."""

import copy
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anop.blocks import BandedBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.errors import (FiniteComponent, NotAN, NotPositive, NotSelfAdjoint,
                         UncertifiedTail)
from anop.gallery import diag_operator, example1, example2, jacobi_operator, right_shift
from anop.jacobi import sym_eigen
from anop.operators import (L2, OperatorExpr, adjoint, direct_sum, identity_operator,
                            multiply, finite)
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.spectral import (EigStream, ModulusSummary, Symbol, _all_beyond, _near_eigvecs,
                           _real_band,
                           check_self_adjoint, count_spectrum_in,
                           essential_spectrum, gram, kernel_dims, modulus_summary,
                           positive_an_diagonalize, positive_spectral_summary,
                           summary_eigenspace, symbol, symbolic_essential_spectrum)
from anop.subspaces import Subspace
from conftest import random_exact_operator


def _pt(v):
    return float(v.re) if isinstance(v, Scalar) else float(v)


def test_symbol_of_scaled_shift():
    s2 = right_shift(2)
    sym = symbol(s2, 0)
    assert set(sym.coeffs) == {1}
    assert abs(sym.eval_theta(0.7) - 2 * np.exp(0.7j)) < 1e-14


def test_symbol_of_jacobi_is_cosine():
    j = jacobi_operator()
    sym = symbol(j, 0)
    for th in (0.0, 0.5, 2.2):
        assert abs(sym.eval_theta(th) - 2 * math.cos(th)) < 1e-12


def test_symbol_on_angle_array_matches_angle_loop():
    # reference: one angle at a time with complex products, as range_real
    # and the star-paranormal k-grid evaluated the symbol before
    def one_angle(sym, th):
        acc = 0j
        for j, c in sym.coeffs.items():
            acc += complex(c) * np.exp(1j * j * th)
        return acc

    syms = [symbol(multiply(jacobi_operator(), jacobi_operator().scaled(1.1)), 0),
            symbol(multiply(adjoint(right_shift(3)), jacobi_operator()), 0),
            Symbol({-2: Scalar.inexact(0.3, -1.7), 0: Scalar.exact(Fraction(5, 7)),
                    3: Scalar.exact(Fraction(-2, 3), Fraction(1, 9))})]
    thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    for sym in syms:
        got = sym.eval_theta(thetas)
        want = np.array([one_angle(sym, th) for th in thetas])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(sym.eval_theta(th) == w for th, w in zip(thetas[::37], want[::37]))
    s4, s2 = syms[0], syms[2]
    v4, v2 = s4.eval_theta(thetas).real, s2.eval_theta(thetas).real
    for k in np.geomspace(2e-6, 2.0, 8):
        want = [one_angle(s4, th).real - 2 * k * one_angle(s2, th).real + k * k
                for th in thetas]
        assert np.array_equal((v4 - 2 * k * v2 + k * k).view(np.int64),
                              np.array(want).view(np.int64))


def test_range_real_converts_each_coefficient_once(monkeypatch):
    calls = []
    real = Scalar.__complex__
    monkeypatch.setattr(Scalar, "__complex__", lambda x: calls.append(x) or real(x))
    sym = symbol(jacobi_operator(), 0)
    lo, hi = sym.range_real()
    assert len(calls) == len(sym.coeffs) == 2
    assert abs(lo + 2) < 1e-9 and abs(hi - 2) < 1e-9


def test_symbol_of_shift_gram_is_constant():
    q = multiply(adjoint(right_shift(2)), right_shift(2))
    sym = symbol(q, 0)
    assert sym.is_constant() and sym.constant_value() == Scalar.exact(4)


def test_symbol_finite_component_error():
    with pytest.raises(FiniteComponent):
        symbol(example1(), 1)


def test_essential_spectrum_identity_minus_rank_one():
    ident = identity_operator((L2,))
    pert = OperatorExpr((L2,), {(0, 0): FiniteRankBlock({(0, 0): 1})})
    ess = essential_spectrum(ident - pert)
    assert len(ess) == 1 and ess[0][0] == "point" and _pt(ess[0][1]) == 1.0


def test_essential_spectrum_example2_ttstar():
    t2 = example2()
    ess = essential_spectrum(multiply(t2, adjoint(t2)))
    assert [p[0] for p in ess] == ["point", "point"]
    assert [_pt(p[1]) for p in ess] == [0.0, 1.0]
    assert all(p[1].is_exact for p in ess)


def test_essential_spectrum_free_jacobi_interval():
    ess = essential_spectrum(jacobi_operator())
    assert len(ess) == 1 and ess[0][0] == "interval"
    lo, hi = ess[0][1], ess[0][2]
    # dense-sampling oracle for the symbol range of 2 cos(theta)
    thetas = np.linspace(0, 2 * np.pi, 20001)
    vals = 2 * np.cos(thetas)
    assert abs(lo - vals.min()) < 1e-9 and abs(hi - vals.max()) < 1e-9


def test_essential_spectrum_weyl_invariance():
    for seed in range(6):
        a = random_exact_operator(seed, spaces=(L2,))
        sa = a + adjoint(a)
        pert = OperatorExpr((L2,), {(0, 0): FiniteRankBlock(
            {(0, 1): Scalar.exact(Fraction(3, 2)), (1, 0): Scalar.exact(Fraction(3, 2)),
             (2, 2): Scalar.exact(-2)})})
        e1 = essential_spectrum(sa)
        e2 = essential_spectrum(sa + pert)
        assert len(e1) == len(e2)
        for p1, p2 in zip(e1, e2):
            assert p1[0] == p2[0]
            if p1[0] == "point":
                assert _pt(p1[1]) == _pt(p2[1])
            else:
                assert abs(p1[1] - p2[1]) < 1e-12 and abs(p1[2] - p2[2]) < 1e-12


def test_essential_spectrum_requires_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        essential_spectrum(right_shift(2))


def _float_jacobi(skew):
    """A float Jacobi operator, main diagonal (3, 2, 2, ...) and off-diagonals
    1/2, except the first entry below, 1/2 + skew: it differs from its adjoint
    by skew, in its corner."""
    half = Scalar.inexact(0.5)
    return OperatorExpr((L2,), {(0, 0): BandedBlock({
        0: DiagonalSeq([Scalar.inexact(3.0)], Scalar.inexact(2.0)),
        1: DiagonalSeq(limit=half),
        -1: DiagonalSeq([Scalar.inexact(0.5 + skew)], half)})})


def test_float_operator_self_adjoint_within_tol():
    # the float branch bounds ||T - T*|| by a window norm plus the tail limits
    t = _float_jacobi(1e-13)
    assert not t.is_exact_scalars()
    s = positive_spectral_summary(t)
    # one eigenvalue above the band [1, 3]: 2 + (3 - 2) + (1/2)^2 / (3 - 2)
    assert s.tier == "numerical" and len(s.discrete) == 1
    assert abs(s.discrete[0].value - 3.25) < 1e-9
    ((kind, lo, hi),) = essential_spectrum(t)
    assert kind == "interval" and abs(lo - 1.0) < 1e-9 and abs(hi - 3.0) < 1e-9


def test_float_operator_beyond_tol_is_not_self_adjoint():
    t = _float_jacobi(1e-6)
    for call in (positive_spectral_summary, essential_spectrum):
        with pytest.raises(NotSelfAdjoint, match="beyond tol"):
            call(t)


def test_mirror_rules_with_different_prefixes_are_self_adjoint():
    # (k+1)/(k+2) above the diagonal, and below it the same entries as a
    # prefix 1/2, 2/3 and the rule valid from 2: not structurally identical
    # to the adjoint, but equal to it entry by entry
    rule = RationalFn([1, 1], [2, 1])
    late = DiagonalSeq([Scalar.exact(Fraction(1, 2)), Scalar.exact(Fraction(2, 3))],
                       rule=RationalFn([1, 1], [2, 1], valid_from=2))
    t = OperatorExpr((L2,), {(0, 0): BandedBlock({1: DiagonalSeq(rule=rule), -1: late})})
    assert not t.blocks[0, 0].structurally_equal(adjoint(t).blocks[0, 0])
    check_self_adjoint(t, 1e-10)
    other = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq(rule=rule), -1: DiagonalSeq(rule=RationalFn([1, 2], [2, 1]))})})
    with pytest.raises(NotSelfAdjoint, match="operator differs from its adjoint"):
        check_self_adjoint(other, 1e-10)


def test_positive_summary_prefix_diagonal():
    p = diag_operator([5, 3], limit=2)
    s = positive_spectral_summary(p)
    assert [_pt(pc[1]) for pc in s.ess] == [2.0]
    assert [(d.value, d.mult) for d in s.discrete] == [(5.0, 1), (3.0, 1)]
    assert (s.m, s.m_e, s.norm) == (2.0, 2.0, 5.0)
    assert s.tier == "exact"
    assert count_spectrum_in(s, s.m, s.m_e) == 0


def test_summary_eigenspace_truncates_at_the_summary_window(monkeypatch):
    import anop.spectral as spectral
    sizes = []
    real = spectral.truncate
    monkeypatch.setattr(spectral, "truncate",
                        lambda op, n: sizes.append(n) or real(op, n))
    p = jacobi_operator(diag=DiagonalSeq([5], 2), offdiag=DiagonalSeq(limit=1))
    s = positive_spectral_summary(p, trunc=64)
    summary_eigenspace(s, s.norm)
    # the window and the half window; the eigenspace solves the kept window
    assert sizes == [64, 32]


def _reference_eigenspace(s, pairs, value):
    """summary_eigenspace of a symbolic summary without the screen: the
    pairs of sym_eigen of the kept window within reach of value."""
    return Subspace.span(s.op.spaces,
                         _near_eigvecs(s.op, s._window.labels, pairs, float(value)))


def _same_subspace(a, b):
    return a.kind == b.kind and [v.to_json() for v in a.vectors] == \
        [v.to_json() for v in b.vectors]


JACOBI_VARIANTS = {
    "free": jacobi_operator(),
    "prefix5": jacobi_operator(diag=DiagonalSeq([5])),
    "prefix5x0.7": jacobi_operator(diag=DiagonalSeq([5])).scaled(0.7),
}


@pytest.mark.parametrize("name", sorted(JACOBI_VARIANTS))
def test_eigenspace_screen_matches_the_solve(name):
    # the screen skips only solves from which nothing would be kept: at the
    # norm, every discrete value, both ends of the essential spectrum, and
    # just inside (0.9e-7) and outside (1.1e-7) the reach of _near_eigvecs
    # around window eigenvalues, the answer is the full solve's
    s = modulus_summary(JACOBI_VARIANTS[name], trunc=96).base
    assert s._path == "symbolic"
    pairs = sym_eigen(s._window.matrix, max(s.tol, 1e-12))
    w = np.linalg.eigvalsh(s._window.matrix)
    scale = max(1.0, float(np.max(np.abs(w))))
    ((_, lo, hi),) = [pc for pc in s.ess if pc[0] == "interval"]
    values = [s.norm, lo, hi] + [d.value for d in s.discrete]
    inside = []
    for k in (len(w) - 1, len(w) // 2):
        inside += [w[k] + 0.9e-7 * scale, w[k] - 0.9e-7 * scale]
        values += [w[k] + 1.1e-7 * scale, w[k] - 1.1e-7 * scale]
    for value in values + inside:
        got = summary_eigenspace(copy.copy(s), value)
        assert _same_subspace(got, _reference_eigenspace(s, pairs, value)), value
    for value in inside:
        assert not summary_eigenspace(copy.copy(s), value).is_zero()
    if name != "free":
        assert s.discrete and not summary_eigenspace(copy.copy(s), s.norm).is_zero()


def test_eigenspace_screen_skips_the_solve_at_the_free_norm(monkeypatch):
    # no window value lies outside [0, 4], so no half window is built either;
    # the window is certified inside [0, 4] with no eigvalsh, and the norm
    # clears by that bracket. A discrete eigenvalue (prefix5) needs the
    # eigvalsh values of the window and the half window.
    import anop.spectral as spectral
    calls, sizes, eigvalsh = [], [], []
    real_eigen, real_truncate, real_eigvalsh = spectral.sym_eigen, spectral.truncate, \
        np.linalg.eigvalsh
    monkeypatch.setattr(spectral, "sym_eigen",
                        lambda *a, **k: calls.append(a) or real_eigen(*a, **k))
    monkeypatch.setattr(spectral, "truncate",
                        lambda op, n: sizes.append(n) or real_truncate(op, n))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: eigvalsh.append(m.shape) or real_eigvalsh(m))
    s = modulus_summary(jacobi_operator()).base
    assert s._bracket is not None and not s.discrete
    assert summary_eigenspace(s, s.norm).is_zero()
    assert calls == [] and sizes == [256] and eigvalsh == []
    s = positive_spectral_summary(gram(JACOBI_VARIANTS["prefix5"]))
    assert s._bracket is None and len(s.discrete) == 1
    assert eigvalsh == [(256, 256), (128, 128)]


@functools.cache
def _sweep_operators():
    """`symbolic_operators` of tools/sweep.py: both branches of the window."""
    import importlib.util
    import os
    from pathlib import Path
    from unittest import mock
    path = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
    spec = importlib.util.spec_from_file_location("sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):      # the script pins BLAS threads
        spec.loader.exec_module(sweep)
    return dict(sweep.symbolic_operators())


def _summaries_of(t, monkeypatch):
    """The T*T and TT* summaries of t, as built and with every window
    eigensolved (no band, so no certificate): (certified, reference) pairs."""
    import anop.spectral as spectral
    out = []
    for build in (gram, spectral.cogram):
        try:
            got = positive_spectral_summary(build(t), trunc=96)
        except (NotPositive, NotSelfAdjoint, UncertifiedTail) as exc:
            got = type(exc)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_real_band", lambda matrix: None)
            try:
                ref = positive_spectral_summary(build(t), trunc=96)
            except (NotPositive, NotSelfAdjoint, UncertifiedTail) as exc:
                ref = type(exc)
        out.append((got, ref))
    return out


@pytest.mark.parametrize("name", sorted(JACOBI_VARIANTS) + sorted(_sweep_operators()))
def test_certified_window_matches_eigvalsh(name, monkeypatch):
    # the certified window gives the summary and every eigenspace that
    # eigvalsh of the window gives, at the norm, both ends of the interval,
    # each discrete value and just inside and outside the screen's reach
    t = JACOBI_VARIANTS.get(name) or _sweep_operators()[name]
    for got, ref in _summaries_of(t, monkeypatch):
        if isinstance(ref, type):
            assert got is ref
            continue
        assert ref._bracket is None and ref._window_eigs is not None
        assert [(d.value, d.mult) for d in got.discrete] == \
            [(d.value, d.mult) for d in ref.discrete]
        assert (got.norm, got.m, got.m_e, got.ess) == (ref.norm, ref.m, ref.m_e, ref.ess)
        w = ref._window_eigs
        scale = max(1.0, float(np.max(np.abs(w))))
        values = [ref.norm] + [d.value for d in ref.discrete]
        values += [v for pc in ref.ess if pc[0] == "interval" for v in pc[1:]]
        for k in (0, len(w) // 2, len(w) - 1):
            values += [w[k] + f * scale for f in (0.9e-7, -0.9e-7, 1.1e-7, -1.1e-7)]
        for value in values:
            assert _same_subspace(summary_eigenspace(copy.copy(got), value),
                                  summary_eigenspace(copy.copy(ref), value)), value


def _band_matrix(seed, n, b):
    """A random real symmetric n x n matrix of half-bandwidth at most b."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    for k in range(min(b, n - 1) + 1):
        v = rng.uniform(-3, 3, n - k) * (rng.random(n - k) < 0.9)
        m += np.diag(v, -k) + (np.diag(v, k) if k else 0)
    return m


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(0, 3),
       st.floats(-13, -6), st.sampled_from([1, -1]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_band_certificate_is_sound(seed, n, b, exponent, sign, across):
    # a shift planted within 1e-13..1e-6 of the extreme eigenvalue, on the
    # certified side or across it: whenever the factorisation succeeds, every
    # eigvalsh value lies strictly on the certified side
    m = _band_matrix(seed, n, b)
    w = np.linalg.eigvalsh(m)
    gap = 10.0 ** exponent * (-1 if across else 1)
    x = w[0] - gap if sign == 1 else w[-1] + gap
    band = _real_band(m.astype(complex))
    assert band is not None and len(band[0]) - 1 <= b
    if _all_beyond(band, x, sign):
        assert np.all(sign * (w - x) > 0)
        assert not across


def test_real_band_refuses_other_windows():
    m = _band_matrix(1, 20, 2)
    assert _real_band(m.astype(complex)) is not None
    wide = m.copy()
    wide[12, 2] = wide[2, 12] = 1.0
    skew = m.copy()
    skew[3, 2] += 1.0
    cplx = m.astype(complex)
    cplx[3, 2] += 1e-300j
    nan = m.copy()
    nan[5, 5] = math.nan
    huge = m.copy()
    huge[0, 0] = 1e308
    for bad in (wide, skew, cplx, nan, huge):
        assert _real_band(np.asarray(bad, dtype=complex)) is None


def test_one_angle_symbol_value_is_eval_theta_bit_for_bit(monkeypatch):
    # on 1e5 angles, and at every point the ternary refinement evaluates on
    # the symbols of the golden operators' T*T and TT*
    from pathlib import Path
    from anop.serialize import load
    thetas = np.random.default_rng(0).uniform(-10.0, 20.0, 100000)
    sym = Symbol({0: Scalar.exact(Fraction(3, 7)), 1: Scalar.of(0.3 - 1.7j),
                  -1: Scalar.of(0.3 + 1.7j), 3: Scalar.of(-2.1 + 0.4j),
                  -3: Scalar.of(-2.1 - 0.4j)})
    for s in (sym, symbol(gram(jacobi_operator()), 0)):
        assert [s._real_at(t) for t in thetas.tolist()] == s.eval_theta(thetas).real.tolist()
    seen = []
    real = Symbol._real_at

    def checked(self, t):
        v = real(self, t)
        assert v == self.eval_theta(t).real, t
        seen.append(t)
        return v
    monkeypatch.setattr(Symbol, "_real_at", checked)
    golden = Path(__file__).resolve().parent / "golden" / "operators"
    for path in sorted(golden.glob("*.json")):
        t = load(path)
        for p in (gram(t), multiply(t, adjoint(t))):
            for i in p.l2_components():
                if symbol(p, i).is_real() and not symbol(p, i).is_constant():
                    symbol(p, i).range_real()
    assert seen


def test_symbolic_essential_spectrum_keeps_the_summary_checks():
    # the symbols give the summary's essential spectrum; an operator that is
    # not self-adjoint fails as the summary fails, and one with an
    # uncertified component, or on the structured path, gets no answer
    free = gram(jacobi_operator())
    assert symbolic_essential_spectrum(free) == positive_spectral_summary(free).ess
    shifted = identity_operator((L2,)).scaled(2) + right_shift(1)
    for call in (positive_spectral_summary, symbolic_essential_spectrum):
        with pytest.raises(NotSelfAdjoint, match="operator differs from its adjoint"):
            call(shifted)
    ruled = OperatorExpr((L2,), {(0, 0): BandedBlock({
        0: DiagonalSeq(rule=RationalFn([1], [1, 1])), 1: DiagonalSeq(limit=1),
        -1: DiagonalSeq(limit=1)})})
    mixed = direct_sum(jacobi_operator(), ruled)
    assert symbolic_essential_spectrum(mixed) is None
    with pytest.raises(UncertifiedTail):
        positive_spectral_summary(mixed)
    assert symbolic_essential_spectrum(gram(example1())) is None


def test_positive_summary_example1_tstart():
    q = multiply(adjoint(example1()), example1())
    s = positive_spectral_summary(q)
    assert [_pt(pc[1]) for pc in s.ess] == [4.0]
    assert [(d.value, d.mult) for d in s.discrete] == [(2.0, 1), (1.0, 1)]
    assert (s.m, s.m_e, s.norm) == (1.0, 4.0, 4.0)


def test_positive_summary_identity():
    s = positive_spectral_summary(identity_operator((L2,)))
    assert [_pt(pc[1]) for pc in s.ess] == [1.0]
    assert not s.discrete
    assert (s.m, s.m_e, s.norm) == (1.0, 1.0, 1.0)


def test_discrete_holds_the_corner_and_reports_list_the_streams(monkeypatch):
    # corner values 2 and 3/4, then the stream (k+1)/(k+2) from k = 2, whose
    # first value ties with the corner's 3/4; the stream is evaluated only
    # when a report lists it, at most trunc values
    heads = []
    real = EigStream.head
    monkeypatch.setattr(EigStream, "head", lambda st, n: heads.append(n) or real(st, n))
    p = diag_operator([Fraction(3, 4), 2], rule=RationalFn([1, 1], [2, 1]))
    s = positive_spectral_summary(p, trunc=3)
    assert [(d.value, d.mult) for d in s.discrete] == [(2, 1), (Fraction(3, 4), 1)]
    assert [(st.comp, st.start) for st in s.streams] == [(0, 2)] and heads == []
    listed = s.to_json()["discrete"]
    assert heads == [3]
    assert [(d["exact"], d["mult"]) for d in listed] == [
        ("2", 1), ("5/6", 1), ("4/5", 1), ("3/4", 1), ("3/4", 1)]
    roots = ModulusSummary(s)
    assert [(d.value, d.mult) for d in roots.discrete] == [
        (math.sqrt(2), 1), (math.sqrt(0.75), 1)]
    assert [d["value"] for d in roots.to_json()["discrete"]] == [
        math.sqrt(float(Fraction(d["exact"]))) for d in listed]


def test_positive_summary_rejects_negative():
    with pytest.raises(NotPositive):
        positive_spectral_summary(diag_operator([-1], limit=2))
    with pytest.raises(NotPositive):
        positive_spectral_summary(identity_operator((L2,)).scaled(-1))


def test_eigenspaces_from_summary():
    p = diag_operator([5, 3], limit=2)
    s = positive_spectral_summary(p)
    e5 = summary_eigenspace(s, Scalar.exact(5))
    assert e5.dim() == 1 and e5.vectors[0].support() == [(0, 0)]
    e2 = summary_eigenspace(s, Scalar.exact(2))
    assert e2.kind == "cofinite" and e2.tails == {0: 2}
    e7 = summary_eigenspace(s, Scalar.exact(7))
    assert e7.is_zero()


def test_oracle_equivalence_against_truncation():
    # discrete eigenvalues agree with a dense 256-section oracle
    q = multiply(adjoint(example1()), example1())
    s = positive_spectral_summary(q)
    from anop.operators import truncate
    w = np.linalg.eigvalsh(truncate(q, 256).matrix)
    for d in s.discrete:
        assert np.min(np.abs(w - d.value)) < 1e-8


def test_modulus_summary_scaled_shift():
    ms = modulus_summary(right_shift(2))
    assert [_pt(pc[1]) for pc in ms.ess] == [2.0]
    assert (ms.m, ms.m_e, ms.norm) == (2.0, 2.0, 2.0)


def test_modulus_summary_example1_sqrt_values():
    ms = modulus_summary(example1())
    vals = sorted({round(d.value, 10) for d in ms.discrete} |
                  {round(_pt(p[1]), 10) for p in ms.ess}, reverse=True)
    assert vals == [2.0, round(math.sqrt(2), 10), 1.0]
    assert (ms.m, ms.m_e) == (1.0, 2.0)


def test_modulus_summary_zero_operator():
    from anop.operators import zero_operator
    ms = modulus_summary(zero_operator((L2,)))
    assert [_pt(p[1]) for p in ms.ess] == [0.0] and ms.norm == 0.0


def test_square_root_consistency():
    for t in (example1(), right_shift(2), jacobi_operator()):
        ms = modulus_summary(t)
        s = positive_spectral_summary(multiply(adjoint(t), t))
        assert abs(ms.norm ** 2 - s.norm) <= 1e-10


def test_diagonalize_prefix_diagonal():
    p = diag_operator([5, 3], limit=2)
    res = positive_an_diagonalize(p)
    assert [(v, sp.dim()) for v, sp in res.pairs[:2]] == [(5.0, 1), (3.0, 1)]
    assert res.pairs[-1][0] == 2.0 and res.pairs[-1][1].dim() is None
    assert res.infinite_multiplicity_value == 2.0
    assert res.clauses["at_most_one_infinite_multiplicity"]


def test_diagonalize_identity():
    res = positive_an_diagonalize(identity_operator((L2,)))
    assert len(res.pairs) == 1 and res.pairs[0][0] == 1.0
    assert res.pairs[0][1].kind == "full"


def test_diagonalize_example1_tstart():
    q = multiply(adjoint(example1()), example1())
    res = positive_an_diagonalize(q)
    vals = [(v, sp.dim()) for v, sp in res.pairs]
    assert vals[0][0] == 4.0 and vals[0][1] is None
    assert vals[1:] == [(2.0, 1), (1.0, 1)]


def test_diagonalize_decreasing_rule_reports_clause2():
    rule = RationalFn.const(1) + RationalFn.power_term(1, 1, 1)
    p = diag_operator([], rule=rule)
    res = positive_an_diagonalize(p)
    assert res.clauses["limit_approached_increasing"] is False
    assert res.limit_point == 1.0


def test_diagonalize_rejects_two_point_ess():
    t2 = example2()
    with pytest.raises(NotAN):
        positive_an_diagonalize(multiply(t2, adjoint(t2)))


def test_kernel_dims_scaled_shift():
    kd = kernel_dims(right_shift(2))
    assert kd.as_tuple() == (0, 1) and kd.tier == "exact"


def test_kernel_dims_example2():
    kd = kernel_dims(example2())
    assert kd.as_tuple() == (0, 0) and kd.tier == "exact"


def test_kernel_dims_identity():
    kd = kernel_dims(identity_operator((L2,)))
    assert kd.as_tuple() == (0, 0)


def test_kernel_dims_compact_type_infinite():
    t = diag_operator([1, 1], limit=0)
    kd = kernel_dims(t)
    assert kd.as_tuple() == ("infinite", "infinite")


def test_m_ordering_invariant():
    for t in (example1(), right_shift(2), diag_operator([5, 3], limit=2)):
        s = positive_spectral_summary(multiply(adjoint(t), t))
        assert s.m <= s.m_e <= s.norm


def test_kernel_dims_out_of_class_rejected():
    from anop.errors import UncertifiedTail
    with pytest.raises(UncertifiedTail):
        kernel_dims(jacobi_operator())


def _gram_products(source):
    """(enclosing function, line) of every multiply(adjoint(x), x) or
    multiply(x, adjoint(x)) in a module's source, also with x.adjoint()."""
    import ast

    def adjoint_of(node, x):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Name) and f.id == "adjoint" and len(node.args) == 1:
            return ast.dump(node.args[0]) == ast.dump(x)
        return (isinstance(f, ast.Attribute) and f.attr == "adjoint"
                and not node.args and ast.dump(f.value) == ast.dump(x))

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and len(node.args) == 2:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            a, b = node.args
            if name == "multiply" and (adjoint_of(a, b) or adjoint_of(b, a)):
                found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_gram_products_built_only_in_spectral():
    """T*T and TT* come from spectral.gram and spectral.cogram alone, so one
    memo shares them within a call."""
    from pathlib import Path
    import anop
    assert _gram_products("def f(t):\n    return multiply(t, t.adjoint())\n") \
        == [("f", 2)]
    offenders = []
    for path in sorted(Path(anop.__file__).parent.glob("*.py")):
        for owner, line in _gram_products(path.read_text()):
            if not (path.name == "spectral.py" and owner in ("gram", "cogram")):
                offenders.append(f"{path.name}:{line} in {owner}")
    assert offenders == []


def _dead_names(sources):
    """(module, name) of each imported name that its module never uses, and
    of each private function or method that no module references; the
    imports of __init__.py are its exports."""
    import ast
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = {mod: {n.id if isinstance(n, ast.Name) else n.attr
                  for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
            for mod, tree in trees.items()}
    anywhere = set().union(*used.values())
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and mod != "__init__.py":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used[mod]:
                        found.append((mod, bound))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name.startswith("_") and not node.name.startswith("__") \
                    and node.name not in anywhere:
                found.append((mod, node.name))
    return found


def test_no_unused_imports_or_private_functions():
    """A fold that leaves an import or a private helper behind fails here."""
    from pathlib import Path
    import anop
    assert _dead_names({"a.py": "import os\nfrom .b import _g, h\nh()\n",
                        "b.py": "def _g():\n    pass\n\n\ndef h():\n    pass\n"
                                "class C:\n    def _m(self):\n        pass\n"}) \
        == [("a.py", "os"), ("a.py", "_g"), ("b.py", "_g"), ("b.py", "_m")]
    sources = {path.name: path.read_text()
               for path in sorted(Path(anop.__file__).parent.glob("*.py"))}
    assert _dead_names(sources) == []


def _dead_fields(sources, readers):
    """(module, Class.field) of each dataclass field in `sources` that no
    attribute read in `readers` names."""
    import ast
    read = {n.attr for src in readers for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [(mod, f"{node.name}.{stmt.target.id}") for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and
                          isinstance(stmt.target, ast.Name) and stmt.target.id not in read]
    return found


def test_no_unread_dataclass_fields():
    """A dataclass field that nothing reads is dead weight; only writes,
    keyword arguments or names elsewhere do not count as reads."""
    from pathlib import Path
    assert _dead_fields({"m.py": "@dataclass\nclass P:\n    a: int\n    b: int = 0\n"
                                 "class Q:\n    c: int\n"},
                        ["p.a\np.b = 1\nP(b=2)\n"]) == [("m.py", "P.b")]
    root = Path(__file__).resolve().parent.parent
    sources = {path.name: path.read_text()
               for path in sorted((root / "src/anop").glob("*.py"))}
    readers = [path.read_text() for d in ("src/anop", "tests", "demos", "bench")
               for path in sorted((root / d).rglob("*.py"))]
    assert _dead_fields(sources, readers) == []


def _stream(num, den, start=0):
    return EigStream(0, start, RationalFn(num, den))


def test_count_below_increasing_stream():
    # i/(i+1) = 0, 1/2, 2/3, 3/4, ...: three entries below 3/4
    assert _stream([0, 1], [1, 1]).count_below(Fraction(3, 4)) == 3
    assert _stream([0, 1], [1, 1], start=2).count_below(Fraction(3, 4)) == 1


def test_count_below_infinite_when_the_limit_is_below_the_bound():
    # 1/(i+1) = 1, 1/2, 1/3, ...: every entry from k = 2 on is below 1/2
    assert _stream([1], [1, 1]).count_below(Fraction(1, 2)) == "infinite"


def test_count_below_decreasing_stream():
    # 1 + 1/(i+1) stays above its limit 1
    assert _stream([2, 1], [1, 1]).count_below(1) == 0


def test_count_below_caps_the_count():
    # (i + 1 - n)/(i + 1) is negative for the n - 1 indices below n - 1
    assert _stream([1 - 200000, 1], [1, 1]).count_below(0) == "unknown"
    assert _stream([1 - 50000, 1], [1, 1]).count_below(0) == 49999
