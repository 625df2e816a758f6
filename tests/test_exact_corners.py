"""Exact summary corners decided one connected block at a time, against a
copy of the whole-corner summary: one sym_eigen of the whole corner, and one
Fraction-reference kernel of the whole corner - lam I for each candidate lam."""

import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anop import spectral
from anop.blocks import FiniteRankBlock
from anop.errors import NotSelfAdjoint
from anop.gallery import random_rational_unitary
from anop.operators import (L2, OperatorExpr, corner_sizes, dense_window, direct_sum,
                            finite, identity_operator)
from anop.scalars import ZERO, Scalar
from anop.spectral import (COMP_CONST, DiscreteEig, positive_spectral_summary,
                           summary_eigenspace)
from conftest import minus_diag, reference_kernel


def _whole_corner_summary(s, classes, trunc):
    """The structured summary as it was before the block split, for
    positive operators whose l2 components have constant tails."""
    p, tol = s.op, s.tol
    s._path = "structured"
    sizes = corner_sizes(p)
    s._corner_sizes = sizes
    exact_corner = p.is_exact_scalars()
    s._corner = dense_window(p, sizes)
    corner_np = np.array([[complex(v) for v in row] for row in s._corner])
    n = len(corner_np)
    pairs = spectral.sym_eigen(corner_np, max(tol, 1e-12)) if n else []
    s._corner_pairs = pairs
    scale = max((abs(w) for w, _ in pairs), default=0.0) or 1.0
    for i, cls in classes.items():
        assert cls == COMP_CONST
        blk = p.blocks.get((i, i))
        c0 = blk.diagonals[0].limit if blk is not None and 0 in blk.diagonals else ZERO
        s.c0s[i] = c0
        s.ess.append(("point", c0))
    s.ess = spectral._merge_pieces(s.ess, tol)
    exact_values = {}
    if exact_corner:
        cands = set()
        for w, _ in pairs:
            coarse = Fraction(w).limit_denominator(10 ** 6)
            cands.add(coarse)
            if n <= 12 and abs(float(coarse) - w) > 1e-13 * scale:
                cands.add(Fraction(w).limit_denominator(10 ** 13))
        for k, row in enumerate(s._corner):
            if row[k].is_real():
                cands.add(Fraction(row[k].re))
        for c0 in s.c0s.values():
            cands.add(Fraction(c0.re))
        cands.add(Fraction(0))
        floats = np.array([w for w, _ in pairs]) if pairs else np.array([])
        for lam in sorted(cands):
            if floats.size and np.min(np.abs(floats - float(lam))) > 1e-7 * scale:
                continue
            ker = reference_kernel(minus_diag(s._corner, lam))
            if ker:
                exact_values[lam] = ker
    s._exact_eigs = exact_values
    used = [False] * len(pairs)
    entries = []
    for lam, ker in sorted(exact_values.items(), reverse=True):
        hits = [k for k, (w, _) in enumerate(pairs)
                if not used[k] and abs(w - float(lam)) <= 1e-7 * scale]
        for k in hits[:len(ker)]:
            used[k] = True
        entries.append((lam, len(ker)))
    k = 0
    while k < len(pairs):
        if used[k]:
            k += 1
            continue
        j, mult = k, 0
        while j < len(pairs) and abs(pairs[j][0] - pairs[k][0]) <= 1e-9 * scale:
            if not used[j]:
                mult += 1
                used[j] = True
            j += 1
        entries.append((pairs[k][0], mult))
        k = j
    c0_vals = [c.re for c in s.c0s.values()]
    for val, mult in sorted(entries, key=lambda e: -float(e[0])):
        if not any(spectral._same_value(val, c, 1e-9 * scale) for c in c0_vals):
            s.discrete.append(DiscreteEig(val, mult))
    s.discrete.sort(key=lambda d: -float(d.value))
    highs = [val for val, _ in entries] + c0_vals
    norm = max((float(v) for v in highs), default=0.0)
    top = max((v for v in highs if isinstance(v, Fraction)), default=None)
    s.norm = top if top is not None and float(top) == norm else norm
    s.m = max(min((float(v) for v in highs), default=0.0), 0.0)
    s.m_e = min(spectral.ess_points(s.ess), default=0.0)
    if s.ess and all(p[1].is_exact for p in s.ess):
        s.m_e = min(p[1].re for p in s.ess)
    all_pairs_exact = pairs and sum(len(k) for k in exact_values.values()) == len(pairs)
    s.tier = "exact" if (exact_corner and (not pairs or all_pairs_exact)) else "numerical"


def _facts(s):
    """The summary's corner pairs bit for bit, its exact eigen-data, and its
    reported figures with their types."""
    return ([(np.float64(w).tobytes(), v.dtype, v.tobytes()) for w, v in s._corner_pairs],
            [(lam, type(lam), [[(x.re, x.im, x.is_exact) for x in v] for v in ker])
             for lam, ker in s._exact_eigs.items()],
            [(d.value, type(d.value), d.mult, d.source) for d in s.discrete],
            [(x, type(x)) for x in (s.norm, s.m, s.m_e)], s.tier)


# eigenvalues with ties, zeros, small rationals and denominators far beyond
# the 10**13 of the finer limit_denominator guess
_VALUE = st.one_of(st.just(Fraction(0)), st.integers(0, 3).map(Fraction),
                   st.fractions(0, 5, max_denominator=9),
                   st.integers(1, 10 ** 6).map(lambda k: Fraction(k, 10 ** 15 + 37)))


@st.composite
def _psd_operators(draw):
    """An exact Hermitian PSD operator on finite(n), n up to 70: a diagonal,
    or a permuted direct sum of 1x1 blocks and 2x2 and 3x3 blocks Q D Q*
    with rational unitary Q; sometimes with a constant l2 tail beside it."""
    n = draw(st.integers(1, 70))
    sizes = draw(st.sampled_from(((1,), (1, 2, 3), (2, 3))))
    pool = draw(st.lists(_VALUE, min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    m = [[ZERO] * n for _ in range(n)]
    start = 0
    while start < n:
        k = min(n - start, draw(st.sampled_from(sizes)))
        q = random_rational_unitary(rng, k)
        d = [Scalar.exact(draw(st.sampled_from(pool))) for _ in range(k)]
        for i in range(k):
            for j in range(k):
                m[start + i][start + j] = sum(
                    (q[i][t] * d[t] * q[j][t].conj() for t in range(k)), ZERO)
        start += k
    order = draw(st.permutations(range(n)))
    t = OperatorExpr((finite(n),), {(0, 0): FiniteRankBlock(
        {(i, j): m[a][b] for i, a in enumerate(order) for j, b in enumerate(order)
         if not m[a][b].is_zero()})})
    if draw(st.booleans()):
        t = direct_sum(t, identity_operator((L2,)).scaled(
            Scalar.exact(draw(st.sampled_from(pool)))))
    return t


@settings(max_examples=60)
@given(_psd_operators())
def test_block_summary_matches_whole_corner_summary(t):
    s = positive_spectral_summary(t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_structured_summary", _whole_corner_summary)
        reference = positive_spectral_summary(t)
    assert _facts(s) == _facts(reference)
    for lam, ker in reference._exact_eigs.items():
        assert spectral._corner_kernel(s, lam) == ker
    assert spectral._corner_kernel(s, Fraction(-1)) == []


def _diagonal(*values):
    return OperatorExpr((finite(len(values)),), {(0, 0): FiniteRankBlock(
        {(k, k): v for k, v in enumerate(values) if v})})


def test_a_diagonal_corner_needs_no_eigensolver_and_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagonal corner needs neither")
    monkeypatch.setattr(spectral, "sym_eigen", refuse)
    monkeypatch.setattr(spectral, "kernel_basis", refuse)
    s = positive_spectral_summary(_diagonal(2, 0, 2, Fraction(1, 3)))
    assert s.tier == "exact"
    assert [(d.value, d.mult) for d in s.discrete] == [(2, 2), (Fraction(1, 3), 1), (0, 1)]
    assert [w for w, _ in s._corner_pairs] == [2.0, 2.0, 1 / 3, 0.0]
    # the eigenspace of a value the summary kept, and of one it did not
    assert summary_eigenspace(s, Scalar.exact(2)).dim() == 2
    assert summary_eigenspace(s, Scalar.exact(5)).dim() == 0


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_summary_of_an_overflowing_diagonal_corner_is_refused():
    # 2 * 9.5e307 overflows a float: the symmetrised corner is not finite,
    # which once left sym_eigen looping for ever; a daemon thread keeps a
    # hang from stalling the suite
    raised = []

    def run():
        try:
            positive_spectral_summary(_diagonal(95 * 10 ** 306, 1, 1))
        except NotSelfAdjoint as exc:
            raised.append(exc)
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "the summary still running after 10 s"
    assert raised


@pytest.mark.parametrize("n", [64, 65])
def test_large_diagonal_corners_agree_on_both_sides_of_the_jacobi_limit(monkeypatch, n):
    # beyond JACOBI_MAX_N a diagonal corner keeps sym_eigen's LAPACK branch
    t = _diagonal(*[Fraction(k % 7, 3) for k in range(n)])
    s = positive_spectral_summary(t)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_structured_summary", _whole_corner_summary)
        assert _facts(s) == _facts(positive_spectral_summary(t))
