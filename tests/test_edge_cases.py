"""Edge behavior: envelope-only tails, float-tier verdicts, randomized
summary cross-validation against dense sections, and subspace corners."""

import random
from fractions import Fraction

import numpy as np
import pytest

from anop.blocks import BandedBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.errors import UncertifiedTail
from anop.gallery import example2, right_shift
from anop.operators import (L2, OperatorExpr, adjoint, corner_sizes, finite,
                            identity_operator, multiply, truncate)
from anop.predicates import hyponormal_check, is_normal
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.spectral import (essential_spectrum, positive_spectral_summary,
                           summary_eigenspace)
from anop.subspaces import Subspace
from anop.vectors import VectorExpr
from conftest import rand_scalar


def test_complex_scaling_demotes_rule_to_envelope():
    t2 = example2()
    scaled = t2.scaled(Scalar.exact(0, 1))   # i * T
    seq = scaled.blocks[(0, 0)].diagonals[1]
    assert seq.rule is None and seq.decay is not None
    # products need tail entries the envelope no longer carries
    with pytest.raises(UncertifiedTail):
        multiply(scaled, adjoint(scaled))


def test_decay_only_file_supports_limit_analysis():
    from anop.serialize import parse
    t = parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"offset": 0, "prefix": [[2, 0]],'
              ' "limit": [1, 0], "decay": {"C": 1.0, "p": 1.0}}]}]}')
    ess = essential_spectrum(t)
    assert len(ess) == 1 and float(ess[0][1].re) == 1.0
    # but eigen-level summaries refuse the uncertified tail
    with pytest.raises(UncertifiedTail):
        positive_spectral_summary(t)


def test_envelope_entries_refuse_to_materialize():
    t2 = example2().scaled(Scalar.exact(0, 1))
    seq = t2.blocks[(0, 0)].diagonals[1]
    with pytest.raises(UncertifiedTail):
        seq.entry(len(seq.prefix) + 1)


def test_envelope_decay_bound_is_sound():
    # compare the certified envelope against the true entries of i*T
    t2 = example2()
    seq = t2.blocks[(0, 0)].diagonals[1]
    scaled = t2.scaled(Scalar.exact(0, 1)).blocks[(0, 0)].diagonals[1]
    c, p = scaled.decay
    for k in range(len(scaled.prefix), 60):
        true_entry = complex(seq.entry(k)) * 1j
        assert abs(true_entry - complex(scaled.limit)) <= c / (k + 1) ** p + 1e-15


def test_float_tier_summaries_stay_numerical():
    tf = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {0: DiagonalSeq([2.5], Scalar.inexact(1.0))})})
    s = positive_spectral_summary(tf)
    assert s.tier == "numerical"
    assert is_normal(tf).status in ("Proven", "Numerical")
    h = hyponormal_check(tf)
    assert h.status in ("Numerical", "Proven")


def _random_constant_symbol_positive(seed):
    """c0 I plus a random Hermitian corner, positive by construction."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    entries = {}
    for r in range(n):
        for c in range(r, n):
            v = rand_scalar(rng)
            if r == c:
                v = Scalar.exact(abs(v.re))
            entries[(r, c)] = v
            entries[(c, r)] = v.conj()
    c0 = Scalar.exact(rng.randint(8, 14))
    op = identity_operator((L2,)).scaled(c0) + OperatorExpr(
        (L2,), {(0, 0): FiniteRankBlock(entries)})
    return op


def test_summary_matches_dense_sections_randomized():
    for seed in range(25):
        p = _random_constant_symbol_positive(seed)
        s = positive_spectral_summary(p)
        w = np.linalg.eigvalsh(truncate(p, 128).matrix)
        c0 = float(next(iter(s.c0s.values())).re)
        # every reported discrete eigenvalue appears in the dense section
        for d in s.discrete:
            assert np.min(np.abs(w - d.value)) < 1e-9
        # every section eigenvalue away from c0 is reported
        for val in w:
            if abs(val - c0) > 1e-7:
                assert any(abs(d.value - val) < 1e-7 for d in s.discrete), \
                    (seed, val, [d.value for d in s.discrete])
        # eigenvectors reproduce their eigenvalues through the operator
        for d in s.discrete:
            space = summary_eigenspace(s, d.value)
            assert (space.dim() or 0) >= d.mult
            from anop.operators import apply
            for b in space.onb():
                r = apply(p, b) - b.scaled(Scalar.of(d.value))
                assert r.norm_float() <= 1e-8


def test_disjoint_tail_intersection():
    shape = (L2, L2)
    s1 = Subspace.cofinite(shape, {0: 1})
    s2 = Subspace.cofinite(shape, {1: 2})
    inter = s1.intersect(s2)
    # the tails live on different components, so nothing survives
    assert inter.is_zero()
    s3 = Subspace.cofinite(shape, {0: 3, 1: 5})
    inter2 = s1.intersect(s3)
    assert inter2.kind == "cofinite" and inter2.tails == {0: 3}
    e_deep = VectorExpr.basis(shape, 1, 9)
    assert not inter2.contains(e_deep)


def test_full_and_zero_subspace_algebra():
    shape = (L2,)
    full = Subspace.full(shape)
    zero = Subspace.zero(shape)
    assert full.intersect(zero).is_zero()
    assert full.complement().is_zero()
    assert zero.complement().kind == "full"
    v = VectorExpr.basis(shape, 0, 4)
    assert full.project(v).support() == [(0, 4)]
    assert zero.project(v).is_zero()


def test_corner_sizes_cover_finite_rank_reach():
    op = OperatorExpr((L2,), {(0, 0): FiniteRankBlock({(7, 0): 1})})
    assert corner_sizes(op)[0] >= 8
