"""Shared fixture builders for the test suite."""

import random
from fractions import Fraction

from hypothesis import settings, strategies as st

from anop.blocks import BandedBlock, DenseBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.exactla import _rref, mat_copy
from anop.operators import (L2, OperatorExpr, corner_sizes, dense_window, finite,
                            window_sizes)
from anop.ratfn import RationalFn
from anop.scalars import Scalar

# property tests draw the same examples on every run, keep no example
# database and stay small, so the suite is deterministic and cheap
settings.register_profile("anop", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("anop")


def rand_scalar(rng, complex_ok=True):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) \
        if complex_ok and rng.random() < 0.4 else Fraction(0)
    return Scalar.exact(re, im)


def minus_diag(m, lam):
    """m - lam I for a matrix of Scalars and an exact lam."""
    lam = Scalar.exact(lam)
    return [[v - lam if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def reference_kernel(m, ncols=None):
    """Nullspace basis of m read off the Fraction reference `_rref`, pivots
    sought in the first ncols columns."""
    ncols = len(m[0]) if ncols is None else ncols
    work = mat_copy(m)
    piv = _rref(work, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in piv:
            v = [Scalar.exact(int(k == fc)) for k in range(ncols)]
            for r, pc in enumerate(piv):
                v[pc] = -work[r][fc]
            basis.append(v)
    return basis


def reference_ops_equal(a, b):
    """Operator equality read off two dense exact windows reaching two past
    both corners, plus the limits and rules of the l2 diagonals: the
    library's comparison before it walked the canonical form. Raises
    UncertifiedTail on a diagonal with a declared envelope."""
    if a.spaces != b.spaces:
        return False
    n = max(max(corner_sizes(a)), max(corner_sizes(b))) + 2
    sizes = [max(pair) for pair in zip(window_sizes(a, n), window_sizes(b, n))]
    if dense_window(a, sizes) != dense_window(b, sizes):
        return False
    for i in a.l2_components():
        da = a.blocks[i, i].diagonals if (i, i) in a.blocks else {}
        db = b.blocks[i, i].diagonals if (i, i) in b.blocks else {}
        for off in set(da) | set(db):
            sa, sb = da.get(off, DiagonalSeq()), db.get(off, DiagonalSeq())
            if sa.limit != sb.limit or (sa.rule is None) != (sb.rule is None):
                return False
            if sa.rule is not None and sa.rule != sb.rule:
                return False
    return True


def rand_spaces(rng):
    return rng.choice([
        (L2,),
        (L2, finite(2)),
        (L2, L2),
        (finite(2), L2),
        (L2, finite(3)),
    ])


def random_exact_operator(seed, spaces=None, max_band=2, max_prefix=3):
    """Random exact-tier banded/block operator with small rational entries."""
    rng = random.Random(seed)
    spaces = spaces if spaces is not None else rand_spaces(rng)
    blocks = {}
    for i, sp in enumerate(spaces):
        for j, sq in enumerate(spaces):
            if sp.kind == "l2" and sq.kind == "l2" and i == j:
                diags = {}
                for off in range(-max_band, max_band + 1):
                    if rng.random() < 0.45:
                        pre = [rand_scalar(rng) for _ in range(rng.randint(0, max_prefix))]
                        lim = rand_scalar(rng) if rng.random() < 0.6 else Scalar.exact(0)
                        diags[off] = DiagonalSeq(pre, lim)
                if diags:
                    blocks[(i, j)] = BandedBlock(diags)
            elif sp.kind == "finite" and sq.kind == "finite":
                if rng.random() < 0.8:
                    blocks[(i, j)] = DenseBlock(
                        [[rand_scalar(rng) for _ in range(sq.dim)]
                         for _ in range(sp.dim)])
            else:
                if rng.random() < 0.5:
                    entries = {}
                    for _ in range(rng.randint(1, 4)):
                        r = rng.randint(0, (sp.dim or 4) - 1)
                        c = rng.randint(0, (sq.dim or 4) - 1)
                        entries[(r, c)] = rand_scalar(rng)
                    blocks[(i, j)] = FiniteRankBlock(entries)
    return OperatorExpr(spaces, blocks)


# the rationals of [-3, 3] with denominator at most 4 (sampled_from draws them
# several times faster than st.fractions)
_PART = st.sampled_from(sorted({Fraction(a, b) for b in range(1, 5)
                                for a in range(-3 * b, 3 * b + 1)}))
_ENTRY = st.builds(Scalar.exact, _PART, st.one_of(st.just(0), _PART))


@st.composite
def banded_operators(draw):
    """An exact operator that mixes ruled and constant diagonals with
    finite-rank couplings: each l2 diagonal block has up to three diagonals
    within bandwidth 2, each a short complex prefix and then a real constant
    or a real rule (a0 + a1 k)/(b0 + k), b0 > 0; each other block is absent
    or a few complex entries. Limits and rules stay real, so every product
    of two such operators keeps exact entries."""
    spaces = draw(st.sampled_from([(L2,), (L2, finite(2)), (finite(1), L2), (L2, L2)]))
    blocks = {}
    for i, sp in enumerate(spaces):
        for j, sq in enumerate(spaces):
            if i == j and sp.kind == "l2":
                diags = {}
                for off in draw(st.sets(st.integers(-2, 2), max_size=3)):
                    prefix = draw(st.lists(_ENTRY, max_size=3))
                    if draw(st.booleans()):
                        rule = RationalFn([draw(_PART), draw(_PART)],
                                          [draw(st.integers(1, 3)), 1])
                        diags[off] = DiagonalSeq(prefix, rule=rule)
                    else:
                        diags[off] = DiagonalSeq(prefix, Scalar.exact(draw(_PART)))
                blocks[i, j] = BandedBlock(diags)
            elif draw(st.booleans()):
                rows, cols = sp.dim or 4, sq.dim or 4
                blocks[i, j] = FiniteRankBlock(draw(st.dictionaries(
                    st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                    _ENTRY, max_size=3)))
    return OperatorExpr(spaces, blocks)
