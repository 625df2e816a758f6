"""Exact linear algebra fuzzed against dense float oracles."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anop import decomposition, exactla, spectral, subspaces
from anop.errors import AnopError
from anop.exactla import (_rref, inverse, kernel_basis, mat_copy, mat_mul, mat_vec,
                          psd_decide, quad_form)
from anop.gallery import random_theorem_form
from anop.operators import L2, identity_operator
from anop.scalars import Scalar
from anop.serialize import load
from anop.vectors import VectorExpr
from conftest import minus_diag, rand_scalar, reference_kernel

P = 2 ** 61 - 1


def _rand_hermitian(rng, n, shift=0):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_scalar(rng)
            if i == j:
                v = Scalar.exact(v.re + shift)
            m[i][j] = v if i != j else Scalar.exact(v.re)
            m[j][i] = m[i][j].conj()
    for i in range(n):
        m[i][i] = Scalar.exact(m[i][i].re + shift)
    return m


def _to_np(m):
    return np.array([[complex(v) for v in row] for row in m])


def test_psd_decision_matches_float_oracle():
    rng = random.Random(1)
    agree = 0
    for trial in range(120):
        n = rng.randint(1, 6)
        shift = rng.choice([0, 0, 2, 5, -2])
        m = _rand_hermitian(rng, n, shift)
        ok, wit = psd_decide(m)
        w = np.linalg.eigvalsh(_to_np(m))
        if ok:
            assert w[0] >= -1e-9, (trial, w)
        else:
            # the witness certifies indefiniteness exactly
            form = quad_form(m, wit)
            assert form.is_real() and form.re < 0
            assert w[0] < 1e-9
        agree += 1
    assert agree == 120


def test_psd_zero_diagonal_witness():
    m = [[Scalar.exact(0), Scalar.exact(1)], [Scalar.exact(1), Scalar.exact(0)]]
    ok, wit = psd_decide(m)
    assert not ok
    assert quad_form(m, wit).re < 0


def test_kernel_and_rank_match_float_oracle():
    rng = random.Random(2)
    for trial in range(60):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        # build a rank-r matrix from random factors
        a = [[rand_scalar(rng) for _ in range(r)] for _ in range(n)]
        b = [[rand_scalar(rng) for _ in range(n)] for _ in range(r)]
        m = mat_mul(a, b) if r else [[Scalar.exact(0)] * n for _ in range(n)]
        ker = kernel_basis(m)
        np_rank = np.linalg.matrix_rank(_to_np(m), tol=1e-9) if r else 0
        assert n - len(ker) == np_rank
        for v in ker:
            assert all(x.is_zero() for x in mat_vec(m, v))


def test_inverse_exact():
    rng = random.Random(3)
    done = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        m = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = m[i][i] + Scalar.exact(4)
        inv = inverse(m)
        if inv is None:
            continue
        prod = mat_mul(m, inv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == Scalar.exact(1 if i == j else 0)
        done += 1
    assert done >= 35


def test_eigenvalue_kernel_is_exact():
    # the spectral summaries test an exact eigenvalue candidate lam by the
    # kernel of m - lam I
    m = [[Scalar.exact(2), Scalar.exact(1)], [Scalar.exact(1), Scalar.exact(2)]]
    for lam in (3, 1):
        ker = kernel_basis(minus_diag(m, lam))
        assert len(ker) == 1
        assert mat_vec(m, ker[0]) == [Scalar.exact(lam) * v for v in ker[0]]
    assert kernel_basis(minus_diag(m, 2)) == []


def test_kernel_of_no_rows_is_the_unit_basis():
    assert kernel_basis([], 3) == [[Scalar.exact(int(i == j)) for j in range(3)]
                                   for i in range(3)]
    assert kernel_basis([], 0) == [] and kernel_basis([]) == []


# -- the Gaussian-integer core against the Fraction reference `_rref` ------------------

def _reference_rref(m, ncols):
    work = mat_copy(m)
    return _rref(work, ncols), work


def _reference_inverse(a):
    n = len(a)
    piv, work = _reference_rref(
        [row + [Scalar.exact(int(i == j)) for j in range(n)] for i, row in enumerate(a)], n)
    return None if len(piv) < n else [row[n:] for row in work]


def _identical(x):
    """Values, exactness and part types, so that a float or int part where
    the reference has a Fraction shows."""
    if x is None:
        return None
    return [[(s.re, s.im, s.is_exact, type(s.re), type(s.im)) for s in row] for row in x]


def _assert_matches_reference(m):
    assert _identical(kernel_basis(m)) == _identical(reference_kernel(m))
    ncols = len(m[0])
    assert ncols - len(kernel_basis(m)) == len(_reference_rref(m, ncols)[0])
    if len(m) == len(m[0]):
        assert _identical(inverse(m)) == _identical(_reference_inverse(m))


_PART = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_GAUSSIAN_RATIONAL = st.builds(Scalar.exact, _PART, st.one_of(st.just(0), _PART))


def _matrices(n, k):
    return st.lists(st.lists(_GAUSSIAN_RATIONAL, min_size=k, max_size=k),
                    min_size=n, max_size=n)


@st.composite
def _matrix_of_rank(draw, max_side=6):
    """A rows x cols product of random rows x r and r x cols factors, r drawn
    from 0 to min(rows, cols)."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    r = draw(st.integers(0, min(rows, cols)))
    if r == 0:
        return [[Scalar.exact(0)] * cols for _ in range(rows)]
    return mat_mul(draw(_matrices(rows, r)), draw(_matrices(r, cols)))


@given(_matrix_of_rank())
def test_core_matches_fraction_reference(m):
    _assert_matches_reference(m)


def test_core_inverts_matrices_singular_mod_p():
    # p divides every maximal minor, yet each matrix is invertible over Q
    for m in ([[Scalar.exact(P)]],
              [[Scalar.exact(0, P)]],
              [[Scalar.exact(1), Scalar.exact(1)], [Scalar.exact(1), Scalar.exact(1 + P)]]):
        assert kernel_basis(m) == []
        _assert_matches_reference(m)
    assert inverse([[Scalar.exact(P)]]) == [[Scalar.exact(Fraction(1, P))]]


def test_core_matches_reference_with_denominators_divisible_by_p():
    full = [[Scalar.exact(Fraction(1, P)), Scalar.exact(1)],
            [Scalar.exact(Fraction(2, P)), Scalar.exact(Fraction(3, P), Fraction(1, 2 * P))]]
    deficient = [[Scalar.exact(Fraction(1, P)), Scalar.exact(2)],
                 [Scalar.exact(Fraction(2, P)), Scalar.exact(4)]]
    assert kernel_basis(full) == [] and len(kernel_basis(deficient)) == 1
    for m in (full, deficient):
        _assert_matches_reference(m)


def test_core_decides_full_column_rank_with_large_denominators():
    # a 12 x 10 matrix of full column rank with denominators near 2**61: its
    # kernel is empty, and the core's entries grow far past one machine word
    rng = random.Random(4)
    dens = (P - 2, P, P + 2)
    m = [[Scalar.exact(Fraction(rng.randint(-P, P), rng.choice(dens)),
                       Fraction(rng.randint(-P, P), rng.choice(dens)))
          for _ in range(10)] for _ in range(12)]
    assert kernel_basis(m) == []
    _assert_matches_reference(m)
    _assert_matches_reference(m[:10])


@given(_matrix_of_rank(), st.booleans())
def test_float_matrices_keep_the_scalar_path(m, mixed):
    # any inexact entry sends the matrix through `_rref` on Scalars, as before
    m = [[Scalar.inexact(float(v.re), float(v.im)) if not mixed or (i + j) % 2 else v
          for j, v in enumerate(row)] for i, row in enumerate(m)]
    _assert_matches_reference(m)


# -- whole-matrix elimination of block-structured matrices ----------------------------

@st.composite
def _scattered_blocks(draw, square=False):
    """A direct sum of random blocks (`_matrix_of_rank` ones, or square ones of
    any rank), with zero rows and zero columns added, its rows and columns
    then permuted at random."""
    if square:
        blocks = draw(st.lists(st.integers(1, 4).flatmap(lambda k: _matrices(k, k)),
                               min_size=1, max_size=4))
        zero_rows = zero_cols = draw(st.sampled_from([0, 0, 0, 1]))
    else:
        blocks = draw(st.lists(_matrix_of_rank(max_side=3), min_size=1, max_size=4))
        zero_rows, zero_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    nrows = sum(len(b) for b in blocks) + zero_rows
    ncols = sum(len(b[0]) for b in blocks) + zero_cols
    m = [[Scalar.exact(0)] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return [[m[i][j] for j in col_order] for i in row_order]


@given(_scattered_blocks(), st.data())
def test_block_split_matches_reference(m, data):
    # all columns, then pivots sought in the first ncols columns only
    for ncols in (len(m[0]), data.draw(st.integers(1, len(m[0])))):
        piv, _ = _reference_rref(m, ncols)
        ker = kernel_basis(m, ncols)
        assert ncols - len(ker) == len(piv)
        assert _identical(ker) == _identical(reference_kernel(m, ncols))


@given(_scattered_blocks(square=True))
def test_block_split_inverts_like_reference(m):
    # inverse eliminates [A | I], whose identity columns join every block
    assert _identical(inverse(m)) == _identical(_reference_inverse(m))


def _golden_exact_operators():
    paths = sorted((Path(__file__).parent / "golden" / "operators").glob("*.json"))
    ops = [(p.stem, load(str(p))) for p in paths]
    return [(name, t) for name, t in ops if t.is_exact_scalars()]


def test_golden_traffic_matches_reference(monkeypatch):
    """Every exact kernel and inverse asked for on the exact golden operators,
    replayed against the Fraction reference: those of peel_decompose and
    certify_normal, and the [A | I] systems of block_upper_inverse with each
    operator as its (1,1) block, and with its T*T and TT* corners as the
    finite block. A summary decides the kernel of corner - lam I one block at
    a time; each such kernel is replayed against the reference on the whole
    corner - lam I."""
    calls = []

    def kernel_spy(m, ncols=None):
        calls.append(("kernel", m, ncols, kernel_basis(m, ncols)))
        return calls[-1][-1]

    def inverse_spy(a):
        calls.append(("inverse", a, None, inverse(a)))
        return calls[-1][-1]

    corner_kernel = spectral._corner_kernel

    def corner_kernel_spy(s, lam):
        calls.append(("kernel", minus_diag(s._corner, lam), None, corner_kernel(s, lam)))
        return calls[-1][-1]
    monkeypatch.setattr(spectral, "kernel_basis", kernel_spy)
    monkeypatch.setattr(subspaces, "kernel_basis", kernel_spy)
    monkeypatch.setattr(spectral, "_corner_kernel", corner_kernel_spy)
    monkeypatch.setattr(decomposition, "exact_inverse", inverse_spy)

    def upper_inverse(a, c):
        return decomposition.block_upper_inverse(a, [VectorExpr(a.spaces)] * len(c), c)
    for name, t in _golden_exact_operators():
        runs = [lambda: decomposition.peel_decompose(t, samples=300),
                lambda: decomposition.certify_normal(t, samples=300),
                lambda: upper_inverse(t, [[Scalar.exact(1)]])]
        for p in (spectral.gram(t), spectral.cogram(t)):
            corner = spectral.positive_spectral_summary(p)._corner
            if corner:
                runs.append(lambda c=corner: upper_inverse(identity_operator((L2,)), c))
        for run in runs:
            try:
                run()
            except AnopError:
                pass  # out of the class or singular: the eliminations still count
    kinds = Counter(kind for kind, m, _, _ in calls if m)
    assert kinds["kernel"] >= 100 and kinds["inverse"] >= 20, kinds
    for kind, m, ncols, result in calls:
        if not m:
            continue
        expected = (_reference_inverse(m) if kind == "inverse"
                    else reference_kernel(m, ncols))
        assert _identical(result) == _identical(expected)


def _eliminated_row_counts(monkeypatch):
    counts = []
    core = exactla._fraction_free_gauss_jordan

    def spy(rows, ncols):
        counts.append(len(rows))
        return core(rows, ncols)
    monkeypatch.setattr(exactla, "_fraction_free_gauss_jordan", spy)
    return counts


def _largest_connected_block(corner):
    n = len(corner)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for i in range(n):
        for j in range(n):
            if i != j and not corner[i][j].is_zero():
                parent[find(i)] = find(j)
    return max(Counter(find(i) for i in range(n)).values())


def test_summary_eliminates_no_more_than_a_block_of_its_corner(monkeypatch):
    t, _ = random_theorem_form(1)
    assert t.is_exact_scalars()
    counts = _eliminated_row_counts(monkeypatch)
    s = spectral.positive_spectral_summary(spectral.gram(t))
    bound = _largest_connected_block(s._corner)
    # a 13 x 13 T*T corner whose largest block has 3 rows
    assert bound < len(s._corner)
    assert counts and max(counts) <= bound
