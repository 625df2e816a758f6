"""Exact-algebra contracts: the closed operations, their identities, and
truncation behavior, checked against independent dense-matrix oracles."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from anop.blocks import BandedBlock, DenseBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq, combine_diagonals
from anop.errors import NSmallerThanBand, ShapeMismatch, UncertifiedTail
from anop.exactla import mat_mul
from anop.gallery import (example1, example2, jacobi_operator, random_rational_unitary,
                          right_shift)
from anop.operators import (L2, OperatorExpr, adjoint, apply, combine,
                            corner_sizes, dense_window, direct_sum, finite,
                            identity_operator, multiply, ops_equal_exact,
                            truncate, window_layout, window_sizes, zero_operator)
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.vectors import VectorExpr
from conftest import banded_operators, random_exact_operator, reference_ops_equal


def dense_oracle(op, n):
    """Independent dense image of the window: plain entry enumeration."""
    t = truncate(op, n)
    return t.matrix


def test_combine_additive_inverse():
    s = right_shift()
    z = combine([(1, s), (-1, s)])
    assert not z.blocks


def test_combine_identity_doubling():
    ident = identity_operator((L2,))
    two = combine([(1, ident), (1, ident)])
    d = two.blocks[(0, 0)].diagonals[0]
    assert d.limit == Scalar.exact(2) and not d.prefix


def test_combine_shift_commutator_is_rank_one():
    s = right_shift()
    d = combine([(1, multiply(adjoint(s), s)), (-1, multiply(s, adjoint(s)))])
    seq = d.blocks[(0, 0)].diagonals[0]
    assert [v.re for v in seq.prefix] == [1] and seq.limit.is_zero()
    # dense 64x64 truncation oracle
    sd = np.eye(64, k=-1)
    oracle = sd.T @ sd - sd @ sd.T
    oracle[63, 63] = 0  # boundary artifact of the finite section
    got = dense_oracle(d, 64)
    got[63, 63] = 0
    assert np.array_equal(got.real, oracle) and not got.imag.any()


def test_combine_diagonals_adds_an_exact_real_constant_to_a_rule():
    # 1/(k+1) + 2 * 3 stays ruled; with the complex constant i no real rule
    # holds the sum, so it becomes an envelope
    ruled = DiagonalSeq(rule=RationalFn([1], [1, 1]))
    d = combine_diagonals([(Scalar.exact(1), ruled),
                           (Scalar.exact(2), DiagonalSeq(limit=Scalar.exact(3)))])
    assert d.rule is not None and d.limit == Scalar.exact(6)
    assert [d.entry(k) for k in range(3)] == [
        Scalar.exact(7), Scalar.exact(Fraction(13, 2)), Scalar.exact(Fraction(19, 3))]
    d = combine_diagonals([(Scalar.exact(1), ruled),
                           (Scalar.exact(1), DiagonalSeq(limit=Scalar.exact(0, 1)))])
    assert d.rule is None and d.decay is not None
    assert d.limit == Scalar.exact(0, 1)


def test_combine_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        combine([(1, right_shift()), (1, example1())])


def test_multiply_isometry_identity():
    s = right_shift()
    assert ops_equal_exact(multiply(adjoint(s), s), identity_operator((L2,)))


def test_multiply_shift_range_projection():
    s = right_shift()
    got = multiply(s, adjoint(s))
    sd = np.eye(32, k=-1)
    assert np.array_equal(dense_oracle(got, 32).real, sd @ sd.T)


def test_multiply_scaled_shifts():
    s2 = right_shift(2)
    got = multiply(s2, s2)
    assert set(got.blocks[(0, 0)].diagonals) == {2}
    seq = got.blocks[(0, 0)].diagonals[2]
    assert seq.limit == Scalar.exact(4) and not seq.prefix
    sd = 2 * np.eye(24, k=-1)
    assert np.allclose(dense_oracle(got, 24), sd @ sd)


def test_adjoint_involution_and_shift():
    s = right_shift()
    assert set(adjoint(s).blocks[(0, 0)].diagonals) == {-1}
    for seed in range(5):
        a = random_exact_operator(seed)
        assert ops_equal_exact(adjoint(adjoint(a)), a)


def test_adjoint_inner_product_identity_example1():
    t = example1()
    rng = random.Random(7)
    for _ in range(50):
        x = VectorExpr(t.spaces, [
            {k: Scalar.exact(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
             for k in rng.sample(range(6), 3)},
            {0: Scalar.exact(rng.randint(-3, 3)), 1: Scalar.exact(rng.randint(-3, 3))}])
        y = VectorExpr(t.spaces, [
            {k: Scalar.exact(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
             for k in rng.sample(range(6), 3)},
            {0: Scalar.exact(rng.randint(-3, 3)), 1: Scalar.exact(rng.randint(-3, 3))}])
        lhs = apply(t, x).inner(y)
        rhs = x.inner(apply(adjoint(t), y))
        assert lhs == rhs


def test_apply_shift_basis():
    s = right_shift()
    e0 = VectorExpr.basis(s.spaces, 0, 0)
    assert apply(s, e0).support() == [(0, 1)]


def test_apply_example1_formula():
    t = example1()
    x = VectorExpr(t.spaces, [{}, {0: Scalar.exact(1)}])
    out = apply(t, x)
    assert out.get(0, 0) == Scalar.exact(1)
    assert out.get(1, 0) == Scalar.exact(1)
    assert len(out.support()) == 2


def test_apply_example1_tstart_formula():
    t = example1()
    q = multiply(adjoint(t), t)
    x = VectorExpr(t.spaces, [{0: Scalar.exact(3)},
                              {0: Scalar.exact(5), 1: Scalar.exact(7)}])
    out = apply(q, x)
    assert out.get(0, 0) == Scalar.exact(12)
    assert out.get(1, 0) == Scalar.exact(10)
    assert out.get(1, 1) == Scalar.exact(7)


def test_truncate_identity_and_scaled_shift():
    ident = identity_operator((L2,))
    t = truncate(ident, 3)
    assert np.array_equal(t.matrix, np.eye(3))
    s2 = right_shift(2)
    t2 = truncate(s2, 4)
    assert np.array_equal(t2.matrix, 2 * np.eye(4, k=-1))


def test_truncate_example2_ttstar():
    t2 = example2()
    q = multiply(t2, adjoint(t2))
    tr = truncate(q, 5)
    first = np.diag([1.0, 1.0, 0.25, 1.0 / 9, 1.0 / 16])
    expect = np.zeros((10, 10))
    expect[:5, :5] = first
    expect[5:, 5:] = np.eye(5)
    assert np.allclose(tr.matrix, expect, atol=1e-15)


def test_truncate_band_guard():
    s2 = multiply(right_shift(), right_shift())
    with pytest.raises(NSmallerThanBand):
        truncate(s2, 1)


def test_truncate_tail_bound_sound():
    # the reported bound dominates the norm of what the window dropped
    a = random_exact_operator(3, spaces=(L2,))
    t8 = truncate(a, 8)
    t40 = truncate(a, 40)
    diff = t40.matrix.copy()
    diff[:8, :8] = 0
    assert np.linalg.norm(diff, 2) <= t8.tail_bound + 1e-12


def _truncate_per_entry(op, n):
    """truncate's matrix and tail bound, one entry at a time."""
    sizes = window_sizes(op, n)
    starts, labels = window_layout(op.spaces, sizes)
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    bound = 0.0
    for (i, j), blk in op.blocks.items():
        ri, cj = starts[i], starts[j]
        nr, nc = sizes[i], sizes[j]
        if isinstance(blk, BandedBlock):
            for off, dseq in blk.diagonals.items():
                for c in range(nc):
                    r = c + off
                    if 0 <= r < nr:
                        v, radius = dseq.entry_approx(min(r, c))
                        mat[ri + r, cj + c] += complex(v)
                        bound += radius
                bound += abs(dseq.limit) + dseq.tail_dev_bound(n)
        else:
            for (r, c), v in blk.entries.items():
                if r < nr and c < nc:
                    mat[ri + r, cj + c] += complex(v)
                else:
                    bound += abs(v)
    return mat, bound


_ENVELOPE = OperatorExpr((L2, finite(2)), {
    (0, 0): BandedBlock({0: DiagonalSeq([Scalar.inexact(-0.0), 2], Scalar.inexact(0.5),
                                        decay=(3, 1.5)),
                         -2: DiagonalSeq([1], rule=RationalFn([1, 2], [3, 1]))}),
    (1, 0): FiniteRankBlock({(1, 5): Scalar.inexact(0.25, -1)})})


@given(banded_operators(), st.integers(2, 12), st.booleans())
@example(_ENVELOPE, 4, False)
@example(_ENVELOPE, 9, True)
def test_truncate_matches_the_per_entry_window(op, n, scaled):
    # bit for bit, the sign of a zero included, with the same tail bound
    if scaled:
        op = op.scaled(0.7)
    got = truncate(op, n)
    mat, bound = _truncate_per_entry(op, n)
    assert got.matrix.tobytes() == mat.tobytes()
    assert got.tail_bound == bound


@given(banded_operators())
def test_ruled_decay_is_derived_from_the_rule(op):
    # on drawn operators and their products, each ruled diagonal's
    # certificate is its rule's, as floats
    for t in (op, multiply(adjoint(op), op)):
        for blk in t.blocks.values():
            for d in getattr(blk, "diagonals", {}).values():
                if d.rule is not None:
                    assert d.decay == tuple(float(x) for x in d.rule.decay())


def test_ruled_decay_is_derived_on_first_read(monkeypatch):
    calls = []
    real = RationalFn.decay
    monkeypatch.setattr(RationalFn, "decay", lambda self: calls.append(self) or real(self))
    t = example2()
    q = multiply(adjoint(t), t)
    ruled = [d for blk in q.blocks.values() for d in blk.diagonals.values()
             if d.rule is not None]
    assert ruled and calls == []
    assert ruled[0].decay == tuple(float(x) for x in real(ruled[0].rule))
    assert len(calls) == 1


def test_tail_action_matches_symbol_prediction():
    # a unit vector supported beyond every prefix sees only the limits
    for seed in range(6):
        a = random_exact_operator(seed, spaces=(L2,))
        blk = a.blocks.get((0, 0))
        if blk is None:
            continue
        k = blk.prefix_extent() + blk.bandwidth + 3
        x = VectorExpr.basis(a.spaces, 0, k)
        out = apply(a, x)
        expect = sum(float(d.limit.abs2().re) for d in blk.diagonals.values())
        assert math.isclose(float(out.norm2().re), expect, abs_tol=1e-30)


def test_ring_axioms_small():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        spaces = random_exact_operator(seed).spaces
        a = random_exact_operator(seed * 3 + 1, spaces=spaces)
        b = random_exact_operator(seed * 3 + 2, spaces=spaces)
        c = random_exact_operator(seed * 3 + 3, spaces=spaces)
        assert ops_equal_exact(multiply(multiply(a, b), c),
                               multiply(a, multiply(b, c)))
        assert ops_equal_exact(multiply(a, b + c),
                               multiply(a, b) + multiply(a, c))
        assert ops_equal_exact(adjoint(multiply(a, b)),
                               multiply(adjoint(b), adjoint(a)))


def _lengthened(op, extra):
    """op with each ruled diagonal's prefix `extra` entries longer, its rule
    valid only from there so that the canonical form keeps them (a prefix
    entry equal to the tail value is dropped otherwise)."""
    def longer(d):
        if d.rule is None:
            return d
        n = len(d.prefix) + extra
        rule = RationalFn(d.rule.num, d.rule.den, valid_from=n)
        return DiagonalSeq([d.entry(i) for i in range(n)], rule=rule)
    blocks = {pos: BandedBlock({j: longer(d) for j, d in blk.diagonals.items()})
              if isinstance(blk, BandedBlock) else blk for pos, blk in op.blocks.items()}
    return OperatorExpr(op.spaces, blocks)


def _one_entry(spaces, data):
    """An operator over spaces with one nonzero entry at a drawn place."""
    i, j = (data.draw(st.integers(0, len(spaces) - 1)) for _ in range(2))
    r, c = (data.draw(st.integers(0, (sp.dim or 6) - 1)) for sp in (spaces[i], spaces[j]))
    entry = FiniteRankBlock({(r, c): data.draw(st.integers(1, 3))})
    return OperatorExpr(spaces, {(i, j): entry})


@given(banded_operators(), banded_operators(), st.integers(1, 3), st.data())
def test_ops_equal_exact_agrees_with_the_dense_window_reference(a, b, extra, data):
    tts, ttstar = multiply(adjoint(a), a), multiply(a, adjoint(a))
    cases = [(a, a, True), (a, adjoint(adjoint(a)), True),
             (a, _lengthened(a, extra), True), (a, a + _one_entry(a.spaces, data), False),
             (a, b, None), (tts, adjoint(tts), True), (tts, ttstar, None)]
    for x, y, expected in cases:
        got = ops_equal_exact(x, y)
        assert got == reference_ops_equal(x, y) == ops_equal_exact(y, x)
        assert expected is None or got == expected


def test_ops_equal_exact_reads_each_part_of_the_canonical_form():
    def jacobi(diag, off=DiagonalSeq(limit=1)):
        return OperatorExpr((L2,), {(0, 0): BandedBlock({0: diag, 1: off, -1: off})})
    rule = RationalFn([1, 1], [2, 1])
    late = DiagonalSeq([Scalar.exact(Fraction(1, 2)), Scalar.exact(Fraction(2, 3)), 7],
                       rule=RationalFn([1, 1], [2, 1], valid_from=3))
    coupled = OperatorExpr((L2, finite(1)), {(0, 0): jacobi(DiagonalSeq()).blocks[0, 0],
                                             (1, 0): FiniteRankBlock({(0, 0): 1})})
    for x, y in ((jacobi(DiagonalSeq([1], 2)), jacobi(DiagonalSeq([1], 3))),  # limits
                 (jacobi(DiagonalSeq(rule=rule)),
                  jacobi(DiagonalSeq(rule=RationalFn([2, 1], [3, 1])))),  # rules, both -> 1
                 (jacobi(DiagonalSeq(rule=rule)), jacobi(late)),  # past the shorter prefix
                 (direct_sum(jacobi(DiagonalSeq()), zero_operator((finite(1),))), coupled)):
        for p, q in ((x, y), (y, x)):
            assert not ops_equal_exact(p, q) and not reference_ops_equal(p, q)


def test_ops_equal_exact_compares_declared_envelopes():
    def enveloped(prefix=(1,), limit=2, c=1):
        return OperatorExpr((L2,), {(0, 0): BandedBlock(
            {0: DiagonalSeq(prefix, limit, decay=(c, 2)), 1: DiagonalSeq(limit=1)})})
    assert ops_equal_exact(enveloped(), enveloped())
    for other in (enveloped(c=3), enveloped(prefix=(1, 5)), enveloped(limit=3),
                  OperatorExpr((L2,), {(0, 0): BandedBlock(
                      {0: DiagonalSeq([1], 2), 1: DiagonalSeq(limit=1)})})):
        assert not ops_equal_exact(enveloped(), other)
        assert not ops_equal_exact(other, enveloped())
    # the dense-window comparison needed every entry, and raised here
    with pytest.raises(UncertifiedTail):
        reference_ops_equal(enveloped(), enveloped())


def test_truncation_interior_agreement():
    n = 24
    for seed in range(8):
        spaces = (L2,)
        a = random_exact_operator(seed + 50, spaces=spaces)
        b = random_exact_operator(seed + 90, spaces=spaces)
        wa = a.blocks.get((0, 0)).bandwidth if (0, 0) in a.blocks else 0
        wb = b.blocks.get((0, 0)).bandwidth if (0, 0) in b.blocks else 0
        prod = multiply(a, b)
        sizes = window_sizes(prod, n)
        exact_prod = dense_window(prod, sizes)
        sect = mat_mul(dense_window(a, sizes), dense_window(b, sizes))
        interior = n - wa - wb
        for r in range(interior):
            for c in range(interior):
                assert exact_prod[r][c] == sect[r][c]


def test_rule_tier_products_keep_exact_entries():
    t2 = example2()
    q = multiply(adjoint(t2), t2)
    seq = q.blocks[(0, 0)].diagonals[0]
    for k in range(1, 30):
        assert seq.entry(k).re == Fraction(1, (k + 1) ** 2)


def test_apply_shape_mismatch():
    t = example1()
    with pytest.raises(ShapeMismatch):
        apply(t, VectorExpr((L2,), [{0: Scalar.exact(1)}]))


def test_rule_tier_double_product_matches_sections():
    # (T*T)(TT*) for the weighted-shift example, checked on the interior of
    # a 40-wide window against the product of dense sections
    t2 = example2()
    q1 = multiply(adjoint(t2), t2)
    q2 = multiply(t2, adjoint(t2))
    prod = multiply(q1, q2)
    n = 40
    sec = truncate(prod, n).matrix
    oracle = truncate(q1, n).matrix @ truncate(q2, n).matrix
    assert np.max(np.abs(sec[: n - 1, : n - 1] - oracle[: n - 1, : n - 1])) < 1e-14


# -- canonical-form invariants that multiply and the spectral layer rely on --

def test_constant_rule_collapses_to_the_exact_tier():
    rule = RationalFn.const(Fraction(3, 2))
    seq = DiagonalSeq([Scalar.exact(1), Scalar.exact(2)], rule=rule)
    assert seq.rule is None and seq.decay is None and seq.tier == "exact"
    assert [seq.entry(i) for i in range(6)] == \
        [Scalar.exact(v) for v in (1, 2)] + [Scalar.exact(Fraction(3, 2))] * 4
    # a rule that only looks ruled, (3i + 3) / (2i + 2), collapses as well
    seq = DiagonalSeq(rule=RationalFn([3, 3], [2, 2]))
    assert seq.rule is None and seq.tier == "exact"
    assert seq.entry(5) == Scalar.exact(Fraction(3, 2))


_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=3)


@given(_coeffs, _coeffs, st.integers(0, 3), st.integers(0, 3))
def test_every_kept_rule_carries_a_decay_certificate(num, den, shift, npre):
    # den(i) = (i + 1 + shift)^2 + |den coefficients| stays positive
    den_poly = [(1 + shift) ** 2 + sum(abs(c) for c in den), 2 * (1 + shift), 1]
    rule = RationalFn(num, den_poly)
    seq = DiagonalSeq([Scalar.exact(k) for k in range(npre)], rule=rule)
    assert (seq.rule is None) == rule.is_const()
    if seq.rule is not None:
        assert seq.decay is not None and seq.tier == "asymptotic"
    # so do the products and sums the algebra builds from such rules
    op = OperatorExpr((L2,), {(0, 0): BandedBlock({0: seq, 1: seq})})
    for derived in (multiply(adjoint(op), op), combine([(1, op), (2, op)])):
        for d in derived.blocks.get((0, 0), BandedBlock({})).diagonals.values():
            assert d.rule is None or d.decay is not None


@pytest.mark.parametrize("spaces, pos", [((L2, L2), (0, 1)), ((L2, finite(2)), (1, 0)),
                                         ((finite(2),), (0, 0))])
def test_banded_block_off_the_l2_diagonal_is_refused(spaces, pos):
    blk = BandedBlock({0: DiagonalSeq(limit=Scalar.exact(1))})
    with pytest.raises(ShapeMismatch):
        OperatorExpr(spaces, {pos: blk})


def _assert_canonical(op, name):
    """A BandedBlock exactly at the l2 diagonal positions, a FiniteRankBlock
    everywhere else, with nonzero entries inside the finite dimensions, in
    row-major order at finite x finite positions."""
    for (i, j), blk in op.blocks.items():
        si, sj = op.spaces[i], op.spaces[j]
        if i == j and si.kind == "l2":
            assert isinstance(blk, BandedBlock), (name, i, j)
            continue
        assert type(blk) is FiniteRankBlock, (name, i, j)
        for (r, c), v in blk.entries.items():
            assert 0 <= r and 0 <= c and not v.is_zero(), (name, i, j, r, c)
            assert si.dim is None or r < si.dim, (name, i, j, r)
            assert sj.dim is None or c < sj.dim, (name, i, j, c)
        if si.kind == sj.kind == "finite":
            assert list(blk.entries) == sorted(blk.entries), (name, i, j)


def test_every_derived_operator_is_canonical():
    from anop.decomposition import block_upper_inverse, compress_to_complement
    from anop.errors import AnopError
    from anop.serialize import load
    from anop.spectral import cogram, gram, modulus_summary, summary_eigenspace
    paths = sorted((Path(__file__).parent / "golden" / "operators").glob("*.json"))
    ops = [(path.stem, load(str(path))) for path in paths]
    # 2U (+) 2I: its inverse is the scaled adjoint, not a dense elimination
    u = random_rational_unitary(random.Random(9), 4)
    ops.append(("2U+2I", OperatorExpr((finite(4), L2), {
        (0, 0): DenseBlock(u).scaled(2),
        (1, 1): BandedBlock({0: DiagonalSeq(limit=Scalar.exact(2))})})))
    counts = {"compressed": 0, "a_inv": 0}
    for name, t in ops:
        ts, tts, ttstar = adjoint(t), gram(t), cogram(t)
        for op in (t, ts, tts, ttstar, multiply(t, t), tts - ttstar):
            _assert_canonical(op, name)
        try:
            kernel = summary_eigenspace(modulus_summary(t).base, Scalar.exact(0))
            compressed = compress_to_complement(t, kernel)
        except AnopError:
            pass  # no finite-dimensional kernel to compress away
        else:
            _assert_canonical(compressed, name + " compressed")
            counts["compressed"] += compressed is not t
        try:
            inv = block_upper_inverse(t, [VectorExpr(t.spaces)], [[Scalar.exact(1)]])
        except AnopError:
            pass  # not in an invertible structural form
        else:
            _assert_canonical(inv.a_inv, name + " a_inv")
            counts["a_inv"] += 1
    assert counts == {"compressed": 2, "a_inv": 2}, counts
    # A = [[N, B], [C, 0]] with N = [[0, 1], [0, 0]] on C^2 and couplings
    # into C^3: A^2 = [[0, NB], [CN, 0]], as N^2 = BC = CB = 0
    a = OperatorExpr((finite(2), finite(3)), {
        (0, 0): DenseBlock([[0, 1], [0, 0]]),
        (0, 1): FiniteRankBlock({(1, 2): 5}),
        (1, 0): FiniteRankBlock({(0, 0): Fraction(1, 2)})})
    for p in (a, multiply(a, a), multiply(a, adjoint(a)), multiply(adjoint(a), a)):
        assert p.blocks
        _assert_canonical(p, "A")
    sq = multiply(a, a)
    assert sorted(sq.blocks) == [(0, 1), (1, 0)]
    assert sq.blocks[(0, 1)].entries == {(0, 2): 5}
    assert sq.blocks[(1, 0)].entries == {(0, 1): Fraction(1, 2)}
    # N^2 = 0 leaves no block at all
    nil = OperatorExpr((finite(2),), {(0, 0): DenseBlock([[0, 1], [0, 0]])})
    assert not multiply(nil, nil).blocks


def test_dense_blocks_are_read_only_where_operators_are_built():
    """A DenseBlock is an input form: apart from building one, src/anop
    names it only in OperatorExpr.__init__, which turns it into a
    FiniteRankBlock. A branch on it anywhere else would bring back a third
    block kind for the algebra to handle."""
    import ast
    import anop

    def sites(source):
        found = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    visit(child, scope + (child.name,))
                elif isinstance(child, ast.Name) and child.id == "DenseBlock":
                    found.append(".".join(scope))
                elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                    # building a DenseBlock names it, but only its arguments count
                    for arg in child.args + [k.value for k in child.keywords]:
                        visit(ast.Expression(arg), scope)
                else:
                    visit(child, scope)
        visit(ast.parse(source), ())
        return found

    probe = ("class C:\n    def f(self, b):\n        x = DenseBlock([[1]])\n"
             "        return isinstance(b, (DenseBlock, int))\n"
             "def g(b):\n    kind = DenseBlock\n    return type(b) is kind\n")
    assert sites(probe) == ["C.f", "g"]
    found = []
    for path in sorted(Path(anop.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{site}" for site in sites(path.read_text())]
    assert found == ["operators.OperatorExpr.__init__"]


# -- multiply and apply against Fraction windows -------------------------------------

def _fraction_window(op, sizes):
    """The window of op as {row label: {column label: (re, im)}}, labels
    (component, index) and nonzero Fraction pairs, read off each block's
    prefixes, rules, limits and entries alone."""
    out = {}
    for (i, j), blk in op.blocks.items():
        if isinstance(blk, BandedBlock):
            cells = []
            for off, seq in blk.diagonals.items():
                for c in range(max(0, -off), min(sizes[j], sizes[i] - off)):
                    k = min(c + off, c)
                    cells.append((c + off, c, seq.prefix[k] if k < len(seq.prefix) else
                                  seq.rule.eval(k) if seq.rule is not None else seq.limit))
        else:
            cells = [(r, c, v) for (r, c), v in blk.entries.items()
                     if r < sizes[i] and c < sizes[j]]
        for r, c, v in cells:
            v = Scalar.of(v)
            if not v.is_zero():
                out.setdefault((i, r), {})[j, c] = (Fraction(v.re), Fraction(v.im))
    return out


def _fraction_adjoint(w):
    out = {}
    for row, cells in w.items():
        for col, (re, im) in cells.items():
            out.setdefault(col, {})[row] = (re, -im)
    return out


def _fraction_product(a, b):
    out = {}
    for row, cells in a.items():
        acc = {}
        for mid, (xr, xi) in cells.items():
            for col, (yr, yi) in b.get(mid, {}).items():
                re, im = acc.get(col, (0, 0))
                acc[col] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
        acc = {col: v for col, v in acc.items() if v != (0, 0)}
        if acc:
            out[row] = acc
    return out


def _within(w, sizes):
    out = {row: {col: v for col, v in cells.items() if col[1] < sizes[col[0]]}
           for row, cells in w.items() if row[1] < sizes[row[0]]}
    return {row: cells for row, cells in out.items() if cells}


def _as_fraction_map(mat, labels):
    return {labels[r]: {labels[c]: (Fraction(v.re), Fraction(v.im))
                        for c, v in enumerate(row) if not v.is_zero()}
            for r, row in enumerate(mat) if any(not v.is_zero() for v in row)}


def _oracle_sizes(t, wanted):
    """Window sizes that hold every product term of the wanted window: each
    l2 component widened by twice t's largest bandwidth."""
    w = max((blk.bandwidth for blk in t.blocks.values() if isinstance(blk, BandedBlock)),
            default=0)
    return [max(n, c) + (2 * w if sp.kind == "l2" else 0)
            for n, c, sp in zip(wanted, corner_sizes(t), t.spaces)]


# T*T of a ruled Jacobi operator: the main diagonal adds the exact product of
# the off-diagonals inside an asymptotic diagonal, and each off-diagonal
# multiplies the rule by the off-diagonal's constant as a constant rule
@example(jacobi_operator(diag=DiagonalSeq(rule=RationalFn([1, 2], [3, 1]))))
@given(banded_operators())
def test_multiply_and_apply_match_fraction_windows(t):
    for left, right in ((t, t), (adjoint(t), t), (t, adjoint(t))):
        prod = multiply(left, right)
        sizes = [n + 2 if sp.kind == "l2" else n
                 for n, sp in zip(corner_sizes(prod), t.spaces)]
        window = _fraction_window(t, _oracle_sizes(t, sizes))
        factors = [window if f is t else _fraction_adjoint(window) for f in (left, right)]
        _, labels = window_layout(t.spaces, sizes)
        assert (_as_fraction_map(dense_window(prod, sizes), labels)
                == _within(_fraction_product(*factors), sizes))
    # each unit vector of the corner, then their sum with weights (k + 1) + i:
    # the images are the window's columns and their weighted sum
    sizes = [n + 2 if sp.kind == "l2" else n for n, sp in zip(corner_sizes(t), t.spaces)]
    _, labels = window_layout(t.spaces, sizes)
    window = _fraction_window(t, _oracle_sizes(t, sizes))
    units = [{label: (Fraction(1), Fraction(0))} for label in labels]
    for x in units + [{label: (Fraction(k + 1), Fraction(1)) for k, label in enumerate(labels)}]:
        data = [{} for _ in t.spaces]
        for (ci, k), v in x.items():
            data[ci][k] = Scalar.exact(*v)
        vec = VectorExpr(t.spaces, data)
        image = _fraction_product(window, {label: {(0, 0): v} for label, v in x.items()})
        assert ({label: (Fraction(v.re), Fraction(v.im)) for label, v in apply(t, vec).items()}
                == {row: cells[0, 0] for row, cells in image.items()})
