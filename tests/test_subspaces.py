from fractions import Fraction

from anop.operators import L2, finite
from anop.scalars import Scalar
from anop.subspaces import Subspace, orthogonalize
from anop.vectors import VectorExpr

SHAPE = (L2, finite(2))


def v(l2_part, fin_part=()):
    data = [{k: Scalar.exact(x) for k, x in l2_part},
            {k: Scalar.exact(x) for k, x in enumerate(fin_part) if x}]
    return VectorExpr(SHAPE, data)


def test_orthogonalize_against_a_prefix():
    prefix = [v([(0, 1)]), v([(1, 2)])]
    before = [p.to_json() for p in prefix]
    out = orthogonalize([v([(0, 1), (2, 3)]), v([(1, 5)]), v([], (1,))], prefix)
    # the prefix is neither returned nor altered; e1 adds nothing new
    assert [w.to_json() for w in out] == [v([(2, 3)]).to_json(), v([], (1,)).to_json()]
    assert [p.to_json() for p in prefix] == before


def test_orthogonalize_drops_only_zero_exact_residuals():
    tiny = Fraction(1, 10 ** 13)
    out = orthogonalize([v([(0, 1), (1, tiny)])], [v([(0, 1)])])
    assert [w.to_json() for w in out] == [v([(1, tiny)]).to_json()]
    # the same residual in floats is within the 1e-12 drop rule
    flt = VectorExpr(SHAPE, [{0: Scalar.inexact(1.0), 1: Scalar.inexact(1e-13)}, {}])
    assert orthogonalize([flt], [v([(0, 1)])]) == []


def test_span_orthogonalizes_and_projects():
    s = Subspace.span(SHAPE, [v([(0, 1), (1, 1)]), v([(0, 1)])])
    assert s.dim() == 2
    x = v([(0, 3), (1, 5), (2, 7)])
    p = s.project(x)
    assert p.get(0, 0).re == 3 and p.get(0, 1).re == 5 and p.get(0, 2).is_zero()


def test_cofinite_projection_and_tail_absorption():
    s = Subspace.cofinite(SHAPE, {0: 2}, [v([(1, 1)])])
    # the pure e1 extra lowers the tail start
    assert s.tails == {0: 1} and not s.vectors
    x = v([(0, 1), (1, 2), (5, 3)], (4, 6))
    p = s.project(x)
    assert p.get(0, 0).is_zero() and p.get(0, 1).re == 2 and p.get(0, 5).re == 3
    assert p.get(1, 0).is_zero()


def test_full_detection_single_l2():
    shape = (L2,)
    e0 = VectorExpr.basis(shape, 0, 0)
    s = Subspace.cofinite(shape, {0: 1}, [e0])
    assert s.kind == "full"


def test_complement_round_trips_dimension():
    s = Subspace.span(SHAPE, [v([(0, 1)]), v([], (1, 0))])
    c = s.complement()
    assert c.kind == "cofinite"
    # complement contains everything orthogonal to the two directions
    assert c.contains(v([(1, 1)])) and c.contains(v([], (0, 1)))
    assert not c.contains(v([(0, 1)]))
    cc = c.complement()
    eq, res = cc.equals(s, 1e-12)
    assert eq and res <= 1e-12


def test_intersection_of_cofinite_pair():
    s1 = Subspace.cofinite(SHAPE, {0: 1})
    s2 = Subspace.cofinite(SHAPE, {0: 3}, [v([(0, 1)])])
    inter = s1.intersect(s2)
    assert inter.kind == "cofinite" and inter.tails == {0: 3}
    assert not inter.vectors  # e0 is not in s1
    s3 = Subspace.cofinite(SHAPE, {0: 2}, [v([(0, 2), (1, 2)])])
    inter2 = s1.intersect(s3)
    # the extra has an e0 part, only its e1 piece could survive, but that is
    # not inside s3; the intersection is the common tail alone
    assert inter2.tails == {0: 2}


def test_intersection_span_with_cofinite():
    sp = Subspace.span(SHAPE, [v([(0, 1)]), v([(2, 1)])])
    cf = Subspace.cofinite(SHAPE, {0: 1})
    inter = cf.intersect(sp)
    assert inter.dim() == 1
    assert inter.contains(v([(2, 1)]))


def test_equals_tolerates_representation():
    a = Subspace.span(SHAPE, [v([(0, 1), (1, 1)]), v([(0, 1), (1, -1)])])
    b = Subspace.span(SHAPE, [v([(0, 1)]), v([(1, 1)])])
    eq, res = a.equals(b, 1e-12)
    assert eq and res <= 1e-12
    c = Subspace.span(SHAPE, [v([(0, 1)])])
    assert not a.equals(c, 1e-12)[0]


def test_onb_exact_when_norms_are_squares():
    s = Subspace.span(SHAPE, [v([(0, 3), (1, 4)])])
    b = s.onb()[0]
    assert b.is_exact() and b.norm2() == Scalar.exact(1)
