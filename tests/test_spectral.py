"""Spectral module contracts: symbols, essential spectra, positive
summaries, moduli, diagonalization, and kernel dimensions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from anop.blocks import BandedBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.errors import FiniteComponent, NotAN, NotPositive, NotSelfAdjoint
from anop.gallery import diag_operator, example1, example2, jacobi_operator, right_shift
from anop.operators import (L2, OperatorExpr, adjoint, identity_operator,
                            multiply, finite)
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.spectral import (EigStream, Symbol, count_spectrum_in, essential_spectrum,
                           kernel_dims, modulus_summary, positive_an_diagonalize,
                           positive_spectral_summary, summary_eigenspace,
                           symbol)
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
    assert sizes == [64, 32, 64]


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
