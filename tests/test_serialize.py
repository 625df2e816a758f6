import json

import pytest

from anop.diagonals import DiagonalSeq
from anop.errors import SchemaError, UncertifiedTail
from anop.gallery import example1, example2, right_shift
from anop.operators import adjoint, apply, multiply, ops_equal_exact
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.serialize import load, operator_to_json_dict, parse, serialize
from anop.vectors import VectorExpr
from conftest import random_exact_operator


def test_builtin_right_shift_scaled():
    t = parse('{"builtin": "right_shift", "scale": 2}')
    assert ops_equal_exact(t, right_shift(2))


def test_builtin_identity_and_diag():
    ident = parse('{"builtin": "identity"}')
    assert ident.blocks[(0, 0)].diagonals[0].limit == Scalar.exact(1)
    d = parse('{"builtin": "diag", "entries": [5, 3], "limit": 2}')
    seq = d.blocks[(0, 0)].diagonals[0]
    assert [v.re for v in seq.prefix] == [5, 3] and seq.limit.re == 2


def test_rational_string_literals_bit_exact():
    t = parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"offset": 0, '
              '"prefix": [["1/3", "-2/7"]], "limit": ["22/7", 0]}]}]}')
    seq = t.blocks[(0, 0)].diagonals[0]
    assert str(seq.prefix[0].re) == "1/3" and str(seq.prefix[0].im) == "-2/7"
    assert str(seq.limit.re) == "22/7"
    assert ops_equal_exact(parse(serialize(t)), t)


def test_a_declared_decay_never_tightens_the_rule_certificate():
    # the rule 1 + 1/(i+1) = (i+2)/(i+1) is 0.25 from its limit 1 at i = 3; a
    # declared (C, p) = (1e-9, 50) once combined with the derived certificate
    # into a bound of 7.9e-40 there
    rule = RationalFn([2, 1], [1, 1])
    derived = DiagonalSeq(rule=rule).decay
    seqs = [DiagonalSeq(rule=rule, decay=(1e-9, 50)),
            parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
                  '"kind": "banded", "diagonals": [{"offset": 0, "decay": {"C": 1e-9, '
                  '"p": 50}, "rule": {"kind": "ratfn", "num": [2, 1], "den": [1, 1]}}]}]}'
                  ).blocks[(0, 0)].diagonals[0]]
    for seq in seqs:
        assert seq.decay == derived
        assert seq.tail_dev_bound(3) >= abs(complex(seq.entry(3) - seq.limit)) == 0.25


def test_a_negative_decay_constant_is_refused():
    # a negative envelope C / (i+1)^p would make every tail bound negative
    with pytest.raises(UncertifiedTail):
        DiagonalSeq(limit=Scalar.exact(2), decay=(-1, 1))
    with pytest.raises(SchemaError, match=r"C >= 0.*blocks\[0\]\.diagonals\[0\]"):
        parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"offset": 1, "limit": [2, 0], '
              '"decay": {"C": -1, "p": 1}}]}]}')
    assert DiagonalSeq(limit=Scalar.exact(2), decay=(0, 1)).tail_dev_bound(3) == 0.0


def test_round_trip_random_exact_operators():
    for seed in range(15):
        a = random_exact_operator(seed)
        b = parse(serialize(a))
        assert ops_equal_exact(a, b)
        assert serialize(b) == serialize(a)


def test_round_trip_rule_tier():
    t2 = example2()
    again = parse(serialize(t2))
    seq1 = t2.blocks[(0, 0)].diagonals[1]
    seq2 = again.blocks[(0, 0)].diagonals[1]
    assert seq1.rule == seq2.rule
    assert ops_equal_exact(t2, again)


def test_example1_file_matches_formula():
    import random
    from fractions import Fraction
    t = parse(serialize(example1()))
    rng = random.Random(3)
    for _ in range(20):
        x = VectorExpr(t.spaces, [
            {k: Scalar.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
             for k in rng.sample(range(5), 2)},
            {0: Scalar.exact(rng.randint(-4, 4)), 1: Scalar.exact(rng.randint(-4, 4))}])
        out = apply(t, x)
        # (y1, 2x1, 2x2, ...) on the first component, (y1, y2) on the second
        assert out.get(0, 0) == x.get(1, 0)
        for k in range(5):
            assert out.get(0, k + 1) == Scalar.exact(2) * x.get(0, k)
        assert out.get(1, 0) == x.get(1, 0)
        assert out.get(1, 1) == x.get(1, 1)


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError):
        parse("{not json")
    with pytest.raises(SchemaError) as exc:
        parse('{"spaces": [{"kind": "weird"}]}')
    assert "spaces[0]" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"prefix": []}]}]}')
    assert "diagonals[0]" in str(exc.value)
    with pytest.raises(SchemaError):
        parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 5, '
              '"kind": "banded", "diagonals": []}]}')
    with pytest.raises(SchemaError) as exc:
        parse('{"spaces": []}')
    assert "spaces" in str(exc.value)
    banded = ('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [%s]}]}')
    for diag, where in [('{"offset": 0, "limit": [NaN, 0]}', "limit[0]"),
                        ('{"offset": 0, "prefix": [[1, 1e400]]}', "prefix[0][1]"),
                        ('{"offset": 0, "limit": -Infinity}', "limit"),
                        ('{"offset": 0, "decay": {"C": NaN, "p": 1}}', "decay.C"),
                        ('{"offset": 0, "decay": {"C": 1, "p": 1e400}}', "decay.p"),
                        ('{"offset": 1.5}', "diagonals[0]"),
                        ('{"offset": true}', "diagonals[0]"),
                        ('{"offset": "1"}', "diagonals[0]"),
                        ('{"offset": 0, "limit": %d}' % (2 ** 200 + 1), "limit"),
                        ('{"offset": 0, "prefix": [[1, "-1e61"]]}', "prefix[0][1]"),
                        ('{"offset": 1, "rule": {"kind": "ratfn", "num": [%d], '
                         '"den": [1, 1]}}' % 10 ** 200, "rule.num[0]"),
                        ('{"offset": 1, "rule": {"kind": "ratfn", "num": [1], '
                         '"den": [1, NaN]}}', "rule.den[1]"),
                        ('{"offset": 1, "rule": {"kind": "power", "scale": 1e400}}',
                         "rule.scale"),
                        ('{"offset": 1, "rule": {"kind": "power", "scale": 1, '
                         '"shift": "1e61"}}', "rule.shift"),
                        ('{"offset": 1, "rule": {"kind": "power", "scale": 1, '
                         '"limit": -1e100}}', "rule.limit"),
                        ('{"offset": 0, "decay": {"C": 1e100, "p": 1}}', "decay.C")]:
        with pytest.raises(SchemaError) as exc:
            parse(banded % diag)
        assert where in str(exc.value)
    assert "out of range" in str(exc.value)
    parse(banded % ('{"offset": 0, "limit": [%d, "-1/%d"]}' % (2 ** 200, 2 ** 200)))
    for block, where in [('{"row": 0.5, "col": 0, "kind": "dense", "matrix": [[1]]}',
                          "blocks[0]"),
                         ('{"row": 0, "col": false, "kind": "dense", "matrix": [[1]]}',
                          "blocks[0]"),
                         ('{"row": 0, "col": 0, "kind": "finite_rank", "entries": '
                          '[{"r": 1.5, "c": 0, "value": 1}]}', "entries[0]"),
                         ('{"row": 0, "col": 0, "kind": "finite_rank", "entries": '
                          '[{"r": 0, "c": true, "value": 1}]}', "entries[0]"),
                         # a second entry at one (r, c) once replaced the first
                         ('{"row": 0, "col": 0, "kind": "finite_rank", "entries": '
                          '[{"r": 0, "c": 1, "value": 1}, {"r": 1, "c": 1, "value": 2}, '
                          '{"r": 0, "c": 1, "value": 7}]}', "entries[2]")]:
        with pytest.raises(SchemaError) as exc:
            parse('{"spaces": [{"kind": "finite", "dim": 2}], "blocks": [%s]}' % block)
        assert where in str(exc.value)


def test_missing_limit_defaults_to_zero():
    t = parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"offset": 1, "prefix": [[2, 0]]}]}]}')
    seq = t.blocks[(0, 0)].diagonals[1]
    assert seq.limit.is_zero() and seq.tier == "exact"


def test_float_values_round_trip():
    t = parse('{"spaces": [{"kind": "l2"}], "blocks": [{"row": 0, "col": 0, '
              '"kind": "banded", "diagonals": [{"offset": 0, '
              '"prefix": [[0.125, -2.5]], "limit": [0.1, 0]}]}]}')
    seq = t.blocks[(0, 0)].diagonals[0]
    assert not seq.prefix[0].is_exact
    again = parse(serialize(t))
    s2 = again.blocks[(0, 0)].diagonals[0]
    assert s2.prefix[0].re == 0.125 and s2.prefix[0].im == -2.5
    assert s2.limit.re == 0.1
