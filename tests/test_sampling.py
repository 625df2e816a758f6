"""The batched sampling refuter against the per-sample loop it replaced.

`_reference_refute` below is that loop, kept as the test oracle: one exact
VectorExpr per candidate (the basis of the sample region first, then the
random samples), three sparse float applications and an exact re-check of
every float violation. The batched refuter must return the same witness and
the same `checked` count, or raise the same exception, on every input.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from anop import predicates
from anop.blocks import BandedBlock
from anop.diagonals import DiagonalSeq
from anop.gallery import example2, nilpotent_pair, random_theorem_form
from anop.operators import L2, OperatorExpr, adjoint, apply_float
from anop.predicates import (_fnorm2, _norms2, _refute_by_sampling, _sample_region,
                             _window_screen, paranormal_refute)
from anop.scalars import Scalar
from anop.serialize import load, operator_from_json_dict
from anop.vectors import VectorExpr
from conftest import random_exact_operator

GOLDEN = Path(__file__).resolve().parent / "golden" / "operators"
SAMPLES, SEED = 400, 42


def _reference_samples(t, count, seed, support_cap=12):
    rng = random.Random(seed)
    regions = _sample_region(t)
    grid = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3) if n]
    for _ in range(count):
        nsup = rng.randint(1, min(support_cap, len(regions)))
        coords = rng.sample(regions, nsup)
        data = [dict() for _ in t.spaces]
        for (ci, k) in coords:
            re = rng.choice(grid)
            im = rng.choice(grid) if rng.random() < 0.3 else Fraction(0)
            data[ci][k] = Scalar.exact(re, im)
        v = VectorExpr(t.spaces, data)
        if not v.is_zero():
            yield v


def _reference_refute(t, lhs_kind, samples, seed):
    exact_ok = t.is_exact_scalars()
    basis = [VectorExpr.basis(t.spaces, ci, k) for ci, k in _sample_region(t)]
    t_adj = adjoint(t)
    checked = 0
    for v in [*basis, *_reference_samples(t, samples, seed)]:
        checked += 1
        fv = v.to_float_dict()
        ftx = apply_float(t, fv)
        fttx = apply_float(t, ftx)
        a = _fnorm2(ftx) if lhs_kind == "T" else _fnorm2(apply_float(t_adj, fv))
        b = _fnorm2(fttx)
        c = _fnorm2(fv)
        if a * a <= b * c * (1.0 + 1e-9) + 1e-300:
            continue
        if exact_ok:
            n0, nt, nts, ntt = _norms2(t, v)
            lhs = nt if lhs_kind == "T" else nts
            if lhs.re * lhs.re > ntt.re * n0.re:
                return v, checked
        elif a * a > b * c * (1.0 + 1e-6):
            return v, checked
    return None, checked


def _outcome(refute, t, lhs_kind, samples=SAMPLES, seed=SEED):
    try:
        wit, checked = refute(t, lhs_kind, samples, seed)
    except Exception as exc:          # the outcome compared may be an exception
        return type(exc).__name__, str(exc)
    return (wit.to_json() if wit is not None else None), checked


def _weighted_shift(weights, limit):
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([Scalar.exact(w) for w in weights], Scalar.exact(limit))})})


def _shifts():
    """Weighted shifts whose weights a > b drop once: star-paranormal
    (limit c >= a^2 / b), failing star-paranormality at e1 (c = b) or
    failing paranormality at e0 (c = a)."""
    out = []
    for b in (1, 2, 3):
        for a in (b + 1, b + 2):
            out += [(f"star {a},{b}", _weighted_shift([a, b], -(-a * a // b))),
                    (f"not_star {a},{b}", _weighted_shift([a, b], b)),
                    (f"not_para {a},{b}", _weighted_shift([a, b], a))]
    return out


def _decay_only_example2():
    obj = json.loads((GOLDEN / "example2.json").read_text())
    del obj["blocks"][0]["diagonals"][0]["rule"]
    return operator_from_json_dict(obj)


def _cases():
    cases = [(p.stem, load(str(p))) for p in sorted(GOLDEN.glob("*.json"))]
    for seed in range(1, 9):
        t, _ = random_theorem_form(seed)
        cases += [(f"theorem_form seed {seed}", t),
                  (f"theorem_form seed {seed} x0.7", t.scaled(0.7))]
    cases += _shifts()
    cases.append(("example2 decay only", _decay_only_example2()))
    # small random operators: several refute only at a random sample
    cases += [(f"random operator {seed}", random_exact_operator(seed))
              for seed in range(30)]
    return cases


CASES = _cases()


@pytest.mark.parametrize("lhs_kind", ["T", "T*"])
@pytest.mark.parametrize("name, t", CASES, ids=[name for name, _ in CASES])
def test_batched_refuter_matches_reference(name, t, lhs_kind):
    assert _outcome(_refute_by_sampling, t, lhs_kind) == \
        _outcome(_reference_refute, t, lhs_kind)


def test_reference_cases_refute_and_raise():
    # the differential test above is only as strong as its cases: some must
    # refute at a basis vector, some at a random sample, some must run
    # through every sample, and one must raise
    outcomes = [(len(_sample_region(t)), _outcome(_reference_refute, t, kind))
                for _, t in CASES for kind in ("T", "T*")]
    refuted = [checked - nreg for nreg, (w, checked) in outcomes if isinstance(w, list)]
    assert min(refuted) <= 0 < max(refuted)
    assert any(w is None for _, (w, _) in outcomes)
    assert any(w == "UncertifiedTail" for _, (w, _) in outcomes)


def _ordered_items(v):
    return [list(d.items()) for d in v.data]


def test_batches_hold_the_reference_candidates():
    # same vectors with coordinates in the same insertion order (the
    # per-sample float test sums in that order), and the batch matrix holds
    # their float coordinates over the sample region
    for name, t in CASES[::5]:
        regions = _sample_region(t)
        expected = [VectorExpr.basis(t.spaces, ci, k) for ci, k in regions]
        expected += _reference_samples(t, 300, 7)
        batches = list(predicates.iter_sample_vectors(t, 300, 7))
        got = [b.vector(j) for b in batches for j in range(b.matrix.shape[1])]
        assert [_ordered_items(v) for v in got] == \
            [_ordered_items(v) for v in expected], name
        floats = np.array([[complex(v.get(ci, k)) for ci, k in regions] for v in expected])
        assert np.array_equal(np.hstack([b.matrix for b in batches]), floats.T), name


def test_deferred_path_matches_reference(monkeypatch):
    # a screen that clears nothing sends every column through the
    # per-sample test, which no hyponormal workload reaches otherwise
    monkeypatch.setattr(predicates, "_window_screen",
                        lambda t, lhs_kind: lambda x: np.zeros(x.shape[1], dtype=bool))
    for name, t in CASES[::3]:
        for kind in ("T", "T*"):
            assert _outcome(_refute_by_sampling, t, kind, samples=150) == \
                _outcome(_reference_refute, t, kind, samples=150), (name, kind)


@pytest.mark.parametrize("build", [nilpotent_pair, example2])
def test_refutation_stops_drawing(build, monkeypatch):
    # no batch after the refuting one is drawn: every random sample drawn
    # was yielded, and the last batch yielded holds the witness
    batches, drawn = [], []
    sampler = predicates.iter_sample_vectors

    def counting_sampler(*args, **kwargs):
        for batch in sampler(*args, **kwargs):
            batches.append(batch.matrix.shape[1])
            yield batch

    class CountingRandom(random.Random):
        def randint(self, a, b):
            drawn.append(1)
            return super().randint(a, b)

    monkeypatch.setattr(predicates, "iter_sample_vectors", counting_sampler)
    monkeypatch.setattr(random, "Random", CountingRandom)
    t = build()
    verdict = paranormal_refute(t, samples=10 ** 6)
    assert verdict.status == "Refuted"
    assert sum(batches[:-1]) < verdict.evidence["checked"] <= sum(batches)
    assert len(drawn) == max(0, sum(batches) - len(_sample_region(t)))


def test_screen_defers_columns_within_rounding_of_threshold():
    # T e0 = e1, T e1 = w e2 with w^2 (1 + 1e-9) = 1 up to the last bit: at
    # e0 the float test holds by less than any rounding bound, so the screen
    # must leave that column to the per-sample test
    slack = 1.0 + 1e-9
    w = math.sqrt(1.0 / slack)
    while w * w * slack < 1.0:
        w = math.nextafter(w, 2.0)
    t = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([Scalar.inexact(1.0)], Scalar.inexact(w))})})
    x = np.eye(len(_sample_region(t)), dtype=complex)
    cleared = _window_screen(t, "T")(x)
    assert not cleared[0]
    assert cleared[1:].all()
    assert _outcome(_refute_by_sampling, t, "T") == (None, SAMPLES + len(x))
