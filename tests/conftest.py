"""Shared fixture builders for the test suite."""

import random
from fractions import Fraction

from hypothesis import settings

from anop.blocks import BandedBlock, DenseBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.operators import L2, OperatorExpr, finite
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
