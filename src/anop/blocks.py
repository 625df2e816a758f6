"""Block kinds that make up an OperatorExpr.

Diagonal l2 x l2 positions hold a BandedBlock and every other position,
finite x finite included, holds a FiniteRankBlock. A DenseBlock is an
input form only: OperatorExpr checks its shape and keeps its nonzero
entries as a FiniteRankBlock. Corner data arising from algebra is absorbed
into banded diagonal prefixes so each operator has one canonical form.
"""

from .diagonals import DiagonalSeq, combine_diagonals
from .errors import ShapeMismatch
from .scalars import Scalar, ZERO


class BandedBlock:
    __slots__ = ("diagonals",)

    def __init__(self, diagonals):
        self.diagonals = {int(j): d for j, d in diagonals.items() if not d.is_zero()}

    @property
    def bandwidth(self):
        return max((abs(j) for j in self.diagonals), default=0)

    def entry(self, r, c):
        d = self.diagonals.get(r - c)
        if d is None:
            return ZERO
        return d.entry(min(r, c))

    def adjoint(self):
        return BandedBlock({-j: d.conjugated() for j, d in self.diagonals.items()})

    def is_zero(self):
        return not self.diagonals

    def is_exact_shape(self):
        return all(d.tier == "exact" for d in self.diagonals.values())

    def is_exact_scalars(self):
        return all(d.is_exact_scalars() for d in self.diagonals.values())

    def prefix_extent(self):
        """Smallest n such that rows/cols >= n only see tail entries."""
        return max((len(d.prefix) + abs(j) for j, d in self.diagonals.items()),
                   default=0)

    def absorb_entries(self, entries):
        """Return a BandedBlock equal to self plus sparse corner entries."""
        if not entries:
            return self
        by_offset = {}
        for (r, c), v in entries.items():
            by_offset.setdefault(r - c, []).append((min(r, c), v))
        diags = dict(self.diagonals)
        for j, items in by_offset.items():
            need = max(k for k, _ in items) + 1
            base = diags.get(j, DiagonalSeq())
            base = base.with_prefix_len(need)
            pre = list(base.prefix)
            while len(pre) < need:
                pre.append(base.entry(len(pre)))
            for k, v in items:
                pre[k] = pre[k] + v
            diags[j] = base.with_prefix(pre)
        return BandedBlock(diags)

    def __repr__(self):
        return f"BandedBlock({{ {', '.join(f'{j}: {d!r}' for j, d in sorted(self.diagonals.items()))} }})"


class FiniteRankBlock:
    __slots__ = ("entries",)

    def __init__(self, entries):
        if any(r < 0 or c < 0 for r, c in entries):
            raise ShapeMismatch("negative entry index")
        values = ((rc, Scalar.of(v)) for rc, v in entries.items())
        self.entries = {(int(r), int(c)): v for (r, c), v in values if not v.is_zero()}

    def adjoint(self):
        return FiniteRankBlock({(c, r): v.conj() for (r, c), v in self.entries.items()})

    def is_zero(self):
        return not self.entries

    def is_exact_scalars(self):
        return all(v.is_exact for v in self.entries.values())

    def row_extent(self):
        return max((r + 1 for (r, _) in self.entries), default=0)

    def col_extent(self):
        return max((c + 1 for (_, c) in self.entries), default=0)

    def __repr__(self):
        return f"FiniteRankBlock({len(self.entries)} entries)"


class DenseBlock:
    """Input form of a block given as a list of rows."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = [[Scalar.of(v) for v in row] for row in matrix]

    def scaled(self, coeff):
        coeff = Scalar.of(coeff)
        return DenseBlock([[coeff * v for v in row] for row in self.matrix])


def add_banded(parts):
    """Linear combination of [(coeff, BandedBlock)]."""
    offsets = set()
    for _, b in parts:
        offsets.update(b.diagonals)
    diags = {}
    for j in offsets:
        terms = [(c, b.diagonals[j]) for c, b in parts if j in b.diagonals]
        diags[j] = combine_diagonals(terms)
    return BandedBlock(diags)


def add_finite_rank(parts):
    acc = {}
    for coeff, blk in parts:
        coeff = Scalar.of(coeff)
        for rc, v in blk.entries.items():
            acc[rc] = acc.get(rc, ZERO) + coeff * v
    return FiniteRankBlock(acc)

