"""Block kinds that make up an OperatorExpr.

Diagonal l2 x l2 positions hold a BandedBlock; any position involving an
l2 component may hold a FiniteRankBlock; finite x finite positions hold
a DenseBlock. Corner data arising from algebra is absorbed into banded
diagonal prefixes so each operator has one canonical form.
"""

from .diagonals import DiagonalSeq, combine_diagonals
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
            diags[j] = DiagonalSeq(pre, base.limit, base.rule, base.decay)
        return BandedBlock(diags)

    def structurally_equal(self, other):
        if set(self.diagonals) != set(other.diagonals):
            return False
        return all(self.diagonals[j].structurally_equal(other.diagonals[j])
                   for j in self.diagonals)

    def __repr__(self):
        return f"BandedBlock({{ {', '.join(f'{j}: {d!r}' for j, d in sorted(self.diagonals.items()))} }})"


class FiniteRankBlock:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {(int(r), int(c)): Scalar.of(v)
                        for (r, c), v in entries.items()
                        if not Scalar.of(v).is_zero()}

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

    def structurally_equal(self, other):
        if set(self.entries) != set(other.entries):
            return False
        return all(self.entries[rc] == other.entries[rc] for rc in self.entries)

    def __repr__(self):
        return f"FiniteRankBlock({len(self.entries)} entries)"


class DenseBlock:
    __slots__ = ("matrix", "nrows", "ncols")

    def __init__(self, matrix, nrows=None, ncols=None):
        self.matrix = [[Scalar.of(v) for v in row] for row in matrix]
        self.nrows = nrows if nrows is not None else len(self.matrix)
        self.ncols = ncols if ncols is not None else (len(self.matrix[0]) if self.matrix else 0)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[ZERO] * ncols for _ in range(nrows)], nrows, ncols)

    def adjoint(self):
        return DenseBlock([[self.matrix[r][c].conj() for r in range(self.nrows)]
                           for c in range(self.ncols)], self.ncols, self.nrows)

    def scaled(self, coeff):
        coeff = Scalar.of(coeff)
        return DenseBlock([[coeff * v for v in row] for row in self.matrix],
                          self.nrows, self.ncols)

    def is_zero(self):
        return all(v.is_zero() for row in self.matrix for v in row)

    def is_exact_scalars(self):
        return all(v.is_exact for row in self.matrix for v in row)

    def structurally_equal(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(self.matrix[r][c] == other.matrix[r][c]
                   for r in range(self.nrows) for c in range(self.ncols))

    def __repr__(self):
        return f"DenseBlock({self.nrows}x{self.ncols})"


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


def add_dense(parts):
    nrows = parts[0][1].nrows
    ncols = parts[0][1].ncols
    out = DenseBlock.zeros(nrows, ncols)
    for coeff, blk in parts:
        coeff = Scalar.of(coeff)
        for r in range(nrows):
            for c in range(ncols):
                out.matrix[r][c] = out.matrix[r][c] + coeff * blk.matrix[r][c]
    return out
