"""Closed exact algebra for block operators on direct sums of l2 and C^n.

An OperatorExpr is a square block matrix over an ordered list of component
spaces. Diagonal l2 blocks are banded with eventually-constant or
rule-governed diagonals and every other block, finite x finite included,
is a finitely supported FiniteRankBlock. The class is
closed under add, scale, multiply and adjoint; corner data produced by
products is absorbed into diagonal prefixes so that each operator keeps a
single canonical form.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import (BandedBlock, DenseBlock, FiniteRankBlock, add_banded,
                     add_finite_rank)
from .diagonals import EXACT, DiagonalSeq
from .errors import NSmallerThanBand, ShapeMismatch, UncertifiedTail
from .ratfn import RationalFn
from .scalars import Scalar, ZERO
from .vectors import VectorExpr


@dataclass(frozen=True)
class Space:
    kind: str            # "l2" or "finite"
    dim: int | None = None

    def __post_init__(self):
        if self.kind not in ("l2", "finite"):
            raise ShapeMismatch(f"unknown space kind {self.kind!r}")
        if self.kind == "finite" and (self.dim is None or self.dim < 1):
            raise ShapeMismatch("finite component needs a positive dimension")
        if self.kind == "l2" and self.dim is not None:
            raise ShapeMismatch("l2 component carries no dimension")


L2 = Space("l2")


def finite(n):
    return Space("finite", n)


class OperatorExpr:
    """Immutable square block operator over a fixed space list."""

    __slots__ = ("spaces", "blocks")

    def __init__(self, spaces, blocks):
        spaces = tuple(spaces)
        norm = {}
        for (i, j), blk in blocks.items():
            if not (0 <= i < len(spaces) and 0 <= j < len(spaces)):
                raise ShapeMismatch("block index outside space list")
            si, sj = spaces[i], spaces[j]
            if i == j and si.kind == "l2":
                if isinstance(blk, FiniteRankBlock):
                    blk = BandedBlock({}).absorb_entries(blk.entries)
                if not isinstance(blk, BandedBlock):
                    raise ShapeMismatch("diagonal l2 blocks must be banded")
            else:
                if isinstance(blk, DenseBlock):
                    blk = _dense_entries(blk, si, sj)
                if not isinstance(blk, FiniteRankBlock):
                    raise ShapeMismatch("blocks off the l2 diagonal must be finite-rank")
                _check_fr_extent(blk, si, sj)
                if si.kind == sj.kind == "finite":
                    # row-major, the order every finite x finite sum follows
                    blk = FiniteRankBlock(dict(sorted(blk.entries.items())))
            if not blk.is_zero():
                norm[(i, j)] = blk
        self.spaces = spaces
        self.blocks = norm

    # -- access ---------------------------------------------------------------

    def l2_components(self):
        return [i for i, s in enumerate(self.spaces) if s.kind == "l2"]

    # -- tier predicates --------------------------------------------------------

    def is_exact_shape(self):
        return all(b.is_exact_shape() for (i, j), b in self.blocks.items()
                   if isinstance(b, BandedBlock))

    def is_exact_scalars(self):
        return all(b.is_exact_scalars() for b in self.blocks.values())

    def is_exact_tier(self):
        return self.is_exact_shape() and self.is_exact_scalars()

    # -- convenience operators ---------------------------------------------------

    def __add__(self, other):
        return combine([(Scalar.exact(1), self), (Scalar.exact(1), other)])

    def __sub__(self, other):
        return combine([(Scalar.exact(1), self), (Scalar.exact(-1), other)])

    def scaled(self, c):
        return combine([(Scalar.of(c), self)])

    def __repr__(self):
        parts = [f"{i},{j}:{type(b).__name__}" for (i, j), b in sorted(self.blocks.items())]
        return f"OperatorExpr[{' + '.join(parts) or '0'}]"


def _dense_entries(blk, si, sj):
    """The FiniteRankBlock of a DenseBlock whose rows have equal length and,
    at a finite x finite position, form a matrix of the position's shape."""
    rows = blk.matrix
    nrows, ncols = ((si.dim, sj.dim) if si.kind == sj.kind == "finite"
                    else (len(rows), len(rows[0]) if rows else 0))
    if [len(row) for row in rows] != [ncols] * nrows:
        raise ShapeMismatch(f"dense block rows do not form a {nrows}x{ncols} matrix")
    return FiniteRankBlock({(r, c): v for r, row in enumerate(rows)
                            for c, v in enumerate(row)})


def _check_fr_extent(blk, si, sj):
    for (r, c) in blk.entries:
        if si.dim is not None and r >= si.dim:
            raise ShapeMismatch("entry row outside finite component")
        if sj.dim is not None and c >= sj.dim:
            raise ShapeMismatch("entry column outside finite component")


# -- constructors -------------------------------------------------------------

def zero_operator(spaces):
    return OperatorExpr(spaces, {})

def identity_operator(spaces):
    blocks = {}
    for i, sp in enumerate(spaces):
        if sp.kind == "l2":
            blocks[(i, i)] = BandedBlock({0: DiagonalSeq(limit=Scalar.exact(1))})
        else:
            blocks[(i, i)] = FiniteRankBlock({(k, k): Scalar.exact(1)
                                              for k in range(sp.dim)})
    return OperatorExpr(spaces, blocks)


# -- combine -------------------------------------------------------------------

_ADD = {BandedBlock: add_banded, FiniteRankBlock: add_finite_rank}


def combine(terms):
    """Entrywise linear combination of [(coeff, OperatorExpr)]."""
    terms = [(Scalar.of(c), op) for c, op in terms]
    if not terms:
        raise ShapeMismatch("combine needs at least one term")
    spaces = terms[0][1].spaces
    for _, op in terms:
        if op.spaces != spaces:
            raise ShapeMismatch("operands live over different space lists")
    positions = set()
    for _, op in terms:
        positions.update(op.blocks)
    # OperatorExpr fixes a block's kind by its position, so the parts at one
    # position share a kind
    blocks = {}
    for pos in positions:
        parts = [(c, op.blocks[pos]) for c, op in terms if pos in op.blocks]
        blocks[pos] = _ADD[type(parts[0][1])](parts)
    return OperatorExpr(spaces, blocks)


# -- adjoint -------------------------------------------------------------------

def adjoint(op):
    blocks = {}
    for (i, j), b in op.blocks.items():
        blocks[(j, i)] = b.adjoint()
    return OperatorExpr(op.spaces, blocks)


# -- multiply ------------------------------------------------------------------

def _tail_fn(d, delta):
    """RationalFn for entry(k + delta), valid past the prefixes of the
    product; None if not expressible as a real rational rule."""
    if d.rule is not None:
        return d.rule.shift_index(delta) if delta != 0 else d.rule
    if d.decay is not None:
        return None
    if d.limit.is_exact and d.limit.is_real():
        from fractions import Fraction
        return RationalFn.const(Fraction(d.limit.re))
    return None


def _mul_banded(a, b):
    wa, wb = a.bandwidth, b.bandwidth
    out = {}
    for d in range(-(wa + wb), wa + wb + 1):
        pairs = [(ja, d - ja) for ja in a.diagonals if (d - ja) in b.diagonals]
        if not pairs:
            continue
        d_pos, d_neg = max(d, 0), max(-d, 0)
        limit = ZERO
        start = max(wa + wb, 1)
        any_asym = False
        infos = []
        for ja, jb in pairs:
            da, db = a.diagonals[ja], b.diagonals[jb]
            delta_a = d_pos - max(ja, 0)
            delta_b = d_neg if jb >= 0 else d_pos - ja
            s = max(len(da.prefix) - delta_a, len(db.prefix) - delta_b,
                    -delta_a, -delta_b, 0)
            start = max(start, s)
            limit = limit + da.limit * db.limit
            any_asym = any_asym or da.tier != EXACT or db.tier != EXACT
            infos.append((da, db, delta_a, delta_b))
        rule = None
        decay = None
        if any_asym:
            rule_terms = []
            expressible = True
            for da, db, delta_a, delta_b in infos:
                if da.tier == EXACT and db.tier == EXACT:
                    prod = da.limit * db.limit
                    if prod.is_exact and prod.is_real():
                        from fractions import Fraction
                        rule_terms.append(RationalFn.const(Fraction(prod.re)))
                        continue
                    expressible = False
                    break
                fa = _tail_fn(da, delta_a)
                fb = _tail_fn(db, delta_b)
                if fa is None or fb is None:
                    expressible = False
                    break
                rule_terms.append(fa * fb)
            if expressible:
                rule = rule_terms[0]
                for t in rule_terms[1:]:
                    rule = rule + t
            else:
                decay = _product_envelope(infos, start)
        # explicit corner entries
        prefix = []
        for k in range(start):
            r = k + d_pos
            c = k + d_neg
            prefix.append(_banded_product_entry(a, b, r, c))
        # a rule fixes the limit itself, and decay is set only without one
        out[d] = DiagonalSeq(prefix, limit, rule, decay)
    return BandedBlock(out)


def _product_envelope(infos, start):
    c_tot, p_min = 0.0, None
    for da, db, delta_a, delta_b in infos:
        ca, pa = (da.decay if da.decay is not None else (0.0, None))
        cb, pb = (db.decay if db.decay is not None else (0.0, None))
        fa = _shift_factor(delta_a, start, pa)
        fb = _shift_factor(delta_b, start, pb)
        ma, mb = da.sup_bound(), db.sup_bound()
        c_tot += fa * ca * mb + fb * cb * ma + fa * ca * fb * cb
        for p in (pa, pb):
            if p is not None:
                p_min = p if p_min is None else min(p_min, p)
    if p_min is None:
        raise UncertifiedTail("asymptotic product without any decay data")
    return (c_tot, p_min)


def _shift_factor(delta, start, p):
    if p is None or delta >= 0:
        return 1.0
    # (k+1)/(k+delta+1) is maximal at k = start for k >= start
    return ((start + 1) / (start + delta + 1)) ** p


def _banded_product_entry(a, b, r, c):
    wa, wb = a.bandwidth, b.bandwidth
    lo = max(0, r - wa, c - wb)
    hi = min(r + wa, c + wb)
    acc = ZERO
    for m in range(lo, hi + 1):
        va = a.entry(r, m)
        if va.is_zero():
            continue
        vb = b.entry(m, c)
        if vb.is_zero():
            continue
        acc = acc + va * vb
    return acc


def _mul_banded_sparse(a, entries):
    out = {}
    for (r, c), v in entries.items():
        for j, dseq in a.diagonals.items():
            rr = r + j
            if rr < 0:
                continue
            val = dseq.entry(min(rr, r)) * v
            if not val.is_zero():
                out[(rr, c)] = out.get((rr, c), ZERO) + val
    return out


def _mul_sparse_banded(entries, b):
    out = {}
    for (r, c), v in entries.items():
        for j, dseq in b.diagonals.items():
            cc = c - j
            if cc < 0:
                continue
            val = v * dseq.entry(min(c, cc))
            if not val.is_zero():
                out[(r, cc)] = out.get((r, cc), ZERO) + val
    return out


def _mul_sparse_sparse(e1, e2):
    by_row = {}
    for (r, c), v in e2.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, m), v in e1.items():
        for c, w in by_row.get(m, ()):
            out[(r, c)] = out.get((r, c), ZERO) + v * w
    return out


def multiply(a, b):
    """Exact block product; shapes must agree."""
    if a.spaces != b.spaces:
        raise ShapeMismatch("inner space lists differ")
    spaces = a.spaces
    n = len(spaces)
    blocks = {}
    for i in range(n):
        for j in range(n):
            banded_piece = None
            sparse_acc = {}
            for k in range(n):
                ba = a.blocks.get((i, k))
                bb = b.blocks.get((k, j))
                if ba is None or bb is None:
                    continue
                a_banded = isinstance(ba, BandedBlock)
                b_banded = isinstance(bb, BandedBlock)
                if a_banded and b_banded:
                    # banded blocks sit only on the l2 diagonal, so i == k == j
                    banded_piece = _mul_banded(ba, bb)
                elif a_banded:
                    _acc_entries(sparse_acc, _mul_banded_sparse(ba, bb.entries))
                elif b_banded:
                    _acc_entries(sparse_acc, _mul_sparse_banded(ba.entries, bb))
                else:
                    _acc_entries(sparse_acc, _mul_sparse_sparse(ba.entries, bb.entries))
            if banded_piece is not None:
                blocks[(i, j)] = banded_piece.absorb_entries(sparse_acc)
            elif sparse_acc:
                blocks[(i, j)] = FiniteRankBlock(sparse_acc)
    return OperatorExpr(spaces, blocks)


def _acc_entries(acc, part):
    for rc, v in part.items():
        acc[rc] = acc.get(rc, ZERO) + v


# -- apply ---------------------------------------------------------------------

def _image(op, xs, entry, zero):
    """Image of the per-component coordinate maps xs under op: each entry of
    op goes through `entry` before it multiplies a coordinate, and `zero` is
    the zero of the result."""
    out = [dict() for _ in op.spaces]
    for (i, j), blk in op.blocks.items():
        src = xs[j]
        if not src:
            continue
        tgt = out[i]
        if isinstance(blk, BandedBlock):
            for c, v in src.items():
                for off, dseq in blk.diagonals.items():
                    r = c + off
                    if r < 0:
                        continue
                    val = entry(dseq.entry(min(r, c))) * v
                    if val != zero:
                        tgt[r] = tgt.get(r, zero) + val
        else:
            for (r, c), w in blk.entries.items():
                v = src.get(c)
                if v is not None:
                    tgt[r] = tgt.get(r, zero) + entry(w) * v
    return out


def apply(op, x):
    """Exact image of a finitely supported vector."""
    if x.shape != op.spaces:
        raise ShapeMismatch("vector not shaped for the operator's domain")
    return VectorExpr(op.spaces, _image(op, x.data, Scalar.of, ZERO))


def apply_float(op, xs):
    """Float image of a sparse float vector (list of dicts coord -> complex)."""
    return _image(op, xs, complex, 0j)


# -- windows and truncation ------------------------------------------------------

def window_sizes(op, n):
    """Per-component window sizes for an n-per-l2-component cut."""
    return [n if s.kind == "l2" else s.dim for s in op.spaces]


def window_layout(spaces, sizes):
    starts, labels = [], []
    pos = 0
    for i, sz in enumerate(sizes):
        starts.append(pos)
        labels.extend((i, k) for k in range(sz))
        pos += sz
    return starts, labels


def dense_window(op, sizes):
    """Exact Scalar matrix of the compression to the given window."""
    starts, labels = window_layout(op.spaces, sizes)
    total = len(labels)
    mat = [[ZERO] * total for _ in range(total)]
    for (i, j), blk in op.blocks.items():
        ri, cj = starts[i], starts[j]
        nr, nc = sizes[i], sizes[j]
        if isinstance(blk, BandedBlock):
            for off, dseq in blk.diagonals.items():
                for c in range(nc):
                    r = c + off
                    if 0 <= r < nr:
                        v = dseq.entry(min(r, c))
                        if not v.is_zero():
                            mat[ri + r][cj + c] = mat[ri + r][cj + c] + v
        else:
            for (r, c), v in blk.entries.items():
                if r < nr and c < nc:
                    mat[ri + r][cj + c] = mat[ri + r][cj + c] + v
    return mat


@dataclass
class TruncationResult:
    matrix: np.ndarray
    labels: list
    tail_bound: float


def truncate(op, n):
    """Dense float compression P_N op P_N with a reported tail bound."""
    if n < 1:
        raise NSmallerThanBand("window must be at least 1")
    for i in op.l2_components():
        blk = op.blocks.get((i, i))
        if blk is not None and n < blk.bandwidth:
            raise NSmallerThanBand(
                f"window {n} smaller than bandwidth {blk.bandwidth} of component {i}")
    sizes = window_sizes(op, n)
    starts, labels = window_layout(op.spaces, sizes)
    total = len(labels)
    mat = np.zeros((total, total), dtype=complex)
    bound = 0.0
    for (i, j), blk in op.blocks.items():
        ri, cj = starts[i], starts[j]
        nr, nc = sizes[i], sizes[j]
        if isinstance(blk, BandedBlock):
            for off, dseq in blk.diagonals.items():
                # entry k of the diagonal sits at (k + off, k) or (k, k - off)
                length = min(nc, nr - off) - max(0, -off)
                if length > 0:
                    k = np.arange(length)
                    mat[ri + max(off, 0) + k, cj + max(-off, 0) + k] += \
                        _diagonal_floats(dseq, length)
                    if not dseq.has_entries():
                        for i in range(len(dseq.prefix), length):
                            bound += dseq.entry_approx(i)[1]
                bound += abs(dseq.limit) + dseq.tail_dev_bound(n)
        else:
            for (r, c), v in blk.entries.items():
                if r < nr and c < nc:
                    mat[ri + r, cj + c] += complex(v)
                else:
                    bound += abs(v)
    return TruncationResult(mat, labels, bound)


def _diagonal_floats(dseq, length):
    """complex(v) of the entries 0..length-1 of a diagonal, with the limit
    standing for each entry beyond the prefix of a declared envelope."""
    vals = [complex(v) for v in dseq.prefix[:length]]
    if dseq.rule is None:
        vals += [complex(dseq.limit)] * (length - len(vals))
    else:
        vals += [complex(dseq.entry(i)) for i in range(len(vals), length)]
    return np.array(vals, dtype=complex)


# -- structure helpers -------------------------------------------------------------

def corner_sizes(op, pad=0):
    """Per-l2-component size of the square region holding all non-tail data,
    padded by one bandwidth (plus pad); finite components map to their dim."""
    sizes = []
    for i, sp in enumerate(op.spaces):
        if sp.kind == "finite":
            sizes.append(sp.dim)
            continue
        k = 1
        blk = op.blocks.get((i, i))
        w = 0
        if blk is not None:
            k = max(k, blk.prefix_extent())
            w = blk.bandwidth
        for (a, b), other in op.blocks.items():
            if isinstance(other, FiniteRankBlock):
                if a == i:
                    k = max(k, other.row_extent())
                if b == i:
                    k = max(k, other.col_extent())
        sizes.append(k + w + pad)
    return sizes


def direct_sum(*ops):
    """Block-diagonal sum; component spaces concatenate in order."""
    spaces = []
    blocks = {}
    for op in ops:
        off = len(spaces)
        spaces.extend(op.spaces)
        for (i, j), b in op.blocks.items():
            blocks[(i + off, j + off)] = b
    return OperatorExpr(spaces, blocks)


def ops_equal_exact(a, b):
    """Whether a = b, read off the canonical forms block by block: the same
    spaces and block positions, finite-rank blocks with the same entries, and
    banded blocks with the same diagonals, two of which are equal when their
    limits, rules (as rational functions, or both none) and entries below the
    longer prefix agree; past it each entry is the limit or a rule value. A
    declared decay envelope has no entries past its prefix: it equals only an
    envelope with the same prefix, limit and (C, p). Nothing raises."""
    if a.spaces != b.spaces or a.blocks.keys() != b.blocks.keys():
        return False
    for pos, x in a.blocks.items():
        y = b.blocks[pos]
        # a and b share their spaces, so the blocks at one position share a kind
        if isinstance(x, FiniteRankBlock):
            if x.entries != y.entries:
                return False
        elif x.diagonals.keys() != y.diagonals.keys() or not all(
                _diagonals_equal(d, y.diagonals[j]) for j, d in x.diagonals.items()):
            return False
    return True


def _diagonals_equal(x, y):
    if x.limit != y.limit or x.rule != y.rule:
        return False
    if not (x.has_entries() and y.has_entries()):
        return x.prefix == y.prefix and x.decay == y.decay
    if len(x.prefix) > len(y.prefix):
        x, y = y, x
    n = len(x.prefix)
    return x.prefix == y.prefix[:n] and all(
        v == x.entry(i) for i, v in enumerate(y.prefix[n:], n))


def op_is_zero(op):
    return not op.blocks

