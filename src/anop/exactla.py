"""Exact linear algebra over rational-complex scalars.

Matrices are lists of lists of exact Scalars. Used for corner kernels,
inverses and PSD decisions with witnesses; float work lives in the jacobi
module instead.

Every kernel, rank and inverse of an exact matrix comes from elimination
alone, in one core that works on Python int pairs, the Gaussian integers
Z[i], and builds no Fraction: it reads the int fields of exact Scalars and
writes its answer into them.

- Each row is scaled by the lcm of its entries' denominators. An exact
  Scalar keeps one denominator for both parts, so this is the lcm of those
  single denominators. Scaling rows by nonzero constants leaves the reduced
  row echelon form unchanged, and with it the kernel, the rank and the
  inverse (read off [A | I]).
- Elimination. Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
  22, 1968; Nakos, Turner and Williams, SIGSAM Bull. 31, 1997) with the
  pivot rule of the reference `_rref`: the first nonzero entry of the column.
  Every entry stays, up to sign, a minor of the scaled matrix, so each
  division by the previous pivot is exact in Z[i] (Sylvester's identity).
  The reduced row echelon form is the result divided by the last pivot.
- Blocks. The nonzero pattern of the first ncols columns (those where
  pivots are sought) splits into connected blocks of rows and columns; the
  corners of T*T and TT* split into many small ones. Each block gets its own
  elimination, on its rows, its columns and the later columns ([A | I] for
  an inverse) that are nonzero in its rows. No row operation ever joins two
  blocks, so each block's pivots and reduced rows are those of the whole
  matrix, padded with zeros; the pivots of the whole are the sorted union of
  the blocks' pivots, and each row is divided by its own block's last pivot.
  `spectral` splits its summary corners with the same `connected_blocks`.

The reduced row echelon form of a matrix is unique, so the basis and the
inverse read off it are the same exact Scalars the reference `_rref` gives.
A matrix with any inexact (float) entry, as `Subspace.complement` and
`Subspace.intersect` may pass on float operators, goes through `_rref` on
Scalars instead.
"""

import math
from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, _reduced


def mat_copy(m):
    return [row[:] for row in m]


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v)) if not v[j].is_zero()),
                ZERO) for i in range(len(m))]


def mat_mul(a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v.is_zero():
                continue
            row = b[t]
            orow = out[i]
            for j in range(p):
                if not row[j].is_zero():
                    orow[j] = orow[j] + v * row[j]
    return out


def _rref(m, ncols):
    """Row echelon form in place; returns pivot column list."""
    rows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols


def _gaussian_rows(m):
    """Each row of an exact matrix times the lcm of its entries' denominators,
    as (re, im) int pairs."""
    out = []
    for row in m:
        den = math.lcm(*[s.denom for s in row])
        out.append([(s.re_num * (den // s.denom), s.im_num * (den // s.denom))
                    for s in row])
    return out


def _exact_quotients(pairs, qa, qb):
    """The Gaussian integers in pairs divided by qa + i qb, each division
    known to be exact."""
    if qb:
        nq = qa * qa + qb * qb
        return [((a * qa + b * qb) // nq, (b * qa - a * qb) // nq) for a, b in pairs]
    if qa != 1:
        return [(a // qa, b // qa) for a, b in pairs]
    return pairs


def _fraction_free_gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows in
    place, pivots sought in the first ncols columns. Returns the pivot columns
    and the last pivot: row r divided by that pivot is row r of the reduced
    row echelon form."""
    n = len(rows)
    piv_cols = []
    qa, qb = 1, 0
    for c in range(ncols):
        r = len(piv_cols)
        pr = next((i for i in range(r, n) if rows[i][c] != (0, 0)), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pa, pb = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                fa, fb = row[c]
                rows[i] = _exact_quotients(
                    [(pa * xa - pb * xb - fa * ya + fb * yb,
                      pa * xb + pb * xa - fa * yb - fb * ya)
                     for (xa, xb), (ya, yb) in zip(row, prow)], qa, qb)
        qa, qb = pa, pb
        piv_cols.append(c)
        if len(piv_cols) == n:
            break
    return piv_cols, (qa, qb)


def connected_blocks(patterns, ncols):
    """The connected blocks of a nonzero pattern over ncols columns, given as
    each row's list of nonzero columns: (row indices, column indices) pairs,
    each list increasing. A row with no nonzero, and a column with none, lies
    in no block."""
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    touched = [False] * ncols
    for cols in patterns:
        for c in cols:
            touched[c] = True
            parent[find(c)] = find(cols[0])
    blocks = {}
    for i, cols in enumerate(patterns):
        if cols:
            blocks.setdefault(find(cols[0]), ([], []))[0].append(i)
    for c in range(ncols):
        if touched[c]:
            blocks[find(c)][1].append(c)
    return list(blocks.values())


def _row_reduce(m, ncols):
    """Reduced row echelon form R of m, pivots sought in its first ncols
    columns, as (pivot columns, entry) with entry(r, c) the Scalar R[r][c]."""
    if not all(v.is_exact for row in m for v in row):
        work = mat_copy(m)
        piv = _rref(work, ncols)
        return piv, lambda r, c: work[r][c]
    rows = _gaussian_rows(m)
    owner = {}  # pivot column -> (block's rows, column positions, last pivot, row)
    patterns = [[c for c in range(ncols) if row[c] != (0, 0)] for row in rows]
    for brows, bcols in connected_blocks(patterns, ncols):
        nb = len(bcols)
        bcols += [c for c in range(ncols, len(m[0]))
                  if any(rows[i][c] != (0, 0) for i in brows)]
        sub = [[rows[i][c] for c in bcols] for i in brows]
        bpiv, q = _fraction_free_gauss_jordan(sub, nb)
        pos = {c: k for k, c in enumerate(bcols)}
        for r, k in enumerate(bpiv):
            owner[bcols[k]] = (sub, pos, q, r)
    piv = sorted(owner)

    def entry(r, c):
        sub, pos, (qa, qb), br = owner[piv[r]]
        k = pos.get(c)
        if k is None:
            return ZERO
        # (a + i b)/(qa + i qb) = (a + i b)(qa - i qb)/(qa^2 + qb^2), in lowest terms
        a, b = sub[br][k]
        return _reduced(a * qa + b * qb, b * qa - a * qb, qa * qa + qb * qb)
    return piv, entry


def kernel_basis(m, ncols=None):
    """Exact basis of the nullspace (list of Scalar coordinate lists); with
    no rows, the unit basis of ncols columns."""
    if not m:
        return [_unit(ncols, k) for k in range(ncols or 0)]
    ncols = ncols if ncols is not None else len(m[0])
    piv, entry = _row_reduce(m, ncols)
    piv_set = set(piv)
    basis = []
    for fc in range(ncols):
        if fc in piv_set:
            continue
        v = _unit(ncols, fc)
        for r, pc in enumerate(piv):
            v[pc] = -entry(r, fc)
        basis.append(v)
    return basis


def inverse(a):
    n = len(a)
    piv, entry = _row_reduce([row + unit for row, unit in zip(a, mat_identity(n))], n)
    if len(piv) < n:
        return None
    return [[entry(r, c) for c in range(n, 2 * n)] for r in range(n)]


def psd_decide(m):
    """Exact PSD decision for a Hermitian matrix of exact Scalars.

    Returns (is_psd, witness) where witness is an exact coordinate vector x
    with x* m x < 0 when not PSD. Pivoted congruence elimination: the sign
    sequence of the pivots decides, and negative or broken pivots map back
    to an explicit negative direction through the accumulated transform.
    """
    n = len(m)
    a = mat_copy(m)
    w = mat_identity(n)  # running transform: current form = w m w*
    processed = []
    for p in range(n):
        d = a[p][p]
        if not d.is_real():
            raise ValueError("matrix is not Hermitian")
        # the sign of a real exact scalar is the sign of its numerator
        if d.re_num < 0:
            return False, _pullback(w, _unit(n, p))
        if d.re_num == 0:
            for q in range(n):
                if q == p or q in processed:
                    continue
                if not a[p][q].is_zero():
                    return False, _pullback(w, _zero_diag_witness(a, n, p, q))
            processed.append(p)
            continue
        for r in range(n):
            if r == p or r in processed:
                continue
            if a[r][p].is_zero():
                continue
            f = a[r][p] / d
            # congruence row/col update and the same row op on the transform
            for c in range(n):
                a[r][c] = a[r][c] - f * a[p][c]
            for c in range(n):
                a[c][r] = a[c][r] - f.conj() * a[c][p]
            for c in range(n):
                w[r][c] = w[r][c] - f * w[p][c]
        processed.append(p)
    return True, None


def _unit(n, p):
    v = [ZERO] * n
    v[p] = ONE
    return v


def _zero_diag_witness(a, n, p, q):
    """Direction with negative form when a[p][p] = 0 but a[p][q] != 0."""
    apq = a[p][q]
    aqq = a[q][q]
    # x = e_p + t e_q with t = -s * conj(apq): form = -2 s |apq|^2 + s^2 |apq|^2 aqq
    s = Fraction(1)
    if aqq.re_num > 0:
        s = min(s, Fraction(aqq.denom, aqq.re_num))
    t = apq.conj() * Scalar.exact(-s)
    v = [ZERO] * n
    v[p] = ONE
    v[q] = t
    return v


def _pullback(w, y):
    """x = w* y so that x* m x equals the current-form value y* (w m w*) y."""
    n = len(w)
    x = [ZERO] * n
    for i in range(n):
        yi = y[i]
        if yi.is_zero():
            continue
        for j in range(n):
            x[j] = x[j] + w[i][j].conj() * yi
    return x


def quad_form(m, x):
    """x* m x exactly."""
    return sum((xi.conj() * yi for xi, yi in zip(x, mat_vec(m, x))), ZERO)
