"""Exact linear algebra over rational-complex scalars.

Matrices are lists of lists of exact Scalars. Used for corner kernels,
eigenvalue verification, inverses and PSD decisions with witnesses; float
work lives in the jacobi module instead.
"""

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE


def mat_copy(m):
    return [row[:] for row in m]


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_sub_diag(m, lam):
    """m - lam*I for a Scalar lam."""
    out = mat_copy(m)
    for i in range(len(m)):
        out[i][i] = out[i][i] - lam
    return out


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


def kernel_basis(m, ncols=None):
    """Exact basis of the nullspace (list of Scalar coordinate lists)."""
    if not m:
        return []
    ncols = ncols if ncols is not None else len(m[0])
    work = mat_copy(m)
    piv = _rref(work, ncols)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(piv):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def rank(m, ncols=None):
    if not m:
        return 0
    ncols = ncols if ncols is not None else len(m[0])
    work = mat_copy(m)
    return len(_rref(work, ncols))


def inverse(a):
    n = len(a)
    aug = [a[i][:] + mat_identity(n)[i] for i in range(n)]
    piv = _rref(aug, n)
    if len(piv) < n:
        return None
    return [row[n:] for row in aug]


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
        if d.re < 0:
            return False, _pullback(w, _unit(n, p))
        if d.re == 0:
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
    if aqq.re > 0:
        s = min(Fraction(1), Fraction(1) / Fraction(aqq.re))
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
    acc = ZERO
    mx = mat_vec(m, x)
    for xi, yi in zip(x, mx):
        acc = acc + xi.conj() * yi
    return acc


def verify_eigenvalue(m, lam):
    """Exact kernel basis of (m - lam I); empty list means not an eigenvalue."""
    return kernel_basis(mat_sub_diag(m, Scalar.of(lam)))
