"""Constructive spectral peeling: invariance and reducing checks, the
peeled representation (scaled unitaries above the essential minimum, an
isometric tail with a one-sided coupling, a finite residual block), the
U (+) D regrouping, the finite-corner block inverse, and the three
normality certificates.

Invertibility is decided exactly: by trivial kernels with 0 outside the
essential spectrum of T*T, or by the block inverse's two-sided product
check (on float data its residual bound shows it numerically).

A cofinite subspace is handled through finitely many vectors: its extra
directions plus, for each tail, the tail window, the coordinate vectors
from the tail's start through the corner padded by one plus the largest
bandwidth. Past the window a banded operator repeats its tail pattern, so
the window carries the invariance candidates, the tail isometry's witness
basis and the tail-to-tail couplings of a compression.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blocks import BandedBlock, DenseBlock, FiniteRankBlock
from .diagonals import DiagonalSeq
from .errors import (HypothesisFailed, InfiniteH2, NotAN, NotInvertible,
                     StarParanormalRefuted, StructureViolation)
from .exactla import inverse as exact_inverse
from .operators import (L2, OperatorExpr, adjoint, apply, corner_sizes,
                        dense_window, finite, identity_operator, multiply,
                        ops_equal_exact, truncate, window_layout, window_sizes)
from .predicates import (NUMERICAL, PROVEN, REFUTED, PredicateVerdict,
                         _commutator, _jsonable, an_check, compute_M_and_Mstar,
                         is_normal, star_paranormal_check)
from .scalars import ONE, Scalar, scalar_sqrt
from .spectral import (_window_norm_bound, adjoint_modulus_summary, cogram,
                       gram, kernel_dims, modulus_summary,
                       shares_derived, summary_eigenspace)
from .subspaces import Subspace, orthogonalize
from .vectors import VectorExpr


# -- invariance ----------------------------------------------------------------------

def _tail_window(t, ci, start):
    """The tail window of component ci for a tail from `start`."""
    stop = max(max(corner_sizes(t, pad=1)), start) + _max_bandwidth(t) + 1
    return [VectorExpr.basis(t.spaces, ci, k) for k in range(start, stop)]


def _invariance_candidates(t, m):
    """Finitely many vectors whose invariance residuals certify invariance of
    a span or cofinite subspace under a banded operator: its extra
    directions and its tail windows."""
    cands = list(m.vectors)
    for ci, start in m.tails.items():
        cands.extend(_tail_window(t, ci, start))
    return cands


def _max_bandwidth(t):
    return max((b.bandwidth for b in t.blocks.values()
                if isinstance(b, BandedBlock)), default=0)


def invariance_check(t, m, tol=1e-10):
    """Proven iff (I - P_m) T P_m vanishes; exact on exact data."""
    if m.kind in ("zero", "full"):
        return PredicateVerdict("invariance", PROVEN,
                                evidence={"rule": f"{m.kind} subspace is trivially "
                                                  "invariant"},
                                tolerances={"tol": tol})
    exact_op = t.is_exact_scalars()
    all_exact = True
    worst = 0.0
    for v in _invariance_candidates(t, m):
        tv = apply(t, v)
        r = tv - m.project(tv)
        if exact_op and v.is_exact():
            if not r.is_zero():
                return PredicateVerdict(
                    "invariance", REFUTED, witness=v,
                    evidence={"rule": "image leaves the subspace",
                              "residual": r.norm_float()},
                    tolerances={"tol": tol})
        else:
            all_exact = False
            worst = max(worst, r.norm_float() / max(v.norm_float(), 1e-300))
    if exact_op and all_exact:
        return PredicateVerdict("invariance", PROVEN,
                                evidence={"rule": "off-block is exactly zero"},
                                tolerances={"tol": tol})
    if worst <= tol:
        return PredicateVerdict("invariance", NUMERICAL,
                                evidence={"rule": "off-block below tol",
                                          "residual": worst},
                                tolerances={"tol": tol})
    return PredicateVerdict("invariance", REFUTED,
                            evidence={"rule": "off-block above tol",
                                      "residual": worst},
                            tolerances={"tol": tol})


def reducing_check(t, m, tol=1e-10):
    """Invariance under both t and t*."""
    fwd = invariance_check(t, m, tol)
    bwd = invariance_check(adjoint(t), m, tol)
    ok = {fwd.status, bwd.status} <= {PROVEN, NUMERICAL}
    status = PROVEN if fwd.status == bwd.status == PROVEN else \
        (NUMERICAL if ok else REFUTED)
    witness = None if ok else (fwd.witness or bwd.witness)
    return PredicateVerdict("reducing", status, witness=witness,
                            evidence={"invariant_under_T": fwd.status,
                                      "invariant_under_T_star": bwd.status},
                            tolerances={"tol": tol})


# -- tail isometry descriptor -----------------------------------------------------------

@dataclass
class TailIsometry:
    """T restricted to the tail eigenspace, divided by the tail value lam,
    the square root of m_e2; kept as a restriction descriptor (subspace
    plus corner rows) rather than a re-indexed operator."""
    t: OperatorExpr
    h2: Subspace
    lam: float
    m_e2: object                      # Fraction when exact, else float

    def apply_in(self, v):
        pv = self.h2.project(apply(self.t, v))
        return pv.scaled(ONE / scalar_sqrt(Scalar.of(self.m_e2)))

    def window_basis(self):
        """Finite witness basis of the tail subspace: its extra directions
        plus its tail windows."""
        vecs = list(self.h2.onb())
        for ci, start in sorted(self.h2.tails.items()):
            vecs.extend(_tail_window(self.t, ci, start))
        return vecs

    def to_json(self):
        out = {"kind": "restriction", "value": self.lam,
               "subspace": self.h2.to_json()}
        if self.h2.kind == "cofinite":
            out["tails"] = {str(c): s for c, s in sorted(self.h2.tails.items())}
        # images of the witness basis pin down the isometry near the corner;
        # beyond them the action repeats the banded tail pattern
        out["corner_rows"] = [self.apply_in(v).to_json()
                              for v in self.window_basis()]
        return out


# -- certificate -------------------------------------------------------------------------

@dataclass
class PeeledLevel:
    """A scaled-unitary summand: above the tail value, or a reducing
    eigenspace below it."""
    value: float
    space: Subspace
    matrix: np.ndarray
    unitary_residual: float

    def to_json(self):
        return {"value": self.value,
                "dim": self.space.dim(),
                "eigenspace": self.space.to_json(),
                "matrix": _mat_json(self.matrix),
                "unitary_residual": self.unitary_residual}


def _mat_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)] \
        if m is not None and getattr(m, "size", 0) else []


@dataclass
class DecompositionCertificate:
    spaces: tuple
    peeled: list
    tail_value: float
    h2: Subspace
    tail: TailIsometry | None
    a_cols: list                      # columns of P_{H2} T P_{H3} over the H3 basis
    b_matrix: list                    # dense rows of P_{H3} T P_{H3}
    h3: Subspace | None
    below: list
    delta_spectrum: list
    absorbed_deltas: list
    s_star_a_norm: float
    s_star_a_exact_zero: bool
    isometry_residual: float
    split_residual: float
    reconstruction_residual: float
    recon_window: int
    lambda_card: object
    tier: str
    norm: float
    m: float
    m_e: float
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "peeled": [p.to_json() for p in self.peeled],
            "tail": {"value": self.tail_value,
                     "h2": self.h2.to_json(),
                     "isometry": self.tail.to_json() if self.tail else None,
                     "a_columns": [v.to_json() for v in self.a_cols],
                     "b_matrix": _jsonable(self.b_matrix),
                     "isometry_residual": self.isometry_residual},
            "h3": self.h3.to_json() if self.h3 is not None else None,
            "below": [b.to_json() for b in self.below],
            "delta_spectrum": self.delta_spectrum,
            "absorbed_deltas": self.absorbed_deltas,
            "s_star_a_norm": self.s_star_a_norm,
            "s_star_a_exact_zero": self.s_star_a_exact_zero,
            "split_residual": self.split_residual,
            "reconstruction_residual": self.reconstruction_residual,
            "reconstruction_window": self.recon_window,
            "lambda_cardinality": self.lambda_card,
            "norm": self.norm, "m": self.m, "m_e": self.m_e,
            "tier": "Exact" if self.tier == "exact" else "Numerical",
            "params": _jsonable(self.tolerances),
            "notes": list(self.notes),
        }


# -- peeling -----------------------------------------------------------------------------

def _collect_above(s_q, max_peel):
    """Distinct squared values above the essential minimum, descending;
    returns (values, truncated_flag)."""
    m_e2 = float(s_q.m_e)
    vals = [d.value for d in s_q.discrete if d.source == "corner" and
            float(d.value) > m_e2 + 1e-12 * max(1.0, m_e2)]
    truncated = False
    for st in s_q.streams:
        mono = st.fn.monotone_from(st.start)
        if mono == "dec":
            # infinitely many distinct values accumulate at the limit from
            # above; peel within the budget only
            for k in range(st.start, st.start + max_peel):
                v = st.fn.eval(k)
                if float(v) > m_e2 + 1e-15:
                    vals.append(v)
            truncated = True
        # increasing streams approach the (singleton) essential point from
        # below and contribute nothing above it
    out = _distinct_values(vals)
    if len(out) > max_peel:
        truncated = True
        out = out[:max_peel]
    return out, truncated


def _distinct_values(vals):
    """One value per float to 12 decimals, exact where any copy is, in
    descending order."""
    dedup = {}
    for v in vals:
        key = round(float(v), 12)
        if key not in dedup or (isinstance(v, Fraction) and
                                not isinstance(dedup[key], Fraction)):
            dedup[key] = v
    return sorted(dedup.values(), key=lambda v: -float(v))


def _matrix_in(basis, images):
    """Rows of the coefficients of each image along each basis vector."""
    return [[tb.inner(g) / g.norm2() for tb in images] for g in basis]


def _restriction_matrix(t, space, lam):
    """Matrix of T restricted to a finite subspace, divided by lam, in the
    orthonormal basis; returns (matrix, containment_residual, unitary_residual)."""
    basis = space.onb()
    images = [apply(t, b) for b in basis]
    n = len(basis)
    mat = np.array([[complex(c) / lam for c in row]
                    for row in _matrix_in(basis, images)],
                   dtype=complex).reshape(n, n)
    containment = max((space.residual(tb) for tb in images), default=0.0)
    uu = mat.conj().T @ mat
    vv = mat @ mat.conj().T
    ur = max(float(np.linalg.norm(uu - np.eye(n))),
             float(np.linalg.norm(vv - np.eye(n)))) if n else 0.0
    return mat, containment, ur


def _require_hypotheses(t, tol, samples, seed, trunc):
    """Raise NotAN or StarParanormalRefuted when a check refutes the
    hypotheses of the peeled representation."""
    av = an_check(t, tol, trunc)
    if av.status == REFUTED:
        raise NotAN(str(av.evidence.get("rule")))
    sv = star_paranormal_check(t, tol, k_grid=16, samples=min(samples, 4000),
                               seed=seed, trunc=min(trunc, 160))
    if sv.status == REFUTED:
        raise StarParanormalRefuted("refutation witness found")


@shares_derived
def peel_decompose(t, tol=1e-10, max_peel=64, samples=2000, seed=42, trunc=256):
    """Constructive decomposition of a star-paranormal absolutely norm
    attaining operator: descending scaled-unitary eigenspaces above the
    essential minimum, the isometric tail with its one-sided coupling, the
    finite complement block, and sub-tail unitary summands where they exist."""
    _require_hypotheses(t, tol, samples, seed, trunc)
    return _peel(t, tol, max_peel, samples, seed, trunc)


def _peel(t, tol, max_peel, samples, seed, trunc):
    """The structural peel of peel_decompose, on an operator whose
    hypotheses were already checked."""
    msum = modulus_summary(t, tol, trunc)
    s_q = msum.base
    s_qq = adjoint_modulus_summary(t, tol, trunc).base
    notes = []
    m_e = msum.m_e
    exact_tier = t.is_exact_tier()

    above, truncated = _collect_above(s_q, max_peel)
    peeled = []
    for v2 in above:
        lvl, reason = _unitary_level(t, s_q, s_qq, v2, tol)
        if lvl is None:
            raise StructureViolation(reason)
        peeled.append(lvl)

    # tail (none without an essential spectrum: m_e then defaults to 0.0)
    h2 = summary_eigenspace(s_qq, s_q.m_e) if s_q.ess \
        else Subspace.zero(t.spaces)
    tail = None
    iso_res = 0.0
    if not h2.is_zero():
        tail = TailIsometry(t, h2, m_e, s_q.m_e)
        inv = invariance_check(t, h2, tol)
        if inv.status == REFUTED:
            raise StructureViolation("tail eigenspace is not invariant")
        iso_res = _isometry_residual(t, h2, m_e)
        if iso_res > 10 * tol * max(1.0, m_e):
            raise StructureViolation(
                f"tail restriction is not an isometry (residual {iso_res:.3g})")

    # delta spectrum in [m, m_e)
    m_e2 = float(s_q.m_e)
    eps = 1e-12 * max(1.0, m_e2)
    deltas = [d.value for d in s_q.discrete
              if d.source == "corner" and float(d.value) < m_e2 - eps]
    for st in s_q.streams:
        cnt = st.count_below(s_q.m_e)
        if isinstance(cnt, int):
            deltas.extend(st.fn.eval(k) for k in range(st.start, st.start + cnt))
    deltas = _distinct_values(deltas)
    delta_spectrum = [math.sqrt(max(float(v), 0.0)) for v in deltas]

    below = []
    absorbed = []
    below_vecs = []
    for v2 in deltas:
        # the kernel (value 0) has no unitary part; it stays in the residual block
        lvl = _unitary_level(t, s_q, s_qq, v2, tol)[0] if float(v2) > 0 else None
        if lvl is not None and lvl.space.dim() and \
                invariance_check(t, lvl.space, tol).status != REFUTED:
            below.append(lvl)
            below_vecs.extend(lvl.space.vectors)
        else:
            absorbed.append(math.sqrt(max(float(v2), 0.0)))

    # complement H3 = (H1 (+) H2)^perp, with the reducing below-spaces
    # leading its basis so the U (+) D view can split them off cleanly
    h1_vecs = [v for lvl in peeled for v in lvl.space.vectors]
    h3 = None
    a_cols, b_rows = [], []
    split_res = 0.0
    if truncated:
        notes.append(f"peeling truncated at {max_peel}; complement omitted")
    elif h2.is_zero():
        notes.append("the tail value is not an eigenvalue of the adjoint "
                     "modulus; complement omitted")
    else:
        comp = h2.complement()
        if comp.dim() is None:
            notes.append("tail complement is infinite; block data omitted")
        else:
            h3 = Subspace.span(t.spaces, orthogonalize(
                below_vecs + list(comp.vectors), h1_vecs))

    s_star_a_norm = 0.0
    s_star_exact_zero = True
    if h3 is not None:
        basis = h3.onb()
        images = [apply(t, b) for b in basis]
        t_star = adjoint(t)
        for tb in images:
            acol = h2.project(tb)
            a_cols.append(acol)
            rest = tb - acol - h3.project(tb)
            for lvl in peeled:
                rest = rest - lvl.space.project(rest)
            split_res = max(split_res, rest.norm_float())
            sa = h2.project(apply(t_star, acol))
            if sa.is_zero():
                continue
            s_star_exact_zero = False
            s_star_a_norm = max(s_star_a_norm, sa.norm_float() / max(m_e, 1e-300))
        b_rows = _matrix_in(basis, images)

    cert = DecompositionCertificate(
        spaces=t.spaces, peeled=peeled, tail_value=m_e, h2=h2, tail=tail,
        a_cols=a_cols, b_matrix=b_rows, h3=h3, below=below,
        delta_spectrum=delta_spectrum, absorbed_deltas=absorbed,
        s_star_a_norm=s_star_a_norm, s_star_a_exact_zero=s_star_exact_zero,
        isometry_residual=iso_res, split_residual=split_res,
        reconstruction_residual=0.0, recon_window=0,
        lambda_card=(f"truncated@{max_peel}" if truncated else len(peeled)),
        tier=("exact" if exact_tier and not truncated and s_q.tier == "exact"
              else "numerical"),
        norm=msum.norm, m=msum.m, m_e=m_e,
        tolerances={"tol": tol, "max_peel": max_peel, "samples": samples,
                    "seed": seed, "trunc": trunc},
        notes=notes)
    if h3 is not None and not truncated:
        _reconstruction_residual(cert, t)
    if s_star_a_norm > tol:
        raise StructureViolation(
            f"tail coupling is not one-sided: ||S*A|| = {s_star_a_norm:.3g}")
    return cert


def _unitary_level(t, s_q, s_qq, v2, tol):
    """(PeeledLevel, None) when T is a scaled unitary on the common
    eigenspace of T*T and TT* at v2, else (None, reason)."""
    lam = math.sqrt(max(float(v2), 0.0))
    g1 = summary_eigenspace(s_q, v2)
    g2 = summary_eigenspace(s_qq, v2)
    eq, res = g1.equals(g2, tol)
    if not eq:
        return None, (f"eigenspaces of |T| and |T*| differ at value {lam:.12g} "
                      f"(projector residual {res:.3g}); the input fails the "
                      f"star-paranormal structure undetectably")
    mat, cont, ur = _restriction_matrix(t, g1, lam)
    if cont > tol * max(1.0, lam) or ur > tol * 10:
        return None, (f"restriction at value {lam:.12g} is not unitary "
                      f"(containment {cont:.3g}, unitary residual {ur:.3g})")
    return PeeledLevel(lam, g1, mat, ur), None


def _isometry_residual(t, h2, lam):
    worst = 0.0
    for v in _invariance_candidates(t, h2):
        tv = apply(t, v)
        worst = max(worst, abs(tv.norm_float() - lam * v.norm_float()))
    return worst


def _projector_matrix(space, labels):
    n = len(labels)
    p = np.zeros((n, n), dtype=complex)
    if space.kind == "full":
        return np.eye(n, dtype=complex)
    if space.kind == "cofinite":
        for idx, (ci, k) in enumerate(labels):
            if ci in space.tails and k >= space.tails[ci]:
                p[idx, idx] = 1.0
    for v in space.vectors:
        flat = np.zeros(n, dtype=complex)
        for idx, (ci, k) in enumerate(labels):
            flat[idx] = complex(v.get(ci, k))
        nrm2 = np.vdot(flat, flat).real
        if nrm2 > 0:
            p += np.outer(flat, flat.conj()) / nrm2
    return p


def _reconstruction_residual(cert, t):
    base = max(corner_sizes(t))
    n = 4 * base
    sizes = window_sizes(t, n)
    starts, labels = window_layout(t.spaces, sizes)
    tw = truncate(t, n).matrix
    p1s = [_projector_matrix(lvl.space, labels) for lvl in cert.peeled]
    p2 = _projector_matrix(cert.h2, labels)
    p3 = _projector_matrix(cert.h3, labels)
    rec = p2 @ tw @ p2 + p2 @ tw @ p3 + p3 @ tw @ p3
    for p1 in p1s:
        rec += p1 @ tw @ p1
    # ignore the window boundary band, where the compression is lossy
    w = _max_bandwidth(t)
    mask = np.ones(len(labels), dtype=bool)
    for idx, (ci, k) in enumerate(labels):
        if t.spaces[ci].kind == "l2" and k >= n - w - 1:
            mask[idx] = False
    diff = (tw - rec)[np.ix_(mask, mask)]
    cert.reconstruction_residual = float(np.linalg.norm(diff))
    cert.recon_window = n
    # split residual: the three projectors plus the peeled ones resolve the
    # identity on the interior
    tot = p2 + p3
    for p1 in p1s:
        tot += p1
    ident = np.eye(len(labels))
    split = (ident - tot)[np.ix_(mask, mask)]
    cert.split_residual = max(cert.split_residual, float(np.linalg.norm(split)))


# -- U (+) D view --------------------------------------------------------------------------

def u_plus_d_view(cert):
    """Regroup a certificate as a unitary direct sum plus one upper-triangular
    2x2 block; the tail always forms the D part even when A = B = 0."""
    u_part = [(lvl.value, lvl.matrix) for lvl in cert.peeled]
    u_part += [(b.value, b.matrix) for b in cert.below]
    below_dims = sum(b.space.dim() or 0 for b in cert.below)
    d_part = {"value": cert.tail_value,
              "isometry": cert.tail.to_json() if cert.tail else None,
              "a_columns": [v.to_json() for v in cert.a_cols],
              "b_matrix": _jsonable(cert.b_matrix),
              "h3_dim": (cert.h3.dim() if cert.h3 is not None else None),
              "note": ("below-tail unitary summands are listed in the U part; "
                       f"{below_dims} dimensions move out of the residual block")}
    return u_part, d_part


# -- block upper-triangular inverse -----------------------------------------------------------

@dataclass
class BlockInverse:
    a_inv: OperatorExpr
    y_cols: list
    c_inv: list
    residual: float
    exact: bool


def assemble_upper(a, b_cols, c_rows):
    """[[a, b], [0, c]] over a.spaces + one finite component."""
    n = len(c_rows)
    if len(b_cols) != n:
        raise HypothesisFailed("coupling columns must match the finite block")
    spaces = a.spaces + (finite(n),)
    blocks = dict(a.blocks)
    last = len(spaces) - 1
    fr = {}
    for j, col in enumerate(b_cols):
        for (ci, k), v in col.items():
            fr.setdefault(ci, {})[(k, j)] = v
    for ci, entries in fr.items():
        blocks[(ci, last)] = FiniteRankBlock(entries)
    blocks[(last, last)] = DenseBlock([[Scalar.of(v) for v in row] for row in c_rows])
    return OperatorExpr(spaces, blocks)


def _dense_inverse(rows, exact):
    """Inverse of a square matrix as rows of Scalars: exact elimination, or
    numpy's inverse on float data; NotInvertible when singular."""
    rows = [[Scalar.of(v) for v in row] for row in rows]
    if exact:
        inv = exact_inverse(rows)
        if inv is None:
            raise NotInvertible("finite block is singular")
        return inv
    try:
        inv = np.linalg.inv(np.array([[complex(v) for v in row] for row in rows]))
    except np.linalg.LinAlgError:
        raise NotInvertible("finite block is singular") from None
    return [[Scalar.inexact(x.real, x.imag) for x in row] for row in inv]


def _structural_inverse(a):
    """Inverse of a scaled-unitary or all-finite block; None if neither
    structure applies."""
    if all(sp.kind == "finite" for sp in a.spaces):
        sizes = [sp.dim for sp in a.spaces]
        starts, _ = window_layout(a.spaces, sizes)
        spans = [(start, start + size) for start, size in zip(starts, sizes)]
        exact = a.is_exact_scalars()
        inv = _dense_inverse(dense_window(a, sizes), exact)
        return OperatorExpr(a.spaces, {
            (i, j): DenseBlock([row[c0:c1] for row in inv[r0:r1]])
            for i, (r0, r1) in enumerate(spans) for j, (c0, c1) in enumerate(spans)}), exact
    q = gram(a)
    qq = cogram(a)
    ident = identity_operator(a.spaces)
    for alpha2 in _constant_candidates(q):
        scaled_id = ident.scaled(alpha2)
        if ops_equal_exact(q, scaled_id) and ops_equal_exact(qq, scaled_id):
            return adjoint(a).scaled(ONE / alpha2), alpha2.is_exact
    return None, False


def _constant_candidates(q):
    for i in q.l2_components():
        blk = q.blocks.get((i, i))
        if blk is not None and 0 in blk.diagonals:
            yield blk.diagonals[0].limit
            return
    yield Scalar.exact(1)


def block_upper_inverse(a, b_cols, c_rows, tol=1e-10):
    """Inverse blocks (a^-1, -a^-1 b c^-1, c^-1) of [[a, b], [0, c]] with a
    finite lower-right block. The two-sided products with the assembled
    operator decide invertibility: checked exactly, they prove it on exact
    data; on float data a residual within max(tol, 1e-8) shows it
    numerically."""
    n = len(c_rows)
    assembled = assemble_upper(a, b_cols, c_rows)
    a_inv, a_exact = _structural_inverse(a)
    if a_inv is None:
        raise NotInvertible("the (1,1) block is not in an invertible "
                            "structural form")
    c_exact = all(Scalar.of(v).is_exact for row in c_rows for v in row)
    c_inv = _dense_inverse(c_rows, c_exact)
    ainv_b = [apply(a_inv, col) for col in b_cols]
    y_cols = []
    for j in range(n):
        acc = VectorExpr(a.spaces)
        for i in range(n):
            coef = c_inv[i][j]
            if not coef.is_zero():
                acc = acc + ainv_b[i].scaled(coef)
        y_cols.append(acc.scaled(Scalar.exact(-1)))
    inv_op = assemble_upper(a_inv, y_cols, c_inv)
    left = multiply(assembled, inv_op)
    right = multiply(inv_op, assembled)
    ident = identity_operator(assembled.spaces)
    exact = a_exact and c_exact and assembled.is_exact_scalars()
    if exact and ops_equal_exact(left, ident) and ops_equal_exact(right, ident):
        residual = 0.0
    else:
        nwin = max(corner_sizes(assembled)) + 4
        residual = max(
            float(np.linalg.norm(truncate(left - ident, nwin).matrix)),
            float(np.linalg.norm(truncate(right - ident, nwin).matrix)))
        exact = False
        if residual > max(tol, 1e-8):
            raise NotInvertible(f"inverse verification failed (residual "
                                f"{residual:.3g})")
    return BlockInverse(a_inv, y_cols, c_inv, residual, exact)


def coupling_vanishes(a, b_cols, c_rows, tol=1e-10):
    """Certifies b = 0 for an invertible [[alpha S, b], [0, c]] with S an
    isometry and S*b = 0. Once the (1,1) block is a scaled isometry,
    block_upper_inverse decides invertibility, and exact data decides
    S*b = 0 and b = 0 exactly (float data within tol, and only Numerical)."""
    alpha = next(_constant_candidates(gram(a)))
    alpha = scalar_sqrt(alpha) if alpha.is_real() else None
    if alpha is None or float(alpha.re) <= 0:
        raise HypothesisFailed("the (1,1) block is not a positive multiple "
                               "of an isometry")
    s_op = a.scaled(ONE / alpha)
    q = gram(s_op)
    ident = identity_operator(a.spaces)
    if a.is_exact_scalars() and alpha.is_exact:
        if not ops_equal_exact(q, ident):
            raise HypothesisFailed("the (1,1) block is not isometric")
    else:
        nwin = max(corner_sizes(q)) + 2
        if float(np.linalg.norm(truncate(q - ident, nwin).matrix)) > tol:
            raise HypothesisFailed("the (1,1) block is not isometric within tol")
    inv = block_upper_inverse(a, b_cols, c_rows, tol)
    exact = inv.exact and alpha.is_exact
    s_star = adjoint(s_op)
    s_star_b = [apply(s_star, col) for col in b_cols]
    worst = max((v.norm_float() for v in s_star_b), default=0.0)
    if not (all(v.is_zero() for v in s_star_b) if exact else worst <= tol):
        raise HypothesisFailed(f"S*b does not vanish (norm {worst:.3g})")
    bnorm = max((col.norm_float() for col in b_cols), default=0.0)
    if all(col.is_zero() for col in b_cols) if exact else bnorm <= tol:
        return PredicateVerdict("coupling_vanishes", PROVEN if exact else NUMERICAL,
                                evidence={"rule": "invertibility and a one-sided "
                                                  "coupling force b = 0",
                                          "b_norm": bnorm,
                                          "inverse_residual": inv.residual},
                                tolerances={"tol": tol})
    raise StructureViolation(
        f"certified hypotheses but nonzero coupling (norm {bnorm:.3g})")


# -- normality certificates ----------------------------------------------------------------

@dataclass
class NormalityCertificate:
    route: str
    normal: bool
    commutator_bound: float
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {"route": self.route, "normal": self.normal,
                "commutator_bound": self.commutator_bound,
                "details": _jsonable(self.details)}


@shares_derived
def certify_normal(t, tol=1e-10, samples=2000, seed=42, trunc=256, max_peel=64):
    """Normality through invertibility or matching finite kernel dimensions
    (the Weyl condition); refuses to certify when neither applies. T is
    invertible iff dim N(T) = dim N(T*) = 0 and 0 lies outside the essential
    spectrum of T*T, decided exactly; the minimum moduli are reported only."""
    _require_hypotheses(t, tol, samples, seed, trunc)
    msum = modulus_summary(t, tol, trunc)
    amsum = adjoint_modulus_summary(t, tol, trunc)
    details = {"m": msum.m, "m_adjoint": amsum.m, "m_e": msum.m_e,
               "norm": msum.norm}
    kd = kernel_dims(t, tol, trunc)
    fredholm = not any(_contains_zero(piece, tol) for piece in msum.base.ess)
    if kd.as_tuple() == (0, 0) and fredholm:
        cert = _peel(t, tol, max_peel, samples, seed, trunc)
        details["s_star_a_norm"] = cert.s_star_a_norm
        details["isometry_residual"] = cert.isometry_residual
        a_norm = max((c.norm_float() for c in cert.a_cols), default=0.0)
        details["a_norm"] = a_norm
        if a_norm > tol:
            raise StructureViolation(
                f"invertible input kept a nonzero tail coupling ({a_norm:.3g})")
        return _conclude(t, "InvertiblePath", details)
    details["kernel_dims"] = kd.to_json()
    dims_equal_finite = (isinstance(kd.dim_t, int) and kd.dim_t == kd.dim_t_star)
    details["m_e_adjoint"] = amsum.m_e
    weyl_ok = dims_equal_finite and fredholm
    details["zero_outside_weyl_spectrum"] = weyl_ok
    if not weyl_ok:
        details["is_normal"] = is_normal(t).status
        return NormalityCertificate("NotApplicable", False, float("nan"), details)
    kernel = summary_eigenspace(msum.base, Scalar.exact(0))
    restricted = compress_to_complement(t, kernel)
    details["restricted_spaces"] = [s.kind for s in restricted.spaces]
    sub = certify_normal(restricted, tol, samples, seed, trunc, max_peel)
    details["restricted_route"] = sub.route
    if not sub.normal:
        return NormalityCertificate("KernelDimPath", False, float("nan"), details)
    return _conclude(t, "KernelDimPath", details)


def _contains_zero(piece, tol):
    """Whether an essential-spectrum piece of a positive operator holds 0:
    exactly on an exact point, within tol otherwise."""
    p = piece[1]
    if piece[0] == "interval":
        return p <= tol
    return p.is_zero() if p.is_exact else float(p.re) <= tol


def _conclude(t, route, details):
    """The certificate of a route that applied."""
    verdict = is_normal(t)
    details["is_normal"] = verdict.status
    bound = _window_norm_bound(_commutator(t))
    if verdict.status == REFUTED:
        raise StructureViolation(
            "a normality route applied but T*T != TT*; the input fails the "
            "star-paranormal structure undetectably")
    return NormalityCertificate(route, True, bound, details)


def compress_to_complement(t, kernel):
    """Compression of t to the orthogonal complement of a finite-dimensional
    kernel, re-expressed over a fresh space list (finite extras component
    first, then the surviving l2 tails, if any)."""
    if kernel.dim() is None:
        raise InfiniteH2("kernel is not finite-dimensional")
    comp = kernel.complement()
    if comp.kind == "full":
        return t
    extras = comp.onb()
    tails = comp.tails
    new_spaces = []
    if extras:
        new_spaces.append(finite(len(extras)))
    tail_comps = sorted(tails)
    tail_pos = {}
    for ci in tail_comps:
        tail_pos[ci] = len(new_spaces)
        new_spaces.append(L2)
    new_spaces = tuple(new_spaces)
    blocks = {}
    t_star = adjoint(t)
    # extras x extras
    if extras:
        mat = [[apply(t, extras[j]).inner(extras[i])
                for j in range(len(extras))] for i in range(len(extras))]
        blocks[(0, 0)] = DenseBlock(mat)
    # tail x tail (same component): shifted diagonals, exact
    for ci in tail_comps:
        start = tails[ci]
        blk = t.blocks.get((ci, ci))
        diags = {}
        if blk is not None:
            for off, seq in blk.diagonals.items():
                rule = seq.rule.shift_index(start) if seq.rule is not None else None
                need = max(0, len(seq.prefix) - start)
                if rule is not None:
                    need = max(need, rule.valid_from)
                pre = [seq.entry(start + i) for i in range(need)]
                diags[off] = DiagonalSeq(pre, seq.limit, rule, seq.decay)
        pos = tail_pos[ci]
        blocks[(pos, pos)] = BandedBlock(diags)
    # couplings
    for ci in tail_comps:
        start = tails[ci]
        pos = tail_pos[ci]
        # extras -> tail and tail -> extras
        if extras:
            ent_up, ent_dn = {}, {}
            for j, u in enumerate(extras):
                tu = apply(t, u)
                for k, v in tu.data[ci].items():
                    if k >= start:
                        ent_dn[(k - start, j)] = v
                tsu = apply(t_star, u)
                for k, v in tsu.data[ci].items():
                    if k >= start:
                        ent_up[(j, k - start)] = v.conj()
            blocks[(pos, 0)] = FiniteRankBlock(ent_dn)
            blocks[(0, pos)] = FiniteRankBlock(ent_up)
        # tail -> other tails
        for cj in tail_comps:
            if cj == ci:
                continue
            entries = {}
            for k, e in enumerate(_tail_window(t, cj, tails[cj])):
                for r, v in apply(t, e).data[ci].items():
                    if r >= start:
                        entries[(r - start, k)] = v
            blocks[(tail_pos[ci], tail_pos[cj])] = FiniteRankBlock(entries)
    return OperatorExpr(new_spaces, blocks)


# -- M* equals M -----------------------------------------------------------------------------

def m_star_equals_m_check(t, tol=1e-10, trunc=256):
    """Proven iff the two norm-attainment subspaces agree (finite M* only)."""
    m_sp, mstar_sp = compute_M_and_Mstar(t, tol, trunc)
    if mstar_sp.dim() is None:
        return PredicateVerdict(
            "m_star_equals_m", "Undetermined",
            evidence={"rule": "MstarInfinite: the attainment subspace of the "
                              "adjoint is infinite-dimensional",
                      "mstar": repr(mstar_sp)},
            tolerances={"tol": tol})
    eq, res = m_sp.equals(mstar_sp, tol)
    if eq:
        return PredicateVerdict("m_star_equals_m", PROVEN,
                                evidence={"rule": "mutual projector residual "
                                                  "within tol",
                                          "residual": res,
                                          "dim": mstar_sp.dim()},
                                tolerances={"tol": tol})
    return PredicateVerdict("m_star_equals_m", REFUTED,
                            evidence={"rule": "subspaces differ; on certified "
                                              "inputs this is a structure "
                                              "violation",
                                      "residual": res},
                            tolerances={"tol": tol})
