"""Builders for the named gallery operators and the audit runner that
re-derives every checkable claim recorded about the two worked examples.

The two examples carry documented claims (bundled below as data); the audit
recomputes each claim with exact arithmetic where possible and flags
agreement or disagreement without asserting either side as ground truth.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import BandedBlock, DenseBlock, FiniteRankBlock
from .diagonals import DiagonalSeq
from .errors import BadParams
from .exactla import mat_identity, mat_mul
from .operators import (L2, OperatorExpr, apply, corner_sizes,
                        dense_window, direct_sum, finite, ops_equal_exact,
                        window_layout)
from .predicates import (_commutator, _jsonable, an_check, compute_M_and_Mstar,
                         hyponormal_check, paranormal_refute)
from .ratfn import RationalFn
from .scalars import Scalar
from .spectral import (cogram, essential_spectrum, gram, kernel_dims,
                       modulus_summary, shares_derived, star)
from .vectors import VectorExpr


# -- simple builders ------------------------------------------------------------------

def right_shift(scale=1):
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq(limit=Scalar.of(scale))})})


def nilpotent_pair():
    """T e1 = e0 and T = 0 elsewhere; T^2 = 0 with T* nonzero."""
    return OperatorExpr((L2,), {(0, 0): FiniteRankBlock({(0, 1): 1})})


def diag_operator(prefix, limit=0, rule=None):
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {0: DiagonalSeq(prefix, Scalar.of(limit), rule)})})


def jacobi_operator(diag=None, offdiag=None):
    """Self-adjoint banded operator from a main and an off diagonal; the
    default is the free Jacobi operator S + S*."""
    diag = diag if diag is not None else DiagonalSeq()
    offdiag = offdiag if offdiag is not None else DiagonalSeq(limit=Scalar.exact(1))
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {0: diag, 1: offdiag, -1: offdiag.conjugated()})})


def flip_unitary():
    """The 2x2 coordinate flip [[0,1],[1,0]]."""
    return OperatorExpr((finite(2),), {(0, 0): DenseBlock([[0, 1], [1, 0]])})


# -- worked examples ------------------------------------------------------------------

def example1():
    """l2 + C^2 operator: (x, y) -> ((y1, 2x1, 2x2, ...), (y1, y2))."""
    spaces = (L2, finite(2))
    return OperatorExpr(spaces, {
        (0, 0): BandedBlock({1: DiagonalSeq(limit=Scalar.exact(2))}),
        (0, 1): FiniteRankBlock({(0, 0): 1}),
        (1, 1): DenseBlock([[1, 0], [0, 1]]),
    })


def example1_tts_claimed():
    """T*T image claimed for the first worked example:
    ((4x1, 4x2, ...), (2y1, y2))."""
    spaces = (L2, finite(2))
    return OperatorExpr(spaces, {
        (0, 0): BandedBlock({0: DiagonalSeq(limit=Scalar.exact(4))}),
        (1, 1): DenseBlock([[2, 0], [0, 1]]),
    })


def example1_ttstar_claimed():
    """TT* image claimed for the first worked example:
    ((y1 + x1, 4x2, ...), (x1 + y1, y2))."""
    spaces = (L2, finite(2))
    return OperatorExpr(spaces, {
        (0, 0): BandedBlock({0: DiagonalSeq([1], Scalar.exact(4))}),
        (0, 1): FiniteRankBlock({(0, 0): 1}),
        (1, 0): FiniteRankBlock({(0, 0): 1}),
        (1, 1): DenseBlock([[1, 0], [0, 1]]),
    })


def example2():
    """l2 + l2 operator: ((x),(s)) -> ((s1, x1, x2/2, x3/3, ...), (s2, s3, ...));
    the weighted-shift weights are 1/(k+1) with a certified 1/(i+1) decay."""
    spaces = (L2, L2)
    weight = RationalFn.power_term(1, 1, 1)   # 1 / (i + 1)
    return OperatorExpr(spaces, {
        (0, 0): BandedBlock({1: DiagonalSeq(rule=weight)}),
        (0, 1): FiniteRankBlock({(0, 0): 1}),
        (1, 1): BandedBlock({-1: DiagonalSeq(limit=Scalar.exact(1))}),
    })


# -- theorem-form assembly ---------------------------------------------------------------

def theorem_form(levels, m_e, tail_power=1, h3_dim=0, a_entries=(), b_matrix=None):
    """Assemble (+)_x lam_x S_x  (+)  [[m_e S, A], [0, B]] with S a tail
    shift power on one l2 component.

    levels: [(lam, unitary matrix rows)] with lam > m_e, descending.
    a_entries: [(row, col, value)] with row in [h3_dim, h3_dim + tail_power)
    and col < h3_dim (this is exactly the S*A = 0 range).
    b_matrix: h3_dim x h3_dim rows.
    """
    m_e = Scalar.of(m_e)
    if float(m_e.re) <= 0 or not m_e.is_real():
        raise BadParams("tail scale must be a positive real")
    if tail_power < 1:
        raise BadParams("tail shift power must be at least 1")
    prev = None
    summands = []
    for lam, mat in levels:
        lam = Scalar.of(lam)
        if not lam.is_real() or float(lam.re) <= float(m_e.re):
            raise BadParams("level values must be real and exceed the tail scale")
        if prev is not None and float(lam.re) >= prev:
            raise BadParams("level values must be strictly descending")
        prev = float(lam.re)
        n = len(mat)
        blk = DenseBlock([[Scalar.of(v) for v in row] for row in mat])
        if any(len(row) != n for row in mat):
            raise BadParams("level matrices must be square")
        adj = [[v.conj() for v in col] for col in zip(*blk.matrix)]
        if mat_mul(adj, blk.matrix) != mat_identity(n):
            raise BadParams("level matrices must be unitary")
        summands.append(OperatorExpr((finite(n),), {(0, 0): blk.scaled(lam)}))
    try:
        d, p = int(h3_dim), int(tail_power)
    except ValueError as exc:
        raise BadParams(f"block sizes must be integers: {exc}") from None
    tail = [Scalar.exact(0)] * d
    shift = DiagonalSeq(tail, m_e)
    entries = {}
    for (r, c, v) in a_entries:
        if not (d <= r < d + p and 0 <= c < d):
            raise BadParams("coupling entries must hit the first tail rung "
                            "from the finite block")
        entries[(r, c)] = Scalar.of(v)
    if b_matrix is not None:
        for r, row in enumerate(b_matrix):
            for c, v in enumerate(row):
                if r >= d or c >= d:
                    raise BadParams("b matrix exceeds the finite block")
                v = Scalar.of(v)
                if not v.is_zero():
                    entries[(r, c)] = v
    dblock = BandedBlock({p: shift}).absorb_entries(entries)
    summands.append(OperatorExpr((L2,), {(0, 0): dblock}))
    return direct_sum(*summands)


_PYTH = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
         (Fraction(8, 17), Fraction(15, 17)), (Fraction(7, 25), Fraction(24, 25)),
         (Fraction(20, 29), Fraction(21, 29))]


def random_rational_unitary(rng, n):
    """Exact unitary from Givens rotations with Pythagorean cosines plus
    rational-complex unit phases."""
    mat = [[Scalar.exact(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c, s = rng.choice(_PYTH)
        if rng.random() < 0.5:
            s = -s
        for row in mat:
            vi, vj = row[i], row[j]
            row[i] = vi * Scalar.exact(c) + vj * Scalar.exact(s)
            row[j] = vi * Scalar.exact(-s) + vj * Scalar.exact(c)
    for j in range(n):
        if rng.random() < 0.4:
            c, s = rng.choice(_PYTH)
            ph = Scalar.exact(c, s if rng.random() < 0.5 else -s)
        else:
            ph = Scalar.exact(rng.choice([1, -1]))
        for row in mat:
            row[j] = row[j] * ph
    return mat


def random_theorem_form(seed, max_levels=5, max_h3=3, max_power=3):
    """Deterministic random fixture in the representable theorem form whose
    finite block is a scaled unitary on coordinates disjoint from the
    coupling columns (that keeps the assembly provably hyponormal)."""
    rng = random.Random(seed)
    m_e = Fraction(rng.randint(1, 4))
    n_levels = rng.randint(0, max_levels)
    lam_offsets = sorted(rng.sample(range(1, 10), n_levels), reverse=True)
    levels = []
    for off in lam_offsets:
        n = rng.randint(1, 3)
        levels.append((m_e + Fraction(off, 2), random_rational_unitary(rng, n)))
    p = rng.randint(1, max_power)
    d = rng.randint(0, max_h3)
    cols = list(range(d))
    rng.shuffle(cols)
    n_b = rng.randint(0, d)
    b_cols, a_cols = cols[:n_b], cols[n_b:]
    a_entries = []
    for c in a_cols:
        r = d + rng.randint(0, p - 1)
        v = m_e * Fraction(rng.randint(1, 4), 5)
        a_entries.append((r, c, v))
    # the coupled block stays below the tail scale when every row of the
    # coupling has norm under m_e; scale rows down where columns pile up
    row_sums = {}
    for r, _, v in a_entries:
        row_sums[r] = row_sums.get(r, Fraction(0)) + v
    scaled = []
    for r, c, v in a_entries:
        s = row_sums[r]
        cap = m_e * Fraction(4, 5)
        f = min(Fraction(1), cap / s)
        scaled.append((r, c, v * f))
    a_entries = scaled
    b_matrix = None
    if b_cols:
        delta = m_e * Fraction(rng.randint(1, 3), 4)
        u = random_rational_unitary(rng, len(b_cols))
        b_matrix = [[Scalar.exact(0)] * d for _ in range(d)]
        for bi, r in enumerate(b_cols):
            for bj, c in enumerate(b_cols):
                b_matrix[r][c] = u[bi][bj] * Scalar.exact(delta)
    t = theorem_form(levels, m_e, p, d, a_entries, b_matrix)
    return t, {"levels": levels, "m_e": m_e, "power": p, "h3_dim": d,
               "a_entries": a_entries, "b_matrix": b_matrix,
               "b_cols": b_cols, "a_cols": a_cols}


def build(name, **params):
    """Named gallery operators."""
    builders = {
        "example1": example1,
        "example2": example2,
        "right_shift": right_shift,
        "nilpotent": nilpotent_pair,
        "jacobi": jacobi_operator,
        "flip_unitary": flip_unitary,
    }
    try:
        if name == "scaled_shift":
            return right_shift(params.get("scale", 2))
        if name == "theorem_form":
            return theorem_form(**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {name}: {exc}") from None
    if name in builders:
        return builders[name]()
    raise BadParams(f"unknown gallery operator {name!r}; have "
                    f"{sorted(builders) + ['scaled_shift', 'theorem_form']}")


# -- audit ----------------------------------------------------------------------------

@dataclass
class AuditRecord:
    name: str
    claim: str
    computed: object
    agreement: bool | None
    artifacts: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "claim": self.claim,
                "computed": _jsonable(self.computed),
                "agreement": self.agreement,
                "artifacts": _jsonable(self.artifacts)}


@dataclass
class AuditReport:
    records: list
    params: dict

    def to_json(self):
        return {"records": [r.to_json() for r in self.records],
                "params": _jsonable(self.params)}

    def to_text(self):
        lines = ["audit of the worked-example claims",
                 "-" * 72]
        for r in self.records:
            mark = {True: "agree", False: "DISAGREE", None: "n/a"}[r.agreement]
            lines.append(f"[{mark:>8}] {r.name}")
            lines.append(f"           claim:    {r.claim}")
            lines.append(f"           computed: {r.computed}")
        lines.append("-" * 72)
        return "\n".join(lines)


def _support_corner(op):
    """Exact dense window of op restricted to its nonzero rows/columns,
    with coordinate labels."""
    sizes = corner_sizes(op)
    starts, labels = window_layout(op.spaces, sizes)
    mat = dense_window(op, sizes)
    keep = [k for k in range(len(mat))
            if any(not mat[k][j].is_zero() for j in range(len(mat)))
            or any(not mat[j][k].is_zero() for j in range(len(mat)))]
    sub = [[mat[r][c] for c in keep] for r in keep]
    return sub, [labels[k] for k in keep]


@shares_derived
def audit(tol=1e-10, samples=2000, seed=42):
    """Recompute every checkable claim recorded about the worked examples."""
    from .decomposition import peel_decompose
    from .exactla import psd_decide
    records = []
    t1 = example1()
    tts = gram(t1)
    ttstar = cogram(t1)

    # (a) closed forms of T*T and TT* versus the recorded display formulas
    rng = random.Random(seed)
    agree_a = ops_equal_exact(tts, example1_tts_claimed()) and \
        ops_equal_exact(ttstar, example1_ttstar_claimed())
    vec_checks = 0
    for _ in range(50):
        data = [{k: Scalar.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for k in rng.sample(range(6), rng.randint(1, 4))},
                {k: Scalar.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for k in range(2)}]
        x = VectorExpr(t1.spaces, data)
        lhs1 = apply(tts, x)
        rhs1 = apply(example1_tts_claimed(), x)
        lhs2 = apply(ttstar, x)
        rhs2 = apply(example1_ttstar_claimed(), x)
        if (lhs1 - rhs1).is_zero() and (lhs2 - rhs2).is_zero():
            vec_checks += 1
    agree_a = agree_a and vec_checks == 50
    records.append(AuditRecord(
        "example1.images",
        "T*T = ((4x1,4x2,...),(2y1,y2)) and the second displayed line "
        "(read as TT*) = ((y1+x1,4x2,...),(x1+y1,y2))",
        {"structural_equality": agree_a, "random_vectors_matched": vec_checks},
        agree_a, {"note": "second displayed line labeled T*T matches TT* "
                          "by the adjoint identity, and is audited as TT*"}))

    # (b) hyponormality corner form and its sign, against the prose claim
    corner, labels = _support_corner(_commutator(t1))
    psd, _ = psd_decide(corner)
    corner_lists = [[[str(v.re), str(v.im)] for v in row] for row in corner]
    claimed_not_hypo = True
    records.append(AuditRecord(
        "example1.hyponormality",
        "stated: T is not hyponormal",
        {"corner_matrix": corner_lists, "corner_labels": labels,
         "corner_psd": psd,
         "computed_hyponormal": hyponormal_check(t1, tol).status},
        (not psd) == claimed_not_hypo,
        {"note": "computed from the displayed T*T and TT* without asserting "
                 "either side as ground truth"}))

    # (c) S*A = 0 for the decomposition of example 1
    cert = peel_decompose(t1, tol=tol, samples=samples, seed=seed)
    records.append(AuditRecord(
        "example1.tail_coupling",
        "stated: S*A = 0",
        {"s_star_a_norm": cert.s_star_a_norm,
         "delta_spectrum": cert.delta_spectrum},
        cert.s_star_a_norm == 0.0))

    # (d) example 2 facts
    t2 = example2()
    kd = kernel_dims(t2, tol)
    records.append(AuditRecord(
        "example2.kernels", "stated: N(T) = {0} = N(T*)",
        kd.to_json(), kd.as_tuple() == (0, 0)))
    t2s = star(t2)
    hypo2 = hyponormal_check(t2s, tol)
    refute2 = paranormal_refute(t2s, samples=min(samples, 2000), seed=seed)
    records.append(AuditRecord(
        "example2.adjoint_hyponormal", "stated: T* is hyponormal",
        {"corner_and_tail": hypo2.status, "refuter": refute2.status,
         "refuter_found_witness": refute2.status == "Refuted"},
        hypo2.status in ("Proven", "Numerical") and refute2.status != "Refuted"))
    ess = essential_spectrum(cogram(t2), tol)
    ess_vals = sorted(float(p[1].re) for p in ess if p[0] == "point")
    records.append(AuditRecord(
        "example2.ess_TTstar", "stated: sigma_ess(TT*) = {0, 1}",
        {"points": ess_vals,
         "exact": all(p[0] == "point" for p in ess)},
        ess_vals == [0.0, 1.0]))
    an2 = an_check(t2s, tol)
    records.append(AuditRecord(
        "example2.adjoint_an", "stated: T* is not absolutely norm attaining",
        {"status": an2.status, "rule": an2.evidence.get("rule")},
        an2.status == "Refuted"))

    # (e) M* inside M spot checks
    spot = []
    for name, t in (("flip3_plus_2shift",
                     direct_sum(flip_unitary().scaled(3), right_shift(2))),
                    ("example1", t1)):
        m_sp, mstar_sp = compute_M_and_Mstar(t, tol)
        norm = modulus_summary(t, tol).norm
        worst = 0.0
        for b in mstar_sp.vectors:
            worst = max(worst, m_sp.residual(b) / max(b.norm_float(), 1e-300))
            tx = apply(t, b)
            worst = max(worst, abs(tx.norm_float() - norm * b.norm_float()))
        for ci, start in (mstar_sp.tails or {}).items():
            e = VectorExpr.basis(t.spaces, ci, start)
            worst = max(worst, m_sp.residual(e))
            worst = max(worst, abs(apply(t, e).norm_float() - norm))
        spot.append({"operator": name, "worst_residual": worst,
                     "mstar": repr(mstar_sp), "m": repr(m_sp)})
    records.append(AuditRecord(
        "mstar_subset_m", "M* is contained in M and attains the norm",
        spot, all(s["worst_residual"] <= 1e-10 for s in spot)))

    return AuditReport(records, {"tol": tol, "samples": samples, "seed": seed,
                                 "deterministic": True})
