"""Verdict engine for the operator classes: normal, hyponormal, paranormal,
star-paranormal, norm attaining and absolutely norm attaining, plus the
norm-attainment subspaces M and M*.

Proven is only ever emitted from an exact structural argument; sampling and
finite sections can refute (with a witness that re-checks) or support
(Numerical), never prove. Every Refuted verdict carries machine-checkable
evidence.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotNormAttaining
from .exactla import psd_decide, quad_form
from .operators import (adjoint, apply, apply_float, corner_sizes, dense_window,
                        multiply, op_is_zero, truncate, window_layout)
from .scalars import Scalar, ZERO
from .spectral import (adjoint_modulus_summary, cogram, count_spectrum_in, gram,
                       memoised, modulus_summary, shares_derived,
                       summary_eigenspace, symbol)
from .subspaces import Subspace
from .vectors import VectorExpr

PROVEN, REFUTED, NUMERICAL, UNDETERMINED = \
    "Proven", "Refuted", "Numerical", "Undetermined"


@dataclass
class PredicateVerdict:
    predicate: str
    status: str
    witness: VectorExpr | None = None
    evidence: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    subspace: Subspace | None = None

    def to_json(self):
        out = {"predicate": self.predicate, "status": self.status,
               "witness": self.witness.to_json() if self.witness is not None else None,
               "evidence": _jsonable(self.evidence),
               "params": _jsonable(self.tolerances)}
        if self.subspace is not None:
            out["subspace"] = self.subspace.to_json()
        return out


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Scalar):
        return [float(x.re), float(x.im)]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


# -- helpers -------------------------------------------------------------------------

def _commutator(t):
    """T*T - TT* (positive exactly when T is hyponormal)."""
    return memoised("commutator", t, lambda: gram(t) - cogram(t))


def _form_refutation(name, d, wit, rule, **kw):
    """Refuted verdict whose witness has a nonzero quadratic form of d."""
    gap = apply(d, wit).inner(wit)
    return PredicateVerdict(name, REFUTED, witness=wit,
                            evidence={"rule": rule,
                                      "form_value": [str(gap.re), str(gap.im)]},
                            **kw)


def _tail_analysis(d, sizes):
    """Structural status of an exact-shape-or-ruled difference operator
    beyond its corner: ('zero'|'psd', None) or ('neg', basis witness) or
    ('numeric', None)."""
    status = "zero"
    for i in d.l2_components():
        blk = d.blocks.get((i, i))
        if blk is None:
            continue
        for j, seq in blk.diagonals.items():
            if j != 0:
                if seq.rule is None and seq.decay is None and seq.limit.is_zero():
                    continue
                return "numeric", None
            if seq.rule is not None:
                start = max(len(seq.prefix), sizes[i])
                sgn = seq.rule.sign_from(start)
                if sgn is not None and sgn >= 0:
                    status = "psd" if status == "zero" else status
                    continue
                k = _first_negative(seq.rule, start)
                if k is not None:
                    return "neg", (i, k)
                return "numeric", None
            if seq.decay is not None:
                return "numeric", None
            if seq.limit.is_zero():
                continue
            if not seq.limit.is_real():
                return "numeric", None
            if seq.limit.is_exact and seq.limit.re > 0:
                status = "psd"
            elif seq.limit.is_exact and seq.limit.re < 0:
                return "neg", (i, sizes[i])
            else:
                return "numeric", None
    return status, None


def _first_negative(fn, start):
    from .ratfn import _root_bound
    bound = max(start + 2, int(_root_bound(fn.num)) + 2 if fn.num else start + 2)
    for k in range(start, bound + 1):
        if fn.eval(k) < 0:
            return k
    return None


def _corner_witness_search(d, corner, labels):
    """Exact direction with nonzero quadratic form for a nonzero Hermitian
    window; preference order: basis vectors, then pair combinations."""
    n = len(corner)
    for i in range(n):
        if not corner[i][i].is_zero():
            return VectorExpr.from_flat(d.spaces, labels, _unit_flat(n, i))
    for i in range(n):
        for j in range(i + 1, n):
            if corner[i][j].is_zero():
                continue
            for phase in (Scalar.exact(1), Scalar.exact(0, 1)):
                flat = _unit_flat(n, i)
                flat[j] = phase
                if not quad_form(corner, flat).is_zero():
                    return VectorExpr.from_flat(d.spaces, labels, flat)
    return None


def _unit_flat(n, i):
    flat = [ZERO] * n
    flat[i] = Scalar.exact(1)
    return flat


def _norms2(t, x):
    """(||x||^2, ||Tx||^2, ||T*x||^2, ||T^2 x||^2) exactly."""
    tx = apply(t, x)
    tsx = apply(adjoint(t), x)
    ttx = apply(t, tx)
    return x.norm2(), tx.norm2(), tsx.norm2(), ttx.norm2()


def _sample_region(t):
    """(component, index) coordinates of the corner plus one band beyond."""
    sizes = corner_sizes(t, pad=1)
    return [(ci, k) for ci, sp in enumerate(t.spaces)
            for k in range(sizes[ci] if sp.kind == "l2" else sp.dim)]


def iter_sample_vectors(t, count, seed, support_cap=12):
    """Deterministic finitely supported rational sample vectors with support
    inside the corner plus one band beyond."""
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


def basis_candidates(t):
    return [VectorExpr.basis(t.spaces, ci, k) for ci, k in _sample_region(t)]


# -- normality -----------------------------------------------------------------------

def is_normal(t):
    """Proven or Refuted exactly on exact scalars; Numerical otherwise."""
    d = _commutator(t)
    if op_is_zero(d):
        return PredicateVerdict("normal", PROVEN,
                                evidence={"rule": "T*T - TT* is structurally zero"})
    exact = d.is_exact_scalars()
    sizes = corner_sizes(d)
    starts, labels = window_layout(d.spaces, sizes)
    corner = dense_window(d, sizes)
    if exact:
        wit = _corner_witness_search(d, corner, labels)
        if wit is None:
            # nonzero structure must live in a ruled tail; pick its entry
            status, pos = _tail_analysis(d, sizes)
            if pos is None:
                for i in d.l2_components():
                    blk = d.blocks.get((i, i))
                    if blk is None or 0 not in blk.diagonals:
                        continue
                    seq = blk.diagonals[0]
                    if seq.rule is not None:
                        zs = seq.rule.zeros_from(sizes[i])
                        k = sizes[i]
                        while zs is not None and k in zs:
                            k += 1
                        pos = (i, k)
                        break
            if pos is None:
                return PredicateVerdict("normal", NUMERICAL,
                                        evidence={"rule": "difference below resolution"})
            wit = VectorExpr.basis(d.spaces, pos[0], pos[1])
        return _form_refutation("normal", d, wit, "witness quadratic form of "
                                "T*T - TT* is nonzero")
    mat = np.array([[complex(v) for v in row] for row in corner])
    nrm = float(np.linalg.norm(mat))
    if nrm <= 1e-10:
        return PredicateVerdict("normal", NUMERICAL,
                                evidence={"rule": "float data, window difference small",
                                          "window_norm": nrm})
    w, v = np.linalg.eigh(mat)
    idx = int(np.argmax(np.abs(w)))
    wit = VectorExpr.from_flat(d.spaces, labels, v[:, idx], 1e-12)
    return PredicateVerdict("normal", REFUTED, witness=wit,
                            evidence={"rule": "float witness", "form_value": float(w[idx])})


# -- hyponormality --------------------------------------------------------------------

def hyponormal_check(t, tol=1e-10):
    """TT* <= T*T decided exactly on the exact tier (corner sign data plus a
    certified tail), with a witness on refutation."""
    d = _commutator(t)
    if op_is_zero(d):
        return PredicateVerdict("hyponormal", PROVEN,
                                evidence={"rule": "T*T = TT* exactly"},
                                tolerances={"tol": tol})
    sizes = corner_sizes(d)
    starts, labels = window_layout(d.spaces, sizes)
    exact = d.is_exact_scalars()
    tail, neg_pos = _tail_analysis(d, sizes)
    corner = dense_window(d, sizes)
    if exact and tail in ("zero", "psd"):
        ok, wit_flat = psd_decide(corner)
        if ok:
            return PredicateVerdict(
                "hyponormal", PROVEN,
                evidence={"rule": "corner congruence pivots nonnegative, "
                                  "tail certified nonnegative",
                          "corner_size": len(corner), "tail": tail},
                tolerances={"tol": tol})
        wit = VectorExpr.from_flat(d.spaces, labels, wit_flat)
        return _form_refutation("hyponormal", d, wit,
                                "negative direction of T*T - TT*",
                                tolerances={"tol": tol})
    if exact and tail == "neg":
        wit = VectorExpr.basis(d.spaces, neg_pos[0], neg_pos[1])
        return _form_refutation("hyponormal", d, wit, "negative ruled tail entry",
                                tolerances={"tol": tol})
    mat = np.array([[complex(v) for v in row] for row in corner])
    w = np.linalg.eigvalsh(mat) if len(mat) else np.array([0.0])
    scale = max(1.0, float(np.max(np.abs(w))) if len(mat) else 1.0)
    if w[0] < -tol * scale:
        _, v = np.linalg.eigh(mat)
        wit = VectorExpr.from_flat(d.spaces, labels, v[:, 0], 1e-12)
        return PredicateVerdict("hyponormal", REFUTED, witness=wit,
                                evidence={"rule": "float corner eigenvalue negative",
                                          "min_eig": float(w[0])},
                                tolerances={"tol": tol})
    return PredicateVerdict("hyponormal", NUMERICAL,
                            evidence={"rule": "corner eigenvalues >= -tol, tail sampled",
                                      "min_eig": float(w[0]), "tail": tail},
                            tolerances={"tol": tol})


# -- sampling refuters ------------------------------------------------------------------

def _refute_by_sampling(t, lhs_kind, samples, seed):
    """Search for an exact violation of lhs^2 <= ||T^2 x|| ||x|| with
    lhs = ||Tx|| (paranormal) or ||T*x|| (star-paranormal). Returns
    (witness, checked_count) or (None, checked_count)."""
    import itertools
    exact_ok = t.is_exact_scalars()
    cands = itertools.chain(basis_candidates(t),
                            iter_sample_vectors(t, samples, seed))
    t_adj = adjoint(t)
    checked = 0
    for v in cands:
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
        else:
            if a * a > b * c * (1.0 + 1e-6):
                return v, checked
    return None, checked


def _fnorm2(fd):
    return sum(abs(v) ** 2 for d in fd for v in d.values())


def paranormal_refute(t, samples=100000, seed=42):
    """Searches for ||Tx||^2 > ||T^2 x|| ||x||; never proves (the statement
    quantifies over all vectors)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    wit, checked = _refute_by_sampling(t, "T", samples, seed)
    if wit is not None:
        return PredicateVerdict("paranormal", REFUTED, witness=wit,
                                evidence={"rule": "sampled violation, re-checked exactly",
                                          "checked": checked, "seed": seed})
    return PredicateVerdict("paranormal", NUMERICAL,
                            evidence={"rule": f"no witness among {checked} samples",
                                      "checked": checked, "seed": seed})


@shares_derived
def star_paranormal_check(t, tol=1e-10, k_grid=64, samples=100000, seed=42,
                          trunc=256):
    """Three stages: structural proof via hyponormality, exact refutation by
    sampling, then PSD evidence for T*^2 T^2 - 2k TT* + k^2 I on sections
    over a geometric k-grid."""
    hypo = hyponormal_check(t, tol)
    if hypo.status == PROVEN:
        return PredicateVerdict("star_paranormal", PROVEN,
                                evidence={"rule": "hyponormal implies star-paranormal",
                                          "stage": 1},
                                tolerances={"tol": tol})
    wit, checked = _refute_by_sampling(t, "T*", samples, seed)
    if wit is not None:
        return PredicateVerdict("star_paranormal", REFUTED, witness=wit,
                                evidence={"rule": "sampled violation of "
                                                  "||T*x||^2 <= ||T^2x|| ||x||",
                                          "stage": 2, "checked": checked, "seed": seed},
                                tolerances={"tol": tol})
    # stage 3: k-grid sections
    s4 = gram(multiply(t, t))
    tts = cogram(t)
    norm2 = modulus_summary(t, tol, trunc).norm ** 2
    if norm2 <= 0:
        return PredicateVerdict("star_paranormal", PROVEN,
                                evidence={"rule": "zero operator"},
                                tolerances={"tol": tol})
    n_sec = max(max(corner_sizes(s4)) + 4, min(trunc, 192))
    sec4 = truncate(s4, n_sec).matrix
    sec2 = truncate(tts, n_sec).matrix
    eye = np.eye(len(sec4))
    ks = np.geomspace(2.0 * norm2 * 1e-6, 2.0 * norm2, int(k_grid))
    worst = None
    thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    sym_vals = [(symbol(s4, i).eval_theta(thetas).real,
                 symbol(tts, i).eval_theta(thetas).real) for i in s4.l2_components()]
    min_symbol = float("inf")
    min_section = float("inf")
    for k in ks:
        mk = sec4 - 2.0 * k * sec2 + (k * k) * eye
        wmin = float(np.linalg.eigvalsh(mk)[0])
        min_section = min(min_section, wmin)
        for v4, v2 in sym_vals:
            min_symbol = min(min_symbol, float(np.min(v4 - 2 * k * v2 + k * k)))
        if wmin < -tol * max(1.0, norm2 ** 2):
            worst = (k, mk, wmin)
    if worst is not None:
        k, mk, wmin = worst
        _, vecs = np.linalg.eigh(mk)
        flat = vecs[:, 0]
        cand = _rationalize_witness(t, n_sec, flat)
        if cand is not None:
            return PredicateVerdict("star_paranormal", REFUTED, witness=cand,
                                    evidence={"rule": "negative section direction "
                                                      "re-checked exactly",
                                              "stage": 3, "k": float(k),
                                              "min_eig": wmin},
                                    tolerances={"tol": tol})
    return PredicateVerdict(
        "star_paranormal", NUMERICAL,
        evidence={"rule": "sections PSD on the k-grid, no sampled witness",
                  "stage": 3, "k_grid": int(k_grid), "section_size": int(n_sec),
                  "min_section_eig": min_section, "min_symbol": min_symbol,
                  "samples": checked, "seed": seed},
        tolerances={"tol": tol})


def _rationalize_witness(t, n_sec, flat):
    """Exact witness from a float section direction, verified against the
    defining inequality; None when verification fails."""
    if not t.is_exact_scalars():
        return None
    starts, labels = window_layout(t.spaces, [n_sec if s.kind == "l2" else s.dim
                                              for s in t.spaces])
    data = [dict() for _ in t.spaces]
    for (ci, k), v in zip(labels, flat):
        if abs(v) > 1e-8:
            data[ci][k] = Scalar.exact(Fraction(v.real).limit_denominator(10 ** 6),
                                       Fraction(v.imag).limit_denominator(10 ** 6))
    v = VectorExpr(t.spaces, data)
    if v.is_zero():
        return None
    n0, nt, nts, ntt = _norms2(t, v)
    if nts.re * nts.re > ntt.re * n0.re:
        return v
    return None


# -- norm attainment ----------------------------------------------------------------------

def norm_attaining_check(t, tol=1e-10, trunc=256):
    """Proven iff ||T||^2 is attained by an eigenspace of T*T."""
    s = modulus_summary(t, tol, trunc).base
    norm2 = s.norm
    value = s.norm_exact if s.norm_exact is not None else norm2
    space = summary_eigenspace(s, value, tol)
    if not space.is_zero():
        return PredicateVerdict(
            "norm_attaining", PROVEN, subspace=space,
            evidence={"rule": "norm^2 is an eigenvalue of T*T",
                      "norm2": float(norm2),
                      "dim": space.dim() if space.dim() is not None else "infinite"},
            tolerances={"tol": tol})
    return PredicateVerdict(
        "norm_attaining", NUMERICAL, subspace=space,
        evidence={"rule": "declared tail supremum is not an eigenvalue; "
                          "norm not attained",
                  "norm2": float(norm2), "attaining": False},
        tolerances={"tol": tol})


def an_check(t, tol=1e-10, trunc=256):
    """Singleton essential spectrum of T*T plus finitely many spectrum points
    below the essential minimum."""
    s = modulus_summary(t, tol, trunc).base
    points = [p for p in s.ess if p[0] == "point"]
    intervals = [p for p in s.ess if p[0] == "interval"]
    evidence = {"ess": [_ess_json(p) for p in s.ess], "m2": s.m, "m_e2": s.m_e}
    if intervals:
        lo, hi = intervals[0][1], intervals[-1][2]
        if hi - lo > tol:
            return PredicateVerdict("an", REFUTED,
                                    evidence={**evidence,
                                              "rule": "essential spectrum has "
                                                      "positive diameter"},
                                    tolerances={"tol": tol})
    if len(points) + len(intervals) > 1:
        return PredicateVerdict("an", REFUTED,
                                evidence={**evidence,
                                          "rule": "essential spectrum has at least "
                                                  "two points"},
                                tolerances={"tol": tol})
    cnt = count_spectrum_in(s, s.m, s.m_e)
    if cnt == "infinite":
        return PredicateVerdict("an", REFUTED,
                                evidence={**evidence,
                                          "rule": "infinitely many spectrum points in "
                                                  "[m, m_e) (exact rule analysis)"},
                                tolerances={"tol": tol})
    if cnt == "unknown":
        return PredicateVerdict("an", UNDETERMINED,
                                evidence={**evidence,
                                          "rule": "spectrum count below the essential "
                                                  "minimum is undecided"},
                                tolerances={"tol": tol})
    if t.is_exact_scalars():
        return PredicateVerdict("an", PROVEN,
                                evidence={**evidence, "points_below": cnt,
                                          "rule": "singleton essential spectrum and "
                                                  "finite point count below it"},
                                tolerances={"tol": tol})
    return PredicateVerdict("an", NUMERICAL,
                            evidence={**evidence, "points_below": cnt,
                                      "rule": "singleton within tol on float data"},
                            tolerances={"tol": tol})


def _ess_json(p):
    if p[0] == "point":
        v = p[1]
        return {"point": float(v.re) if isinstance(v, Scalar) else float(v)}
    return {"interval": [p[1], p[2]]}


# -- M and M* ---------------------------------------------------------------------------

def compute_M_and_Mstar(t, tol=1e-10, trunc=256):
    """M = N(T*T - ||T||^2 I) and M* = N(TT* - ||T||^2 I) intersected with M."""
    na = norm_attaining_check(t, tol, trunc)
    if na.status != PROVEN:
        raise NotNormAttaining("operator does not attain its norm")
    m_space = na.subspace
    s2 = adjoint_modulus_summary(t, tol, trunc).base
    norm2 = s2.norm_exact if s2.norm_exact is not None else s2.norm
    return m_space, summary_eigenspace(s2, norm2, tol).intersect(m_space)


# -- witness re-validation -----------------------------------------------------------------

def revalidate_witness(verdict, t):
    """Exact (or toleranced, on float data) re-check of a Refuted witness
    against the defining inequality of its predicate."""
    if verdict.status != REFUTED or verdict.witness is None:
        return True
    v = verdict.witness
    exact = t.is_exact_scalars() and v.is_exact()
    n0, nt, nts, ntt = _norms2(t, v)
    name = verdict.predicate
    if name == "normal":
        gap = nt - nts
        return not gap.is_zero() if exact else abs(complex(gap)) > 1e-8
    if name == "hyponormal":
        if exact:
            return nts.re > nt.re
        return float(nts.re) > float(nt.re) - 1e-10
    if name in ("paranormal", "star_paranormal"):
        lhs = nt if name == "paranormal" else nts
        if exact:
            return lhs.re * lhs.re > ntt.re * n0.re
        return float(lhs.re) ** 2 > float(ntt.re) * float(n0.re) * (1 - 1e-9)
    return True
