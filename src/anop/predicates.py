"""Verdict engine for the operator classes: normal, hyponormal, paranormal,
star-paranormal, norm attaining and absolutely norm attaining, plus the
norm-attainment subspaces M and M*.

Proven is only ever emitted from an exact structural argument; sampling and
finite sections can refute (with a witness that re-checks) or support
(Numerical), never prove. Every Refuted verdict carries machine-checkable
evidence.

Paranormality and star-paranormality quantify over every vector, so they are
refuted by sampling, in three steps. A batch screen multiplies each batch of
candidate vectors by one dense float window of T and clears the columns that
satisfy the inequality by more than a rounding-error bound. Every other
column, in the order drawn, goes through a per-sample float test on sparse
vectors, and on exact data a float violation is re-checked exactly before it
becomes a witness. The screen clears only columns the per-sample test would
pass, so witnesses and sample counts are those of the per-sample test alone.
"""

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import NotNormAttaining, UncertifiedTail
from .exactla import _unit, psd_decide, quad_form
from .operators import (apply, apply_float, corner_sizes, dense_window, multiply,
                        op_is_zero, truncate, window_layout)
from .scalars import Scalar
from .spectral import (adjoint_modulus_summary, cogram, count_spectrum_in, gram,
                       memoised, modulus_summary, shares_derived, star,
                       summary_eigenspace, symbol, symbolic_essential_spectrum)
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
    """Structural status of d = T*T - TT* beyond its corner: ('zero'|'psd',
    None) or ('neg', basis witness) or ('numeric', None)."""
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
                runs = seq.rule.runs_from(start)
                if len(runs) == 1 and runs[0][1] >= 0:
                    status = "psd"
                    continue
                k = next((a for a, sgn in runs if sgn < 0), None)
                if k is not None:
                    return "neg", (i, k)
                return "numeric", None
            # on exact data every rule-free limit of T*T - TT* cancels: both
            # share each l2 component's symbol, and the other blocks have
            # finite rank; what is left is float data
            if seq.decay is not None or not seq.limit.is_zero():
                return "numeric", None
    return status, None


def _corner_witness_search(d, corner, labels):
    """Exact direction with nonzero quadratic form for a nonzero Hermitian
    window; preference order: basis vectors, then pair combinations."""
    n = len(corner)
    for i in range(n):
        if not corner[i][i].is_zero():
            return VectorExpr.from_flat(d.spaces, labels, _unit(n, i))
    for i in range(n):
        for j in range(i + 1, n):
            if corner[i][j].is_zero():
                continue
            for phase in (Scalar.exact(1), Scalar.exact(0, 1)):
                flat = _unit(n, i)
                flat[j] = phase
                if not quad_form(corner, flat).is_zero():
                    return VectorExpr.from_flat(d.spaces, labels, flat)
    return None


def _norms2(t, x):
    """(||x||^2, ||Tx||^2, ||T*x||^2, ||T^2 x||^2) exactly."""
    tx = apply(t, x)
    tsx = apply(star(t), x)
    ttx = apply(t, tx)
    return x.norm2(), tx.norm2(), tsx.norm2(), ttx.norm2()


def _violates_exactly(t, x, lhs_kind):
    """Whether x breaks (*-)paranormality exactly: ||Lx||^4 > ||T^2 x||^2 ||x||^2,
    with L = T for lhs_kind "T" and L = T* for "T*"."""
    n0, nt, nts, ntt = _norms2(t, x)
    lhs = nt if lhs_kind == "T" else nts
    return lhs.re * lhs.re > ntt.re * n0.re


def _sample_region(t):
    """(component, index) coordinates of the corner plus one band beyond."""
    sizes = corner_sizes(t, pad=1)
    return [(ci, k) for ci, sp in enumerate(t.spaces)
            for k in range(sizes[ci] if sp.kind == "l2" else sp.dim)]


# sample values: grid[i] for an index i drawn as rng.choice over the grid
# would draw it, with the zero imaginary part appended at the end
_GRID = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3) if n] + [Fraction(0)]
_GRID_FLOAT = np.array([float(g) for g in _GRID])
_NO_IM = len(_GRID) - 1
_FIRST_BATCH, _MAX_BATCH = 64, 4096
_SUPPORT_CAP = 12          # most coordinates a random sample sets


class SampleBatch(NamedTuple):
    """Candidate vectors as columns: `matrix` holds their complex float
    coordinates, one row per sample-region coordinate, and `vector(j)` builds
    column j as an exact VectorExpr."""
    matrix: np.ndarray
    vector: Callable[[int], VectorExpr]


def iter_sample_vectors(t, regions, count, seed):
    """Deterministic batches of candidate vectors supported on `regions`
    (`_sample_region(t)`: the corner plus one band beyond): first one batch
    of the basis vectors of that region, then `count` random vectors with
    rational values on at most `_SUPPORT_CAP` coordinates, drawn lazily in
    batches of 64, 128, 256, ... up to 4096, so a caller that stops early
    draws no further batch. Each batch draws only its own samples, so the
    stream does not depend on the batch sizes. The random vectors come from
    CPython's `random.Random(seed)` stream, consumed word for word as its
    `randint`, `sample`, `choice` and `random` would consume it (see
    `_draw_samples`)."""
    nreg = len(regions)
    yield SampleBatch(np.eye(nreg, dtype=complex),
                      lambda j: VectorExpr.basis(t.spaces, *regions[j]))
    rng = random.Random(seed)
    drawn, size = 0, _FIRST_BATCH
    while drawn < count:
        m = min(size, count - drawn)
        rows, re, im, ends = _draw_samples(rng, nreg, m)
        mat = np.zeros((nreg, m), dtype=complex)
        mat[rows, np.repeat(np.arange(m), np.diff(ends, prepend=0))] = \
            _GRID_FLOAT[re] + 1j * _GRID_FLOAT[im]
        yield SampleBatch(mat, _exact_columns(t.spaces, regions, rows, re, im, ends))
        drawn += m
        size = min(2 * size, _MAX_BATCH)


def _draw_samples(rng, nreg, m):
    """(rows, re, im, ends) of m random samples over nreg >= 1 coordinates:
    sample j sets the coordinates rows[e] to _GRID[re[e]] + i _GRID[im[e]]
    for ends[j - 1] <= e < ends[j]. Per sample this draws what

        for r in rng.sample(range(nreg), rng.randint(1, min(_SUPPORT_CAP, nreg))):
            re = rng.choice(range(_NO_IM))
            im = rng.choice(range(_NO_IM)) if rng.random() < 0.3 else _NO_IM

    draws, word for word, through the generator's own `getrandbits` and
    `random`: randbelow(n) repeats getrandbits(n.bit_length()) until the
    value is below n, randint(1, cap) is 1 + randbelow(cap), and sample takes
    its indices from a shrinking pool while nreg is at most its set size
    (21, plus 4 ** ceil(log(3k, 4)) for k > 5), else redraws an index until
    it is new."""
    getrandbits, coin = rng.getrandbits, rng.random
    cap = min(_SUPPORT_CAP, nreg)
    cap_bits, nreg_bits, grid_bits = cap.bit_length(), nreg.bit_length(), _NO_IM.bit_length()
    bits = [n.bit_length() for n in range(nreg + 1)]
    pooled = [nreg <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
              for k in range(cap + 1)]
    rows, re, im, ends = [], [], [], []
    for _ in range(m):
        k = getrandbits(cap_bits)
        while k >= cap:
            k = getrandbits(cap_bits)
        k += 1
        if pooled[k]:
            pool = list(range(nreg))
            for n in range(nreg, nreg - k, -1):
                b = bits[n]
                j = getrandbits(b)
                while j >= n:
                    j = getrandbits(b)
                rows.append(pool[j])
                pool[j] = pool[n - 1]
        else:
            selected = set()
            for _ in range(k):
                j = getrandbits(nreg_bits)
                while j >= nreg or j in selected:
                    j = getrandbits(nreg_bits)
                selected.add(j)
                rows.append(j)
        for _ in range(k):
            g = getrandbits(grid_bits)
            while g >= _NO_IM:
                g = getrandbits(grid_bits)
            re.append(g)
            if coin() < 0.3:
                g = getrandbits(grid_bits)
                while g >= _NO_IM:
                    g = getrandbits(grid_bits)
                im.append(g)
            else:
                im.append(_NO_IM)
        ends.append(len(rows))
    return rows, re, im, ends


def _exact_columns(spaces, regions, rows, re, im, ends):
    """vector(j) of a batch of random samples, with its coordinates inserted
    in the order they were drawn."""
    def vector(j):
        data = [dict() for _ in spaces]
        for e in range(ends[j - 1] if j else 0, ends[j]):
            ci, k = regions[rows[e]]
            data[ci][k] = Scalar.exact(_GRID[re[e]], _GRID[im[e]])
        return VectorExpr(spaces, data)
    return vector


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
                        while k in zs:
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
    lhs = ||Tx|| (paranormal) or ||T*x|| (star-paranormal) among the
    candidates of `iter_sample_vectors`. Returns (witness, checked_count) or
    (None, checked_count)."""
    exact_ok = t.is_exact_scalars()
    t_adj = star(t)
    regions = _sample_region(t)
    clears = _window_screen(t, lhs_kind, regions)
    checked = 0
    for batch in iter_sample_vectors(t, regions, samples, seed):
        for j in np.flatnonzero(~clears(batch.matrix)):
            v = batch.vector(j)
            if _sample_violates(t, t_adj, v, lhs_kind, exact_ok):
                return v, checked + int(j) + 1
        checked += batch.matrix.shape[1]
    return None, checked


def _sample_violates(t, t_adj, v, lhs_kind, exact_ok):
    """The per-sample decision: a float test, then on exact data an exact
    re-check of every float violation."""
    fv = v.to_float_dict()
    ftx = apply_float(t, fv)
    fttx = apply_float(t, ftx)
    a = _fnorm2(ftx) if lhs_kind == "T" else _fnorm2(apply_float(t_adj, fv))
    b = _fnorm2(fttx)
    c = _fnorm2(fv)
    rhs = b * c * _SLACK
    if not exact_ok:
        # no exact re-check follows: the 1e-300 floor skips subnormal squares
        return a * a > rhs + 1e-300 and a * a > b * c * (1.0 + 1e-6)
    # a right side of 0.0 clears only a = 0, as a tiny a * a may underflow
    if a * a <= rhs and (rhs > 0 or a == 0):
        return False
    return _violates_exactly(t, v, lhs_kind)


def _fnorm2(fd):
    return sum(abs(v) ** 2 for d in fd for v in d.values())


_SLACK = 1.0 + 1e-9        # relative slack of the per-sample float test
_UNIT = 2.0 ** -53         # unit roundoff of a double


def _window_screen(t, lhs_kind, region):
    """clears(x): mask of the columns of a batch matrix x that certainly pass
    the per-sample float test, computed with three products on one dense
    complex window W of T that holds Tx, T^2x and T*x for every candidate.

    The screen and the per-sample test multiply the same float entries of T
    and x, only in another order. Each entry of a computed W x lies within
    g (|W| |x|) of the exact one, g = sqrt(2) gamma(2n + 2) for sums of n
    complex products, gamma(k) = k u / (1 - k u), and W W x computed from the
    computed W x within g (2 + g) |W| |W| |x|; each squared norm carries a
    relative error of at most gamma(n + 3). Both g and that relative error
    are doubled to cover the rounding of the bounds themselves, and the
    final comparison gives up 8 u for its own rounding and the test's. A
    column is cleared when the per-sample test holds at every value within
    twice these distances of the screen's own; every other column goes
    through that test, also one whose right-side bound underflows to 0.0
    while its left-side bound does not. A window with an entry that has no
    certified value clears nothing, so the per-sample test meets it as before.
    `region` is `_sample_region(t)`, the rows a batch matrix stands for."""
    # the region already spans every finite-rank extent, and counting its
    # coordinates per component gives its sizes; two bandwidths beyond it
    # hold T^2 x and, in the transposed window, T*x
    sizes = [0] * len(t.spaces)
    for ci, _ in region:
        sizes[ci] += 1
    for i in t.l2_components():
        blk = t.blocks.get((i, i))
        sizes[i] += 2 * (blk.bandwidth if blk is not None else 0)
    try:
        window = dense_window(t, sizes)
    except UncertifiedTail:
        return lambda x: np.zeros(x.shape[1], dtype=bool)
    starts, _ = window_layout(t.spaces, sizes)
    rows = [starts[ci] + k for ci, k in region]
    w = np.array(window, dtype=complex)
    w_region = w[:, rows]
    w_lhs = w_region if lhs_kind == "T" else w[rows, :].conj().T
    aw, aw_region, aw_lhs = np.abs(w), np.abs(w_region), np.abs(w_lhs)
    n = len(w)

    def gamma(k):
        return k * _UNIT / (1.0 - k * _UNIT)

    g = 2.0 * math.sqrt(2.0) * gamma(2 * n + 2)
    h = 2.0 * gamma(n + 3)

    def clears(x):
        with np.errstate(over="ignore", invalid="ignore"):
            ax = np.abs(x)
            tx = w_region @ x
            ttx = w @ tx
            p = aw_region @ ax
            if lhs_kind == "T":
                lhs, p_lhs = tx, p
            else:
                lhs, p_lhs = w_lhs @ x, aw_lhs @ ax
            dev_a = 2.0 * g * np.linalg.norm(p_lhs, axis=0)
            dev_b = 2.0 * g * (2.0 + g) * np.linalg.norm(aw @ p, axis=0)
            a_hi = (np.sqrt(_col_norms2(lhs) / (1.0 - h)) + dev_a) ** 2 * (1.0 + h)
            b_lo = np.maximum(np.sqrt(_col_norms2(ttx) / (1.0 + h)) - dev_b, 0.0) ** 2 \
                * (1.0 - h)
            c_lo = _col_norms2(x) * (1.0 - h) / (1.0 + h)
            rhs = b_lo * c_lo * _SLACK * (1.0 - 8.0 * _UNIT)
            return (a_hi * a_hi <= rhs) & np.isfinite(rhs) & ((rhs > 0) | (a_hi == 0))

    return clears


def _col_norms2(m):
    return np.sum(m.real ** 2 + m.imag ** 2, axis=0)


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
    over a geometric k-grid. Stage 3 checks the least eigenvalue of each
    k-section and never proves, also when ||T||^2 is so small that the
    k-grid's lower end underflows to 0.0 and no k-grid can be built; when
    both sections are diagonal, as for a weighted shift, it reads those
    eigenvalues off the diagonal instead of calling the dense eigensolver,
    with the same bits."""
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
    k_lo = 2.0 * norm2 * 1e-6
    if k_lo <= 0:
        # stage 1 proves the zero operator, so a nonzero ||T||^2 underflowed here
        return PredicateVerdict("star_paranormal", NUMERICAL,
                                evidence={"rule": "2e-6 ||T||^2 underflows to 0.0 in floats, "
                                                  "no k-grid; no sampled witness",
                                          "stage": 3, "samples": checked, "seed": seed},
                                tolerances={"tol": tol})
    n_sec = max(max(corner_sizes(s4)) + 4, min(trunc, 192))
    sec4 = truncate(s4, n_sec).matrix
    sec2 = truncate(tts, n_sec).matrix
    ks = np.geomspace(k_lo, 2.0 * norm2, int(k_grid))
    worst = None
    thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    sym_vals = [(symbol(s4, i).eval_theta(thetas).real,
                 symbol(tts, i).eval_theta(thetas).real) for i in s4.l2_components()]
    min_symbol = float("inf")
    min_section = float("inf")
    for k, wmin in zip(ks, _section_min_eigs(sec4, sec2, ks)):
        min_section = min(min_section, wmin)
        for v4, v2 in sym_vals:
            min_symbol = min(min_symbol, float(np.min(v4 - 2 * k * v2 + k * k)))
        if wmin < -tol * max(1.0, norm2 ** 2):
            worst = (k, wmin)
    if worst is not None:
        k, wmin = worst
        _, vecs = np.linalg.eigh(_section(sec4, sec2, k))
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


def _section(sec4, sec2, k):
    """The k-section of T*^2 T^2 - 2k TT* + k^2 I from the sections of
    T*^2 T^2 and TT*."""
    return sec4 - 2.0 * k * sec2 + (k * k) * np.eye(len(sec4))


# LAPACK's Hermitian eigensolver rescales a matrix whose largest |entry| lies
# outside [sqrt(smlnum), 1/sqrt(smlnum)], smlnum = safe minimum / precision,
# which can move the last bits of its eigenvalues
_EIG_UNSCALED = (math.sqrt(np.finfo(float).tiny / 2.0 ** -52),
                 math.sqrt(2.0 ** -52 / np.finfo(float).tiny))


def _section_min_eigs(sec4, sec2, ks):
    """The least eigenvalue of `_section(sec4, sec2, k)` for each k in ks,
    bit for bit as `np.linalg.eigvalsh` computes it. When sec4 and sec2 are
    real diagonal (a weighted shift), so is every k-section, and within
    LAPACK's unscaled range its eigenvalues are its diagonal entries, found
    here with the operations of `_section` in the same order; every other
    section goes to the dense eigensolver."""
    d4, d2 = _real_diagonal(sec4), _real_diagonal(sec2)
    diagonal = d4 is not None and d2 is not None
    lo, hi = _EIG_UNSCALED
    for k in ks:
        if diagonal:
            d = d4 - 2.0 * k * d2 + k * k
            if lo <= float(np.max(np.abs(d))) <= hi:
                yield float(np.min(d))
                continue
        yield float(np.linalg.eigvalsh(_section(sec4, sec2, k))[0])


def _real_diagonal(m):
    """The diagonal of m when m is a real diagonal matrix, else None."""
    d = m.diagonal().real
    return d if np.array_equal(m, np.diag(d)) else None


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
    return v if _violates_exactly(t, v, "T*") else None


# -- norm attainment ----------------------------------------------------------------------

def norm_attaining_check(t, tol=1e-10, trunc=256):
    """Proven iff ||T||^2 is attained by an eigenspace of T*T."""
    s = modulus_summary(t, tol, trunc).base
    norm2 = s.norm
    space = summary_eigenspace(s, norm2)
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


def _ess_rule(t, ess, tol):
    """The rule by which ess, the essential spectrum of T*T, refutes AN, or
    None."""
    intervals = [p for p in ess if p[0] == "interval"]
    if intervals:
        # a nonconstant real symbol has a range of positive width, so on
        # exact data every interval piece refutes; float widths meet tol
        lo, hi = intervals[0][1], intervals[-1][2]
        if t.is_exact_scalars() or hi - lo > tol:
            return "essential spectrum has positive diameter"
    if len(ess) > 1:
        return "essential spectrum has at least two points"
    return None


def symbol_an_rule(t, tol=1e-10):
    """The rule of an_check's refutation when the symbols of T*T decide it
    before any window is built, else None (T*T takes the structured path, or
    its symbols leave AN open)."""
    ess = symbolic_essential_spectrum(gram(t), tol)
    return None if ess is None else _ess_rule(t, ess, tol)


def an_check(t, tol=1e-10, trunc=256):
    """Singleton essential spectrum of T*T plus finitely many spectrum points
    below the essential minimum."""
    s = modulus_summary(t, tol, trunc).base
    evidence = {"ess": [_ess_json(p) for p in s.ess], "m2": s.m,
                "m_e2": float(s.m_e)}
    rule = _ess_rule(t, s.ess, tol)
    if rule is not None:
        return PredicateVerdict("an", REFUTED, evidence={**evidence, "rule": rule},
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
        return {"point": float(p[1].re)}
    return {"interval": [p[1], p[2]]}


# -- M and M* ---------------------------------------------------------------------------

def compute_M_and_Mstar(t, tol=1e-10, trunc=256):
    """M = N(T*T - ||T||^2 I) and M* = N(TT* - ||T||^2 I) intersected with M."""
    na = norm_attaining_check(t, tol, trunc)
    if na.status != PROVEN:
        raise NotNormAttaining("operator does not attain its norm")
    m_space = na.subspace
    s2 = adjoint_modulus_summary(t, tol, trunc).base
    return m_space, summary_eigenspace(s2, s2.norm).intersect(m_space)


# -- witness re-validation -----------------------------------------------------------------

def revalidate_witness(verdict, t):
    """Exact (or toleranced, on float data) re-check of a Refuted witness
    against the defining inequality of its predicate."""
    if verdict.status != REFUTED or verdict.witness is None:
        return True
    v = verdict.witness
    exact = t.is_exact_scalars() and v.is_exact()
    name = verdict.predicate
    if exact and name in ("paranormal", "star_paranormal"):
        return _violates_exactly(t, v, "T" if name == "paranormal" else "T*")
    n0, nt, nts, ntt = _norms2(t, v)
    if name == "normal":
        gap = nt - nts
        return not gap.is_zero() if exact else abs(complex(gap)) > 1e-8
    if name == "hyponormal":
        if exact:
            return nts.re > nt.re
        return float(nts.re) > float(nt.re) - 1e-10
    if name in ("paranormal", "star_paranormal"):
        lhs = nt if name == "paranormal" else nts
        return float(lhs.re) ** 2 > float(ntt.re) * float(n0.re) * (1 - 1e-9)
    return True
